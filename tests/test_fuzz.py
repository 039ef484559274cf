"""Fuzzing of the text and file readers: only documented errors, never a traceback.

``parse_poly`` either returns a ``Poly`` or raises ``PolyParseError``.  The CLI
readers of structure files (``verify <file>``) and trajectory files
(``plot <file>``) exit 0, 1 or 2; exit 2 prints exactly one ``error:`` line,
and no exception escapes ``main``.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from leibniz.cli import main
from leibniz.poly import Chart, Poly, PolyParseError, parse_poly

D3 = Chart.standard(3, 3)

# pieces the polynomial syntax is made of, plus near misses
_TOKENS = st.sampled_from(
    ["x1", "x2", "x3", "xi1", "xi3", "y", "2", "0", "10", "1/2", "3/0", "0.25", ".5", "7.",
     "^", "^2", "^0", "*", "+", "-", " ", "/", ".", "(", "e", "1e3", "__", "x1^x2"]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=30), st.lists(_TOKENS, max_size=12).map("".join)))
def test_parse_poly_returns_a_poly_or_a_parse_error(text):
    try:
        p = parse_poly(D3, text)
    except PolyParseError:
        return
    assert isinstance(p, Poly) and p.chart is D3


_mixed_coeffs = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.decimals(min_value=-10, max_value=10, places=3).map(Fraction),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * D3.dim), _mixed_coeffs, max_size=6))
def test_str_round_trip_with_integral_and_fractional_coefficients(terms):
    p = Poly(D3, terms)
    q = parse_poly(D3, str(p))
    assert q == p
    # the same canonical storage, coefficient types included
    assert {e: type(c) for e, c in q._terms.items()} == {e: type(c) for e, c in p._terms.items()}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_documented_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


_poly_text = st.one_of(
    st.sampled_from(["0", "1", "-1", "x1", "x2", "-x3", "x1*x2", "1/2*x1^2", "x2 - 3", "2*x1*x3"]),
    _TOKENS,
)
# a JSON leaf where a polynomial or a list belongs
_leaf = st.one_of(_poly_text, st.integers(-3, 3), st.none(), st.booleans(), st.floats(allow_nan=False))


def _nested(depth):
    """Lists of 0 to 3 items nested ``depth`` deep, or at any level a bare leaf."""
    inner = _poly_text if depth == 0 else _nested(depth - 1)
    return st.one_of(st.lists(inner, min_size=0, max_size=3), _leaf) if depth else inner


@st.composite
def structure_docs(draw):
    """Structure documents: well-formed ones with drawn entries, and broken ones."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):  # the right shape
        C = [[[draw(_poly_text) for _ in range(m)] for _ in range(m)] for _ in range(m)]
        rho1 = [[draw(_poly_text) for _ in range(m)] for _ in range(n)]
        rho2 = [[draw(_poly_text) for _ in range(m)] for _ in range(n)]
    else:
        C, rho1, rho2 = draw(_nested(3)), draw(_nested(2)), draw(_nested(2))
    doc = {"n": n, "m": m, "C": C, "rho1": rho1, "rho2": rho2}
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_leaf)
    return json.dumps(doc)


_structure_files = st.one_of(structure_docs(), st.text(max_size=40))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_structure_files)
def test_verify_structure_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "structure.json"
        path.write_text(text)
        code, err = _run(["verify", str(path), "--json"])
    _assert_documented_exit(code, err)


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_any_float = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, -1e308]), st.floats()
)


@st.composite
def trajectory_docs(draw):
    """Trajectory documents: consistent ones with drawn values, and broken ones."""
    names = draw(st.sampled_from([["x1", "x2"], ["x1", "x2", "x3"], ["x1", "x2", "x3", "xi1", "xi2", "xi3"], ["a"]]))
    rows = draw(st.integers(0, 5))
    values = draw(st.sampled_from([_finite, _any_float]))
    doc = {
        "chart": names,
        "times": [draw(_finite) for _ in range(rows)],
        "states": [[draw(values) for _ in names] for _ in range(rows)],
        "status": 0,
        "accepted": rows,
        "rejected": 0,
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(st.one_of(_leaf, st.lists(_leaf, max_size=3)))
    return json.dumps(doc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(trajectory_docs(), st.text(max_size=40)), st.sampled_from(["x12", "xi13", "oblique3d_x"]))
@example(  # a flat range padded by +-1.0 collapsed to zero width from 2**53 on
    json.dumps({"chart": ["x1", "x2"], "times": [0.0, 1.0], "states": [[9007199254740996.0, 1.0], [9007199254740996.0, 2.0]], "status": 0, "accepted": 1, "rejected": 0}),
    "x12",
)
def test_plot_trajectory_file(text, projection):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "orbit.json"
        path.write_text(text)
        code, err = _run(["plot", str(path), "--proj", projection, "-o", str(Path(tmp) / "orbit.svg")])
    _assert_documented_exit(code, err)
