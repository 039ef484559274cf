"""The polynomial reader's sign splitter agrees with the hand-written scanner it replaced."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leibniz.poly import PolyParseError, _signed_terms


def _scanner_terms(text: str) -> list[tuple[int, str]]:
    """The character scanner ``parse_poly`` split its text with before ``re.split``."""
    stripped = text.strip()
    if not stripped:
        raise PolyParseError("empty polynomial text")
    pieces: list[tuple[int, str]] = []
    sign = 1
    i = 0
    if stripped[0] in "+-":
        sign = -1 if stripped[0] == "-" else 1
        i = 1
    start = i
    while i <= len(stripped):
        if i == len(stripped) or stripped[i] in "+-":
            term = stripped[start:i].strip()
            if not term:
                raise PolyParseError(f"dangling sign in {text!r}")
            pieces.append((sign, term))
            if i < len(stripped):
                sign = -1 if stripped[i] == "-" else 1
            i += 1
            start = i
        else:
            i += 1
    return pieces


def _outcome(split, text):
    try:
        return split(text)
    except PolyParseError as exc:
        return ("PolyParseError", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="x1 2/.*^+-", max_size=20))
@example("-x1 + 2*x2^2 - 1/2")
@example("+-x1")
@example("x1 -")
@example(" - ")
@example("  ")
def test_signed_terms_match_the_scanner(text):
    assert _outcome(_signed_terms, text) == _outcome(_scanner_terms, text)
