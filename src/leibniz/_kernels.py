"""Numeric integration kernels.

One scalar-Python implementation of each integration loop: fixed-step RK4
(``rk4``) and adaptive Dormand-Prince 5(4) (``dp54``).  The right-hand side
arrives as a function ``f(y) -> sequence of floats`` (the generated
evaluator of ``poly.float_evaluator``), and the initial state as a list.  The
DP5(4) tableau is defined once (``_DP_A``, ``_DP_E``) and ``dp54`` reads its
entries from there; stage sums are plain left-to-right sums (no BLAS).

Each kernel returns ``(times, states, accepted, rejected, status)``, where
``times`` and ``states`` are flat ``array('d')`` buffers of the rows reached
so far (``states`` row-major, one row per entry of ``times``).  Status codes:
    0  completed
    1  max_steps exhausted before reaching t_end
    2  non-finite state encountered (blow-up)
    3  adaptive step size underflow
"""

from __future__ import annotations

import math
from array import array

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_NONFINITE = 2
STATUS_UNDERFLOW = 3

# Dormand-Prince 5(4) tableau; the systems are autonomous, so the nodes c
# are never needed
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# 5th-order weights (row 7 of A doubles as b); error weights b5 - b4
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


def use_numba() -> bool:
    """Always False: there is no compiled kernel path.

    Kept because benchmark records read it to name the kernel path they ran.
    """
    return False


def rk4(f, y, t_end, n_steps):
    h = t_end / n_steps
    half = 0.5 * h
    sixth = h / 6.0
    times = array("d", (0.0,))
    states = array("d", y)
    for step in range(n_steps):
        k1 = f(y)
        k2 = f([yi + half * a for yi, a in zip(y, k1)])
        k3 = f([yi + half * a for yi, a in zip(y, k2)])
        k4 = f([yi + h * a for yi, a in zip(y, k3)])
        y_new = [yi + sixth * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, y_new)):
            # abort, keeping the last finite state
            return times, states, step, 0, STATUS_NONFINITE
        y = y_new
        times.append((step + 1) * h)
        states.extend(y)
    # n_steps * (t_end / n_steps) can be an ulp off t_end
    times[-1] = t_end
    return times, states, n_steps, 0, STATUS_OK


def dp54(f, y, t_end, h_init, abs_tol, rel_tol, max_steps):
    # the tableau's entries by their Butcher indices
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), a6, b = _DP_A
    a61, a62, a63, a64, a65 = a6
    b1, b2, b3, b4, b5, b6 = b
    e1, e2, e3, e4, e5, e6, e7 = _DP_E
    t = 0.0
    times = array("d", (t,))
    states = array("d", y)
    h = min(h_init, t_end)
    accepted = 0
    rejected = 0
    k1 = f(y)
    if not all(map(math.isfinite, k1)):
        return times, states, accepted, rejected, STATUS_NONFINITE
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            return times, states, accepted, rejected, STATUS_MAX_STEPS
        steps += 1
        if h < 1e-14 * max(1.0, abs(t)):
            return times, states, accepted, rejected, STATUS_UNDERFLOW
        h = min(h, t_end - t)
        k2 = f([yi + h * (a21 * p) for yi, p in zip(y, k1)])
        k3 = f([yi + h * (a31 * p + a32 * q) for yi, p, q in zip(y, k1, k2)])
        k4 = f([yi + h * (a41 * p + a42 * q + a43 * r) for yi, p, q, r in zip(y, k1, k2, k3)])
        k5 = f([
            yi + h * (a51 * p + a52 * q + a53 * r + a54 * u)
            for yi, p, q, r, u in zip(y, k1, k2, k3, k4)
        ])
        k6 = f([
            yi + h * (a61 * p + a62 * q + a63 * r + a64 * u + a65 * v)
            for yi, p, q, r, u, v in zip(y, k1, k2, k3, k4, k5)
        ])
        y5 = [
            yi + h * (b1 * p + b2 * q + b3 * r + b4 * u + b5 * v + b6 * w)
            for yi, p, q, r, u, v, w in zip(y, k1, k2, k3, k4, k5, k6)
        ]
        k7 = f(y5)
        # scaled error estimate; a non-finite state or estimate rejects the step
        ratios = [
            abs(h * (e1 * p + e2 * q + e3 * r + e4 * u + e5 * v + e6 * w + e7 * z))
            / (abs_tol + rel_tol * abs(yi))
            for yi, p, q, r, u, v, w, z in zip(y5, k1, k2, k3, k4, k5, k6, k7)
        ]
        finite = all(map(math.isfinite, y5)) and all(map(math.isfinite, ratios))
        err = max(ratios) if finite else math.inf
        if err <= 1.0:
            # the step clipped to the end lands on t_end, where t + h can miss it by an ulp
            t = t_end if h == t_end - t else t + h
            y = y5
            k1 = k7  # first-same-as-last
            times.append(t)
            states.extend(y)
            accepted += 1
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-0.2)
        else:
            rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-0.2)) if math.isfinite(err) else _MIN_FACTOR
        h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return times, states, accepted, rejected, STATUS_OK
