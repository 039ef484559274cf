"""Numeric integration kernels.

One numpy implementation of each integration loop: fixed-step RK4
(``rk4``) and adaptive Dormand-Prince 5(4) (``dp54``).  Right-hand sides
arrive as flat polynomial tables: ``coeffs[t]`` and integer exponent rows
``expts[t, :]`` for term ``t``, with component ``i`` owning the slice
``offsets[i]:offsets[i + 1]``.

Each kernel returns ``(times, states, accepted, rejected, status)``, where
``times`` and ``states`` are array-likes of the rows reached so far.  Status
codes:
    0  completed
    1  max_steps exhausted before reaching t_end
    2  non-finite state encountered (blow-up)
    3  adaptive step size underflow
"""

from __future__ import annotations

import math

import numpy as np

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


def eval_rhs_numpy(coeffs, expts, offsets, y):
    """Evaluate all rhs components at one state, vectorized over terms."""
    if coeffs.shape[0] == 0:
        return np.zeros(offsets.shape[0] - 1)
    terms = coeffs * np.prod(y[np.newaxis, :] ** expts, axis=1)
    d = offsets.shape[0] - 1
    out = np.empty(d)
    for i in range(d):
        out[i] = terms[offsets[i] : offsets[i + 1]].sum()
    return out


def rk4(coeffs, expts, offsets, y0, t_end, n_steps):
    d = y0.shape[0]
    h = t_end / n_steps
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, d))
    times[0] = 0.0
    states[0] = y0
    y = y0.copy()
    for step in range(n_steps):
        k1 = eval_rhs_numpy(coeffs, expts, offsets, y)
        k2 = eval_rhs_numpy(coeffs, expts, offsets, y + 0.5 * h * k1)
        k3 = eval_rhs_numpy(coeffs, expts, offsets, y + 0.5 * h * k2)
        k4 = eval_rhs_numpy(coeffs, expts, offsets, y + h * k3)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y_new)):
            # abort, keeping the last finite state
            return times[: step + 1], states[: step + 1], step, 0, STATUS_NONFINITE
        y = y_new
        times[step + 1] = (step + 1) * h
        states[step + 1] = y
    return times, states, n_steps, 0, STATUS_OK


def dp54(coeffs, expts, offsets, y0, t_end, h_init, abs_tol, rel_tol, max_steps):
    # Accepted rows are appended as they come, so memory grows with the
    # output and not with max_steps; integrate() turns the lists into arrays.
    d = y0.shape[0]
    t = 0.0
    y = y0.copy()
    times = [t]
    states = [y]
    h = min(h_init, t_end)
    accepted = 0
    rejected = 0
    a = [np.array(row) for row in _DP_A]
    e = np.array(_DP_E)
    k = np.empty((7, d))
    k[0] = eval_rhs_numpy(coeffs, expts, offsets, y)
    if not np.all(np.isfinite(k[0])):
        return times, states, accepted, rejected, STATUS_NONFINITE
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            return times, states, accepted, rejected, STATUS_MAX_STEPS
        steps += 1
        if h < 1e-14 * max(1.0, abs(t)):
            return times, states, accepted, rejected, STATUS_UNDERFLOW
        h = min(h, t_end - t)
        for s in range(1, 7):
            ys = y + h * (a[s - 1][np.newaxis, :] @ k[:s]).ravel()
            k[s] = eval_rhs_numpy(coeffs, expts, offsets, ys)
        y5 = ys  # stage 7 state uses the 5th-order weights (row 6 of A)
        err_vec = h * (e @ k)
        finite = np.all(np.isfinite(y5)) and np.all(np.isfinite(err_vec))
        if finite:
            scale = abs_tol + rel_tol * np.abs(y5)
            err = float(np.max(np.abs(err_vec) / scale))
        else:
            err = math.inf
        if err <= 1.0:
            t = t + h
            y = y5
            k[0] = k[6]  # first-same-as-last
            times.append(t)
            states.append(y)
            accepted += 1
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-0.2)
        else:
            rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-0.2)) if math.isfinite(err) else _MIN_FACTOR
        h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return times, states, accepted, rejected, STATUS_OK
