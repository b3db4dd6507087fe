"""Fit the float32 erf of ``mole.kernels``: erf(t) ~ t P(t^2) / Q(t^2) on [0, 3.92].

    python tools/fit_erf.py          # prints the two coefficient tuples

P has degree 6 and Q degree 4 (monic). Targets are mpmath's erf on a
Chebyshev-plus-uniform grid. Each differential-correction step solves the
linear program min delta s.t. |t P - erf Q| <= delta * Q_prev on the grid
(scipy's HiGHS, on the residual scaled to order 1, since its tolerances
are ~1e-7), with R(3.92) >= 1 + 3e-8 so that the float32 result saturates
there. The fit first normalizes Q(0) = 1, then Q monic; it then rounds the
coefficients to float32 one at a time and refits the rest. Finally it
evaluates the rounded rational in float32, as ``kernels._erf`` does, over
every float32 in [2^-12, 6] against SciPy's double erf.
"""

import mpmath
import numpy as np
from scipy.optimize import linprog
from scipy.special import erf as double_erf

M, N = 6, 4  # degrees of P and Q in s = t^2
CLAMP = float(np.float32(3.92))
MARGIN = 3e-8

mpmath.mp.dps = 30
_grid = 0.5 * CLAMP * (1 - np.cos(np.pi * np.arange(2501) / 2500))
T = np.unique(np.concatenate([_grid, np.linspace(0, CLAMP, 2500)]))[1:]
F = np.array([float(mpmath.erf(mpmath.mpf(v))) for v in T])
S = T * T
# unknowns x = (a_0..a_M, q_0..q_N), each scaled so its grid column is O(1)
SCALE = np.array([CLAMP ** (2 * j + 1) for j in range(M + 1)]
                 + [CLAMP ** (2 * j) for j in range(N + 1)])
COLS = np.hstack([np.stack([T * S**j for j in range(M + 1)], 1),
                  -F[:, None] * np.stack([S**j for j in range(N + 1)], 1)]) / SCALE
# R(CLAMP) >= 1 + MARGIN, i.e. CLAMP P - (1 + MARGIN) Q >= 0 there
EDGE = np.array([CLAMP ** (2 * j + 1) for j in range(M + 1)]
                + [-(1 + MARGIN) * CLAMP ** (2 * j) for j in range(N + 1)]) / SCALE


def denominator(x: np.ndarray) -> np.ndarray:
    return np.polyval((x[M + 1:] / SCALE[M + 1:])[::-1], S)


def refine(x: np.ndarray, fixed: set[int], steps: int) -> np.ndarray:
    """Differential-correction steps moving only the coefficients not in ``fixed``."""
    free = [j for j in range(M + N + 2) if j not in fixed]
    for _ in range(steps):
        q = denominator(x)
        weight = q / q.max() if np.all(q > 0) else np.ones_like(S)
        resid = COLS @ x
        sigma = np.abs(resid).max()
        cols = COLS[:, free]
        a_ub = np.vstack([np.hstack([cols, -weight[:, None]]), np.hstack([-cols, -weight[:, None]]),
                          np.append(-EDGE[free], 0.0)[None, :]])
        b_ub = np.concatenate([-resid / sigma, resid / sigma, [EDGE @ x / sigma]])
        cost = np.zeros(len(free) + 1)
        cost[-1] = 1.0
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * len(free) + [(0, None)],
                      method="highs")
        if res.status != 0:
            raise RuntimeError(res.message)
        x = x.copy()
        x[free] += sigma * res.x[:-1]
    return x


def erf32(t: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The rational in float32, step for step as ``kernels._erf`` evaluates it."""
    t = np.clip(t, np.float32(-CLAMP), np.float32(CLAMP))
    s = t * t
    num = s * p[0]
    for c in p[1:-1]:
        num = (num + c) * s
    num = (num + p[-1]) * t
    den = s + q[0]
    for c in q[1:]:
        den = den * s + c
    return np.clip(num / den, np.float32(-1), np.float32(1))


def main() -> None:
    x = np.zeros(M + N + 2)
    x[M + 1] = SCALE[M + 1]  # Q = 1
    x = refine(x, {M + 1}, 25)  # Q(0) = 1
    x = x / (x[-1] / SCALE[-1])
    x = refine(x, {M + N + 1}, 10)  # Q monic
    fixed = {M + N + 1}
    # round the highest powers first, numerator before denominator
    for j in sorted(set(range(M + N + 1)), key=lambda j: -j if j <= M else -(j - M - 1) - 0.5):
        x[j] = float(np.float32(x[j] / SCALE[j])) * SCALE[j]
        fixed.add(j)
        if len(fixed) < M + N + 2:
            x = refine(x, fixed, 4)
    coef = (x / SCALE).astype(np.float32)
    p, q = coef[: M + 1][::-1], coef[M + 1: -1][::-1]
    worst = 0.0
    lo, hi = (int(np.float32(v).view(np.uint32)) for v in (2.0**-12, 6.0))
    for start in range(lo, hi + 1, 1 << 22):
        t = np.arange(start, min(start + (1 << 22), hi + 1), dtype=np.uint32).view(np.float32)
        err = np.abs(erf32(t, p, q) - double_erf(t.astype(np.float64)))
        worst = max(worst, float(np.max(err)))
    saturated = erf32(np.array([CLAMP], np.float32), p, q)[0] == 1.0
    print("_ERF_P =", tuple(str(c) for c in p))
    print("_ERF_Q =", tuple(str(c) for c in q))
    print(f"max abs error over every float32 in [2^-12, 6]: {worst:.3e}")
    print(f"erf(3.92) == 1: {saturated}")


if __name__ == "__main__":
    main()
