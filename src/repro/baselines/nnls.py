"""Non-negative least squares via the Lawson–Hanson active-set method.

Solves ``min ||A x - b||_2  s.t.  x >= 0`` — the solver Ernest (and hence
the NNLS baseline of the paper) uses to fit its parametric runtime model.
Implemented from scratch (Lawson & Hanson, *Solving Least Squares Problems*,
1974, ch. 23); the test suite cross-checks it against ``scipy.optimize.nnls``
and verifies the KKT conditions directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def nnls(
    A: np.ndarray,
    b: np.ndarray,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
) -> Tuple[np.ndarray, float]:
    """Solve the non-negative least-squares problem.

    Parameters
    ----------
    A:
        Design matrix of shape ``(m, n)``.
    b:
        Target vector of shape ``(m,)``.
    max_iter:
        Iteration cap; defaults to ``3 * n`` outer iterations like SciPy.
    tol:
        Optimality tolerance on the dual vector ``w = A^T (b - A x)``;
        defaults to ``10 * eps * ||A||_1 * max(m, n)``.

    Returns
    -------
    (x, rnorm):
        The solution ``x >= 0`` and the residual norm ``||A x - b||_2``.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    m, n = A.shape
    if b.shape[0] != m:
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    if max_iter is None:
        max_iter = 3 * n
    if tol is None:
        tol = 10.0 * np.finfo(np.float64).eps * np.abs(A).sum(axis=0).max() * max(m, n)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)  # the set P of unconstrained variables
    w = A.T @ (b - A @ x)

    for _ in range(max_iter):
        active = ~passive
        if not active.any() or w[active].max() <= tol:
            break  # KKT satisfied: all active duals non-positive
        # Move the most violated constraint into the passive set.
        candidates = np.where(active)[0]
        j = candidates[np.argmax(w[candidates])]
        passive[j] = True

        # Inner loop: solve the unconstrained LS on P, backtrack while any
        # passive coefficient would go non-positive. In exact arithmetic each
        # backtracking step drops at least one variable from P, so n steps
        # suffice; the cap also ends the loop when rounding leaves a blocking
        # variable just above ``tol``.
        for _ in range(n):
            cols = np.where(passive)[0]
            s = np.zeros(n)
            solution, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            s[cols] = solution
            if not np.isfinite(s).all() or s[cols].min() > 0:
                break
            # Line search towards s, stopping at the first variable to hit 0.
            # Each ratio lies in [0, 1]; a variable already at 0 with a zero
            # LS coefficient (0 / 0) blocks at once: its ratio is 0, not NaN.
            blocking = cols[s[cols] <= 0]
            step = x[blocking] - s[blocking]
            ratios = np.divide(
                x[blocking], step, out=np.zeros_like(step), where=step > 0
            )
            alpha = ratios.min()
            x = x + alpha * (s - x)
            # Variables that reached (numerical) zero leave the passive set.
            passive[(x <= tol) & passive] = False
            x[~passive] = 0.0
            if not passive.any():
                s = np.zeros(n)
                break
        else:
            s = x  # cap reached: keep the feasible iterate
        if not np.isfinite(s).all():
            # A (numerically) zero column overflowed its LS coefficient; its
            # dual is at the underflow scale, so the last finite iterate is
            # as optimal as float64 can express.
            break
        x = np.where(passive, s, 0.0)
        w = A.T @ (b - A @ x)

    residual = float(np.linalg.norm(A @ x - b))
    return x, residual


def check_kkt(A: np.ndarray, b: np.ndarray, x: np.ndarray, tol: float = 1e-8) -> bool:
    """Verify the KKT conditions of an NNLS solution (used by tests).

    Conditions: ``x >= 0``; the dual ``w = A^T (b - A x)`` satisfies
    ``w <= tol`` everywhere and ``|w| <= tol`` wherever ``x > 0``.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if (x < -tol).any():
        return False
    scale = max(1.0, float(np.abs(A).max()) * max(1.0, float(np.abs(b).max())))
    w = A.T @ (b - A @ x)
    if (w > tol * scale).any():
        return False
    support = x > tol
    return bool(np.all(np.abs(w[support]) <= tol * scale * 10.0))
