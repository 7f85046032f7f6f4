"""Shared nonlinear least-squares fit used by the loss and utility calibrations."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

_TOL = 1e-10
_EPS = float(np.sqrt(np.finfo(float).eps))


class FitDivergence(RuntimeError):
    """Raised when the least-squares routine fails to produce a solution."""


class FitResult(NamedTuple):
    params: np.ndarray
    residual_rms: float
    converged: bool


def fit_least_squares(
    residuals: Callable[[np.ndarray], np.ndarray], p0: np.ndarray | list[float]
) -> FitResult:
    """Levenberg-Marquardt fit with a forward-difference Jacobian.

    Damping is Marquardt's, on diag(JᵀJ); a trial step whose residuals are not
    finite is rejected. The fit converges when the relative actual and
    predicted reductions of the sum of squares are both at most 1e-10, or the
    step is at most 1e-10 of |x|, within 200 * (n + 1) residual evaluations.
    Written for the few-parameter fits here (cf. MINPACK's lmdif).
    """
    x = np.array(p0, dtype=float, ndmin=1)
    n = len(x)
    budget = 200 * (n + 1)
    # A trial step may overflow the model; its residuals are then rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.asarray(residuals(x), dtype=float)
        nfev = 1
        if not np.all(np.isfinite(r)):
            raise FitDivergence("least-squares fit produced non-finite residuals")
        cost = float(r @ r)
        damping = 1e-3
        converged = cost == 0.0
        while not converged and nfev + n < budget:
            h = np.where(x == 0.0, _EPS, _EPS * np.abs(x))
            jac = np.empty((len(r), n))
            for j in range(n):
                xh = x.copy()
                xh[j] += h[j]
                jac[:, j] = (np.asarray(residuals(xh), dtype=float) - r) / h[j]
            nfev += n
            if not np.all(np.isfinite(jac)):
                raise FitDivergence("least-squares fit produced a non-finite Jacobian")
            grad, jtj = jac.T @ r, jac.T @ jac
            scale = np.where(np.diag(jtj) > 0.0, np.diag(jtj), 1.0)
            while nfev < budget:
                step = np.linalg.solve(jtj + damping * np.diag(scale), -grad)
                trial = x + step
                r_trial = np.asarray(residuals(trial), dtype=float)
                nfev += 1
                cost_trial = float(r_trial @ r_trial) if np.all(np.isfinite(r_trial)) else np.inf
                actual = (cost - cost_trial) / cost
                predicted = float(step @ jtj @ step + 2.0 * damping * step @ (scale * step)) / cost
                converged = (abs(actual) <= _TOL and predicted <= _TOL) or bool(
                    np.linalg.norm(step) <= _TOL * np.linalg.norm(x)
                )
                if cost_trial < cost:
                    x, r, cost = trial, r_trial, cost_trial
                    damping /= 10.0
                    converged = converged or cost == 0.0
                    break
                damping *= 10.0
                if converged:
                    break
    rms = float(np.sqrt(np.mean(r**2)))
    return FitResult(x, rms, converged)
