"""Stackelberg market economics: vehicle participation supply curve, server
cost, and the data consumer's profit as a pure function of (c1, f_d, s)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .privacy import LossModel
from .utility import UtilityModel

PARTICIPATION_MODELS = ("cdf", "pdf_as_written")
SERVER_COST_MODELS = ("per_server_as_written", "total_times_s")

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EconParams:
    """Market parameters making profit a pure function of (c1, f_d, s).

    `participation_model` selects how the supply curve reads the privacy-
    sensitivity distribution (its CDF, or the density evaluated at the
    threshold); `server_cost_model` selects whether the per-server cost is
    charged once or once per server.
    """

    c1: float = 3.57e-6  # baseline payment per sample per vehicle
    c2: float = 1e-6  # server computation cost per sample
    c3: float = 1e-4  # server upkeep cost
    V: float = 2928  # registered vehicles
    mu: float = 0.0
    sigma: float = 0.5
    participation_model: str = "cdf"
    server_cost_model: str = "per_server_as_written"
    loss: LossModel = LossModel()
    utility: UtilityModel = UtilityModel()

    def __post_init__(self) -> None:
        # Written as `not x >= bound` so that NaN fails too.
        if not (self.c1 >= 0 and self.c2 >= 0 and self.c3 >= 0):
            raise ValueError("costs c1, c2, c3 must be nonnegative")
        if not self.V >= 1:
            raise ValueError(f"V must be >= 1, got {self.V}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.participation_model not in PARTICIPATION_MODELS:
            raise ValueError(f"participation_model must be one of {PARTICIPATION_MODELS}")
        if self.server_cost_model not in SERVER_COST_MODELS:
            raise ValueError(f"server_cost_model must be one of {SERVER_COST_MODELS}")

    def with_modes(self, participation: str | None = None, cost: str | None = None) -> "EconParams":
        kwargs = {}
        if participation is not None:
            kwargs["participation_model"] = participation
        if cost is not None:
            kwargs["server_cost_model"] = cost
        return replace(self, **kwargs) if kwargs else self


class ProfitBreakdown(NamedTuple):
    utility: float
    server_cost: float
    payments: float
    profit: float


def _check_point(c1: float, f_d: float, s: float) -> None:
    """Profit's domain checks: c1, then f_d, then s, written as
    `not x >= bound` so that NaN fails them."""
    if not c1 >= 0:
        raise ValueError(f"c1 must be nonnegative, got {c1}")
    if not f_d > 0:
        raise ValueError(f"f_d must be positive, got {f_d}")
    if not s >= 1:
        raise ValueError(f"server count must be >= 1, got {s}")


def _profit_function(
    params: EconParams,
) -> Callable[[float, float, float], tuple[float, float, float, float]]:
    """(c1, f_d, s) -> (utility, server cost, payments, profit) for these
    parameters, in one straight line.

    Every parameter is read and both mode branches are settled once, here.
    Every term is bitwise equal to composing the scalar helper chain of
    `tests/reference_impls.py` (clamped loss, log-normal participation,
    utility, per-server cost). Each min/max is written as the conditional
    that picks what the builtin picks, NaN included. `profit_slabs` is the
    same formula over arrays.
    """
    loss, utility_model = params.loss, params.utility
    neg_k, neg_p, neg_q, eps = -loss.k, -loss.p, -loss.q, loss.eps_clamp
    mu, sigma, V = params.mu, params.sigma, params.V
    alpha, neg_beta = utility_model.alpha, -utility_model.beta
    c2, c3 = params.c2, params.c3
    cdf = params.participation_model == "cdf"
    times_s = params.server_cost_model == "total_times_s"
    exp, log, erf = math.exp, math.log, math.erf

    def parts(c1: float, f_d: float, s: float) -> tuple[float, float, float, float]:
        if not (c1 >= 0 and f_d > 0 and s >= 1):  # NaN fails too
            _check_point(c1, f_d, s)
        raw = 1.0 - exp(neg_k * f_d / s) - exp(neg_p * f_d) - exp(neg_q / s)
        clamped = raw if raw > eps else eps  # min(1.0, max(eps, raw))
        ratio = c1 * f_d / (clamped if clamped < 1.0 else 1.0)
        if ratio <= 0:
            share = 0.0
        elif cdf:
            share = 0.5 * (1.0 + erf((log(ratio) - mu) / sigma / _SQRT2))
        else:
            z = (log(ratio) - mu) / sigma
            try:
                share = exp(-0.5 * z * z) / (ratio * sigma * _SQRT_2PI)
            except ZeroDivisionError:
                raise ZeroDivisionError(
                    "pdf participation: ratio * sigma underflows to 0 at"
                    f" (c1, f_d, s) = {(c1, f_d, s)}"
                ) from None
        v = V * share
        v = 0.0 if 0.0 > v else v  # min(max(v, 0.0), V)
        v = V if V < v else v
        utility = alpha * (1.0 - exp(neg_beta * v * f_d))
        server = c2 * v * f_d / s + c3
        if times_s:
            server *= s
        payments = c1 * v * f_d
        return utility, server, payments, utility - server - payments

    return parts


def _libm(f, a: np.ndarray) -> np.ndarray:
    """f applied to every element of a through Python's math module (libm)."""
    return np.fromiter(map(f, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


def profit_slabs(
    params: EconParams, c1s: Sequence[float], f_ds: Sequence[float], ss: Sequence[float]
) -> Iterator[np.ndarray]:
    """Profit on the lattice c1s x f_ds x ss, one (len(f_ds), len(ss)) slab per c1.

    Cell [j, k] of slab i is bitwise `profit(params, c1s[i], f_ds[j], ss[k])`.
    numpy does only what IEEE 754 rounds exactly (+, -, *, /, comparisons and
    selections), in `_profit_function`'s operand order; every exp, log and erf goes
    through libm, because numpy's own differ from it and vary with the CPU.
    The clamped loss is computed once on the (f_d, s) plane, so memory is a
    few planes whatever len(c1s) is. Raises what the scalar loop over the
    lattice would raise first.
    """
    # The loop's first failing cell: (c1s[0], f_ds[0], ss[0]), then a bad s in
    # the first row, then a bad f_d, then a bad c1.
    for c1, f_d, s in (
        *((c1s[0], f_ds[0], s) for s in ss),
        *((c1s[0], f_d, ss[0]) for f_d in f_ds),
        *((c1, f_ds[0], ss[0]) for c1 in c1s),
    ):
        _check_point(c1, f_d, s)
    F = np.array(f_ds, dtype=np.float64)[:, None]
    S = np.array(ss, dtype=np.float64)[None, :]
    loss, utility_model, V = params.loss, params.utility, params.V
    cdf = params.participation_model == "cdf"
    times_s = params.server_cost_model == "total_times_s"
    # Python floats overflow to inf and give nan silently; so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (
            1.0
            - _libm(math.exp, -loss.k * F / S)
            - _libm(math.exp, -loss.p * F)
            - _libm(math.exp, -loss.q / S)
        )
        # min(1.0, max(eps, raw)) as Python's min and max pick.
        clamped = np.where(raw > loss.eps_clamp, raw, loss.eps_clamp)
        clamped = np.where(clamped < 1.0, clamped, 1.0)
    for c1 in map(float, c1s):
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = c1 * F / clamped
            live = ~(ratio <= 0)  # share stays 0 on the rest, which never reach log
            r = ratio[live]
            if cdf:
                t = (_libm(math.log, r) - params.mu) / params.sigma / _SQRT2
                part = 0.5 * (1.0 + _libm(math.erf, t))
            else:
                z = (_libm(math.log, r) - params.mu) / params.sigma
                denominator = r * params.sigma * _SQRT_2PI
                if not denominator.all():  # raise as the scalar loop does at its first zero
                    j, k = np.argwhere(live)[np.argmin(denominator)]
                    _profit_function(params)(c1, f_ds[j], ss[k])
                part = _libm(math.exp, -0.5 * z * z) / denominator
            share = np.zeros(ratio.shape)
            share[live] = part
            v = V * share
            v = np.where(0.0 > v, 0.0, v)  # min(max(v, 0.0), V)
            v = np.where(V < v, V, v)
            utility = utility_model.alpha * (1.0 - _libm(math.exp, -utility_model.beta * v * F))
            server = params.c2 * v * F / S + params.c3
            if times_s:
                server = server * S
            payments = c1 * v * F
            slab = utility - server - payments
        yield slab


def profit_terms(params: EconParams, c1: float, f_d: float, s: float) -> ProfitBreakdown:
    """Consumer profit decomposed into utility, server cost, and vehicle payments.

    The decomposition is exact: profit = utility - server_cost - payments.
    """
    return ProfitBreakdown(*_profit_function(params)(c1, f_d, s))


def profit(params: EconParams, c1: float, f_d: float, s: float) -> float:
    return _profit_function(params)(c1, f_d, s)[3]


def validate_params(params: EconParams, c1: float, s: float) -> list[str]:
    """Advisory checks on the relative scales of c2 and c3; returns warnings, never raises.

    Guidance: c3 on the order of the per-server vehicle payment c1*V/s,
    c3 below the per-server computation spend c2*V/s, and c2 below 1/V.
    """
    warnings = []
    if s <= 0:
        return [f"server count {s:g} is not positive; scale guidance not applicable"]
    payment_per_server = c1 * params.V / s
    if params.c3 <= 0 or payment_per_server <= 0 or not (
        0.1 <= params.c3 / payment_per_server <= 10.0
    ):
        warnings.append(
            f"c3={params.c3:g} is not within one order of magnitude of the per-server "
            f"vehicle payment c1*V/s={payment_per_server:g}"
        )
    if not (params.c3 < params.c2 * params.V / s):
        warnings.append(
            f"c3={params.c3:g} is not below the per-server computation spend "
            f"c2*V/s={params.c2 * params.V / s:g}"
        )
    if not (params.c2 < 1.0 / params.V):
        warnings.append(f"c2={params.c2:g} is not below 1/V={1.0 / params.V:g}")
    return warnings
