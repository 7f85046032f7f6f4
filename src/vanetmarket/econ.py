"""Stackelberg market economics: vehicle participation supply curve, server
cost, and the data consumer's profit as a pure function of (c1, f_d, s)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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


def _profit_parts(
    params: EconParams, c1: float, f_d: float, s: float
) -> tuple[float, float, float, float]:
    """(utility, server cost, payments, profit) in one straight line.

    Every term is bitwise equal to composing the scalar helper chain of
    `tests/reference_impls.py` (clamped loss, log-normal participation,
    utility, per-server cost). The checks run c1, then f_d, then s, written
    as `not x >= bound` so that NaN fails them.
    """
    if not c1 >= 0:
        raise ValueError(f"c1 must be nonnegative, got {c1}")
    if not f_d > 0:
        raise ValueError(f"f_d must be positive, got {f_d}")
    if not s >= 1:
        raise ValueError(f"server count must be >= 1, got {s}")
    loss = params.loss
    raw = 1.0 - math.exp(-loss.k * f_d / s) - math.exp(-loss.p * f_d) - math.exp(-loss.q / s)
    ratio = c1 * f_d / min(1.0, max(loss.eps_clamp, raw))
    if ratio <= 0:
        share = 0.0
    elif params.participation_model == "cdf":
        share = 0.5 * (1.0 + math.erf((math.log(ratio) - params.mu) / params.sigma / _SQRT2))
    else:
        sigma = params.sigma
        z = (math.log(ratio) - params.mu) / sigma
        share = math.exp(-0.5 * z * z) / (ratio * sigma * _SQRT_2PI)
    V = params.V
    v = min(max(V * share, 0.0), V)
    utility_model = params.utility
    utility = utility_model.alpha * (1.0 - math.exp(-utility_model.beta * v * f_d))
    server = params.c2 * v * f_d / s + params.c3
    if params.server_cost_model == "total_times_s":
        server *= s
    payments = c1 * v * f_d
    return utility, server, payments, utility - server - payments


def profit_terms(params: EconParams, c1: float, f_d: float, s: float) -> ProfitBreakdown:
    """Consumer profit decomposed into utility, server cost, and vehicle payments.

    The decomposition is exact: profit = utility - server_cost - payments.
    """
    return ProfitBreakdown(*_profit_parts(params, c1, f_d, s))


def profit(params: EconParams, c1: float, f_d: float, s: float) -> float:
    return _profit_parts(params, c1, f_d, s)[3]


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
