import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy import stats

from reference_impls import (
    expected_participants,
    helper_chain_terms,
    lattice_axes,
    lognormal_cdf,
    lognormal_pdf,
    per_server_cost,
    scalar_grid_oracle,
    scalar_lattice,
    total_loss,
)
from vanetmarket import (
    DEFAULT_BOUNDS,
    Bounds,
    EconParams,
    LossModel,
    UtilityModel,
    grid_oracle,
    profit,
    profit_terms,
    total_loss_raw,
    validate_params,
)
from vanetmarket.config import RunConfig
from vanetmarket.econ import (
    PARTICIPATION_MODELS,
    SERVER_COST_MODELS,
    _check_point,
    _profit_function,
    profit_slabs,
)

T1 = (3.57e-6, 7.31, 15.12)


class TestErfAndCdf:
    def test_lognormal_median(self):
        for mu in (-1.0, 0.0, 0.7):
            assert lognormal_cdf(math.exp(mu), mu, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_lognormal_at_sigma_quantile(self):
        # x = exp(mu + sigma) is the one-sigma quantile
        assert lognormal_cdf(math.exp(0.5), 0.0, 0.5) == pytest.approx(
            0.8413447460685429, abs=1e-15
        )

    def test_nonpositive_argument_has_zero_mass(self):
        assert lognormal_cdf(0.0, 0.0, 0.5) == 0.0
        assert lognormal_cdf(-3.0, 0.0, 0.5) == 0.0
        assert lognormal_pdf(0.0, 0.0, 0.5) == 0.0

    def test_cdf_limit(self):
        assert lognormal_cdf(1e12, 0.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = float(10 ** rng.uniform(-3, 3))
            mu = float(rng.uniform(-1, 1))
            sigma = float(rng.uniform(0.1, 2))
            ours = lognormal_pdf(x, mu, sigma)
            ref = stats.lognorm.pdf(x, s=sigma, scale=math.exp(mu))
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            lognormal_cdf(1.0, 0.0, 0.0)


class TestExpectedParticipants:
    params = EconParams()

    def test_median_ratio_gives_half_fleet(self):
        # pick (f_d, s) with unclamped loss, then c1 so that the ratio is exp(mu)=1
        f_d, s = 0.5, 2.0
        L = total_loss(self.params.loss, f_d, s)
        c1 = L / f_d
        v = expected_participants(self.params, c1, f_d, s)
        assert v == pytest.approx(2928 / 2, rel=1e-6)

    def test_zero_payment_zero_participation(self):
        assert expected_participants(self.params, 0.0, 1.0, 1.0) == 0.0

    def test_full_participation_at_reported_point(self):
        v = expected_participants(self.params, *T1)
        assert v == pytest.approx(2928.0, rel=1e-9)

    def test_clipped_to_fleet_size(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c1 = float(10 ** rng.uniform(-9, -1))
            f_d = float(rng.uniform(0.1, 60))
            s = float(rng.uniform(1, 100))
            v = expected_participants(self.params, c1, f_d, s)
            assert 0.0 <= v <= self.params.V

    def test_monotone_in_payment_cdf_mode(self):
        f_d, s = 2.0, 4.0
        c1s = np.geomspace(1e-9, 1e-3, 40)
        vs = [expected_participants(self.params, float(c), f_d, s) for c in c1s]
        assert all(a <= b + 1e-9 for a, b in zip(vs, vs[1:]))

    def test_pdf_mode_uses_density(self):
        params = EconParams(participation_model="pdf_as_written")
        f_d, s = 0.5, 2.0
        L = total_loss(params.loss, f_d, s)
        c1 = 0.8 * L / f_d
        v = expected_participants(params, c1, f_d, s)
        assert v == pytest.approx(params.V * lognormal_pdf(0.8, 0.0, 0.5), rel=1e-12)

    def test_pdf_mode_not_monotone(self):
        params = EconParams(participation_model="pdf_as_written")
        f_d, s = 0.5, 2.0
        L = total_loss(params.loss, f_d, s)
        mode_x = math.exp(params.mu - params.sigma**2)
        at_mode = expected_participants(params, mode_x * L / f_d, f_d, s)
        beyond = expected_participants(params, 100 * mode_x * L / f_d, f_d, s)
        assert beyond < at_mode


class TestCosts:
    params = EconParams()

    def test_upkeep_only(self):
        params = EconParams(c2=0.0, c3=1e-4)
        assert per_server_cost(params, 1e-6, 5.0, 3.0) == 1e-4

    def test_reference_value(self):
        assert per_server_cost(self.params, *T1) == pytest.approx(0.0015155873015873017, rel=1e-12)

    def test_doubling_servers_halves_compute_term(self):
        # clamped-loss regime: participation saturates at V for both server counts
        c1, f_d = 1e-4, 10.0
        base = per_server_cost(self.params, c1, f_d, 50.0) - self.params.c3
        doubled = per_server_cost(self.params, c1, f_d, 100.0) - self.params.c3
        v50 = expected_participants(self.params, c1, f_d, 50.0)
        v100 = expected_participants(self.params, c1, f_d, 100.0)
        assert v50 == v100 == self.params.V
        assert doubled == pytest.approx(base / 2, rel=1e-12)


class TestProfit:
    params = EconParams()

    def test_zero_payment_leaves_upkeep_loss(self):
        assert profit(self.params, 0.0, 1.0, 1.0) == pytest.approx(-1e-4, rel=1e-12)

    def test_reference_point_value(self):
        assert profit(self.params, *T1) == pytest.approx(0.9120732750984127, rel=1e-12)

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(5)
        for pm in ("cdf", "pdf_as_written"):
            for cm in ("per_server_as_written", "total_times_s"):
                params = self.params.with_modes(pm, cm)
                for _ in range(50):
                    c1 = float(10 ** rng.uniform(-9, -3))
                    f_d = float(rng.uniform(0.1, 60))
                    s = float(rng.uniform(1, 100))
                    terms = profit_terms(params, c1, f_d, s)
                    recon = terms.utility - terms.server_cost - terms.payments
                    assert abs(recon - terms.profit) <= 1e-12
                    assert profit(params, c1, f_d, s) == terms.profit

    def test_decreasing_in_payment_once_saturated(self):
        f_d, s = 10.0, 60.0  # clamped loss: participation pinned at V
        c1s = np.geomspace(1e-4, 1e-2, 10)
        assert expected_participants(self.params, float(c1s[0]), f_d, s) == self.params.V
        profits = [profit(self.params, float(c), f_d, s) for c in c1s]
        assert all(a > b for a, b in zip(profits, profits[1:]))

    def test_cost_mode_multiplies_by_s(self):
        written = self.params
        times_s = self.params.with_modes(cost="total_times_s")
        c1, f_d, s = 1e-5, 4.0, 7.0
        base = profit_terms(written, c1, f_d, s)
        scaled = profit_terms(times_s, c1, f_d, s)
        assert scaled.server_cost == pytest.approx(base.server_cost * s, rel=1e-12)
        assert scaled.utility == base.utility
        assert scaled.payments == base.payments

    def test_continuity_across_clamp_boundary(self):
        # find an s where the raw loss crosses eps_clamp at fixed f_d, then
        # check profit moves smoothly through it
        params = self.params
        f_d = 7.31
        lo, hi = 1.0, 100.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if total_loss_raw(params.loss, f_d, mid) > params.loss.eps_clamp:
                lo = mid
            else:
                hi = mid
        s_star = 0.5 * (lo + hi)
        eps = 1e-7
        left = profit(params, 3.57e-6, f_d, s_star - eps)
        right = profit(params, 3.57e-6, f_d, s_star + eps)
        assert abs(left - right) < 1e-4

    def test_interior_point_matches_mpmath(self):
        # Unclamped loss (raw 0.131) and participation strictly inside (0, V),
        # so the log-normal CDF is exercised. Inputs enter mpmath as their
        # exact binary values.
        params = self.params
        c1, f_d, s = 4e-3, 30.0, 50.0
        with mp.workdps(40):
            c1_, f_d_, s_ = mpf(c1), mpf(f_d), mpf(s)
            k, p_, q = (mpf(x) for x in (params.loss.k, params.loss.p, params.loss.q))
            loss = 1 - mp.exp(-k * f_d_ / s_) - mp.exp(-p_ * f_d_) - mp.exp(-q / s_)
            z = (mp.log(c1_ * f_d_ / loss) - params.mu) / params.sigma
            v = params.V * (1 + mp.erf(z / mp.sqrt(2))) / 2
            utility = params.utility.alpha * (1 - mp.exp(-params.utility.beta * v * f_d_))
            expected = utility - (params.c2 * v * f_d_ / s_ + params.c3) - c1_ * v * f_d_
            assert 0.1 < loss < 0.2 and 1000 < v < 1500
            assert profit(params, c1, f_d, s) == pytest.approx(float(expected), rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            profit(self.params, -1e-6, 1.0, 1.0)
        with pytest.raises(ValueError):
            profit(self.params, 1e-6, 0.0, 1.0)
        with pytest.raises(ValueError):
            profit(self.params, 1e-6, 1.0, 0.9)

    @pytest.mark.parametrize(
        "point, message",
        [
            ((math.nan, 7.31, 15.12), "c1 must be nonnegative, got nan"),
            ((3.57e-6, math.nan, 15.12), "f_d must be positive, got nan"),
            ((3.57e-6, 7.31, math.nan), "server count must be >= 1, got nan"),
        ],
        ids=["c1", "f_d", "s"],
    )
    def test_nan_input_raises(self, point, message):
        for evaluate in (profit, profit_terms):
            with pytest.raises(ValueError, match=message):
                evaluate(self.params, *point)


MARKETS = st.builds(
    EconParams,
    c2=st.floats(0.0, 1e-4),
    c3=st.floats(0.0, 1e-2),
    V=st.floats(1.0, 5000.0),
    sigma=st.floats(0.05, 3.0),
    participation_model=st.sampled_from(PARTICIPATION_MODELS),
    server_cost_model=st.sampled_from(SERVER_COST_MODELS),
)
PAYMENTS = st.one_of(st.just(0.0), st.floats(-10.0, -2.0).map(lambda e: 10.0**e))


class TestProfitTermsProperties:
    @pytest.mark.parametrize("clamped", [True, False], ids=["clamped-loss", "raw-loss"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        params=MARKETS, c1=PAYMENTS, f_d=st.floats(0.1, 60.0), s=st.floats(1.0, 100.0)
    )
    def test_terms_are_consistent(self, clamped, params, c1, f_d, s):
        assume((total_loss_raw(params.loss, f_d, s) <= params.loss.eps_clamp) == clamped)
        terms = profit_terms(params, c1, f_d, s)
        assert terms.profit == terms.utility - terms.server_cost - terms.payments
        server = per_server_cost(params, c1, f_d, s)
        if params.server_cost_model == "total_times_s":
            server *= s
        assert float(terms.server_cost).hex() == float(server).hex()
        assert 0.0 <= expected_participants(params, c1, f_d, s) <= params.V


@st.composite
def markets_near_threshold(draw, participation, cost):
    """(params, c1, f_d, s) with mu drawn within a few sigma of log(c1*f_d/loss).

    With the default mu the pdf participation underflows to 0 almost
    everywhere; centring mu on the threshold ratio reaches 0 < v < V in both
    participation modes, and the loss coefficients reach both sides of the clamp.
    """
    loss = LossModel(
        k=draw(st.floats(1.0, 20.0)), p=draw(st.floats(0.01, 1.0)), q=draw(st.floats(1.0, 20.0))
    )
    c1 = 10.0 ** draw(st.floats(-8.0, -1.0)) if draw(st.integers(0, 9)) else 0.0
    f_d = draw(st.floats(0.1, 60.0))
    s = draw(st.floats(1.0, 100.0))
    sigma = draw(st.floats(0.05, 3.0))
    ratio = c1 * f_d / total_loss(loss, f_d, s)
    mu = (math.log(ratio) if ratio > 0 else 0.0) + sigma * draw(st.floats(-6.0, 6.0))
    params = EconParams(
        c2=draw(st.floats(0.0, 1e-4)),
        c3=draw(st.floats(0.0, 1e-2)),
        V=draw(st.floats(1.0, 5000.0)),
        mu=mu,
        sigma=sigma,
        participation_model=participation,
        server_cost_model=cost,
        loss=loss,
    )
    return params, c1, f_d, s


class TestStraightLineProfit:
    @pytest.mark.parametrize("participation", PARTICIPATION_MODELS)
    @pytest.mark.parametrize("cost", SERVER_COST_MODELS)
    def test_bitwise_equal_to_helper_chain(self, participation, cost):
        interior = []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(market=markets_near_threshold(participation, cost))
        def check(market):
            params, c1, f_d, s = market
            v, want = helper_chain_terms(params, c1, f_d, s)
            got = profit_terms(params, c1, f_d, s)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert profit(params, c1, f_d, s).hex() == want[3].hex()
            interior.append(0.0 < v < params.V)

        check()
        # Enough draws land where the participation formula itself decides v.
        assert sum(interior) >= len(interior) // 2

    @pytest.mark.parametrize(
        "c1, f_d, s",
        [(-1e-6, 0.0, 0.5), (-1e-6, 1.0, 0.5), (1e-6, -1.0, 0.5), (1e-6, 0.0, 1.0), (1e-6, 1.0, 0.5)],
    )
    def test_raises_what_the_helper_chain_raises(self, c1, f_d, s):
        with pytest.raises(ValueError) as chain:
            helper_chain_terms(EconParams(), c1, f_d, s)
        for evaluate in (profit, profit_terms):
            with pytest.raises(ValueError) as fused:
                evaluate(EconParams(), c1, f_d, s)
            assert str(fused.value) == str(chain.value)

    @pytest.mark.parametrize(
        "c1, f_d, s, name",
        [
            (-1e-6, 0.0, 0.5, "c1"),
            (math.nan, math.nan, math.nan, "c1"),
            (1e-6, 0.0, 0.5, "f_d"),
            (0.0, math.nan, math.nan, "f_d"),
            (1e-6, 1.0, 0.5, "server count"),
            (0.0, 1.0, math.nan, "server count"),
        ],
    )
    def test_compiled_function_checks_the_point_in_order(self, c1, f_d, s, name):
        # One combined test, then _check_point's message: c1, then f_d, then s.
        with pytest.raises(ValueError) as check:
            _check_point(c1, f_d, s)
        assert str(check.value).startswith(f"{name} must be ")
        compiled = _profit_function(EconParams())
        with pytest.raises(ValueError, match=f"^{re.escape(str(check.value))}$"):
            compiled(c1, f_d, s)

    def test_compiled_function_names_the_pdf_underflow(self):
        params = EconParams(participation_model="pdf_as_written", sigma=1e-12)
        message = (
            "pdf participation: ratio * sigma underflows to 0 at (c1, f_d, s) = (5e-324, 1.0, 1.0)"
        )
        with pytest.raises(ZeroDivisionError, match=f"^{re.escape(message)}$"):
            _profit_function(params)(5e-324, 1.0, 1.0)


@st.composite
def lattices(draw):
    """(params, bounds, resolution) for the array profit.

    Some draws put `eps_clamp` on, or one ulp either side of, the raw loss of
    a lattice cell (the clamp edge). Others pin c1's lower bound to the least
    subnormal under an f_d box below 0.5, where c1 * f_d underflows to 0 on
    the whole first slab (the `ratio <= 0` branch, which must never reach log).
    """
    loss = LossModel(
        k=draw(st.floats(1.0, 20.0)), p=draw(st.floats(0.01, 1.0)), q=draw(st.floats(1.0, 20.0))
    )
    resolution = draw(st.integers(2, 6))
    if draw(st.integers(0, 3)) == 0:
        c1_box = (5e-324, 10.0 ** draw(st.floats(-12.0, -3.0)))
        f_lo = draw(st.floats(0.1, 0.2))
        f_d_box = (f_lo, f_lo + draw(st.floats(0.05, 0.25)))
    else:
        c1_lo = 10.0 ** draw(st.floats(-12.0, -4.0))
        c1_box = (c1_lo, c1_lo * 10.0 ** draw(st.floats(0.5, 6.0)))
        f_lo = draw(st.floats(0.1, 30.0))
        f_d_box = (f_lo, f_lo + draw(st.floats(0.5, 30.0)))
    s_lo = draw(st.floats(1.0, 50.0))
    bounds = Bounds(c1=c1_box, f_d=f_d_box, s=(s_lo, s_lo + draw(st.floats(0.5, 50.0))))
    c1s, f_ds, ss = lattice_axes(bounds, resolution)
    i, j, k = (draw(st.integers(0, resolution - 1)) for _ in range(3))
    raw = total_loss_raw(loss, f_ds[j], ss[k])
    if 0.0 < raw < 1.0 and draw(st.booleans()):
        edge = draw(st.sampled_from([raw, math.nextafter(raw, 0.0), math.nextafter(raw, 1.0)]))
        loss = replace(loss, eps_clamp=edge)
    # Centre mu on one cell's log ratio, so that 0 < v < V somewhere.
    sigma = draw(st.floats(0.05, 3.0))
    ratio = c1s[i] * f_ds[j] / total_loss(loss, f_ds[j], ss[k])
    mu = (math.log(ratio) if ratio > 0 else 0.0) + sigma * draw(st.floats(-6.0, 6.0))
    params = EconParams(
        c2=draw(st.floats(0.0, 1e-4)),
        c3=draw(st.floats(0.0, 1e-2)),
        V=draw(st.floats(1.0, 5000.0)),
        mu=mu,
        sigma=sigma,
        participation_model=draw(st.sampled_from(PARTICIPATION_MODELS)),
        server_cost_model=draw(st.sampled_from(SERVER_COST_MODELS)),
        loss=loss,
    )
    return params, bounds, resolution


class TestProfitSlabs:
    @pytest.mark.parametrize("participation", PARTICIPATION_MODELS)
    @pytest.mark.parametrize("cost", SERVER_COST_MODELS)
    def test_every_cell_is_profit_at_resolution_41(self, participation, cost):
        params = EconParams().with_modes(participation, cost)
        axes = lattice_axes(DEFAULT_BOUNDS, 41)
        got = np.array(list(profit_slabs(params, *axes)))
        assert got.shape == (41, 41, 41)
        assert got.tobytes() == scalar_lattice(params, *axes).tobytes()

    def test_bitwise_equal_to_profit_on_drawn_lattices(self):
        edges, zeros = [], []

        @settings(max_examples=250, deadline=None, derandomize=True)
        @given(lattice=lattices())
        def check(lattice):
            params, bounds, resolution = lattice
            axes = lattice_axes(bounds, resolution)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # whatever pytest's own filters say
                got = np.array(list(profit_slabs(params, *axes)))
            assert got.tobytes() == scalar_lattice(params, *axes).tobytes()
            assert grid_oracle(params, bounds, resolution) == scalar_grid_oracle(
                params, bounds, resolution
            )
            c1s, f_ds, ss = axes
            raws = [total_loss_raw(params.loss, f_d, s) for f_d in f_ds for s in ss]
            edges.append(params.loss.eps_clamp in raws)
            zeros.append(c1s[0] * f_ds[0] == 0.0)

        check()
        # Both hazards are reached, not just drawn for.
        assert sum(edges) >= 10 and sum(zeros) >= 10

    @pytest.mark.parametrize(
        "c1s, f_ds, ss",
        [
            ([-1e-6, 1e-6], [1.0, 2.0], [1.0, 2.0]),  # the first cell's c1
            ([1e-6, 2e-6], [0.0, 2.0], [0.5, 2.0]),  # f_d before s at the first cell
            ([1e-6, -1.0], [1.0, math.nan], [1.0, 0.5]),  # s in the first row first
            ([1e-6, math.nan], [1.0, 0.0], [1.0, 2.0]),  # then f_d
            ([1e-6, -1.0], [1.0, 2.0], [1.0, 2.0]),  # then c1
        ],
    )
    def test_raises_what_the_scalar_loop_raises_first(self, c1s, f_ds, ss):
        with pytest.raises(ValueError) as scalar:
            scalar_lattice(EconParams(), c1s, f_ds, ss)
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            list(profit_slabs(EconParams(), c1s, f_ds, ss))

    def test_pdf_zero_denominator_raises_as_profit_does(self):
        # ratio * sigma underflows to 0: Python's float division raises.
        params = EconParams(participation_model="pdf_as_written", sigma=1e-12)
        axes = ([1e-6, 5e-324], [1.0], [1.0])
        with pytest.raises(ZeroDivisionError) as scalar:
            scalar_lattice(params, *axes)
        with pytest.raises(ZeroDivisionError, match=re.escape(str(scalar.value))):
            list(profit_slabs(params, *axes))

    def test_pdf_zero_denominator_names_the_first_cell_in_loop_order(self):
        # Zero denominators at (1.0, 1.0) and later at (10.0, 5.0) and (10.0, 1.0).
        params = EconParams(participation_model="pdf_as_written", sigma=1e-12)
        axes = ([1e-320], [1.0, 10.0], [100.0, 5.0, 1.0])
        message = re.escape("at (c1, f_d, s) = (1e-320, 1.0, 1.0)")
        with pytest.raises(ZeroDivisionError, match=message):
            scalar_lattice(params, *axes)
        with pytest.raises(ZeroDivisionError, match=message):
            list(profit_slabs(params, *axes))


class TestValidateParams:
    def test_paper_scale_choices_pass(self):
        params = EconParams()
        warnings = validate_params(params, c1=3.57e-6, s=15.0)
        assert warnings == []

    def test_large_c2_warns_on_reciprocal_rule(self):
        params = EconParams(c2=1.0)
        warnings = validate_params(params, c1=3.57e-6, s=15.0)
        assert any("1/V" in w for w in warnings)

    def test_zero_upkeep_warns_on_order_of_magnitude(self):
        params = EconParams(c3=0.0)
        warnings = validate_params(params, c1=3.57e-6, s=15.0)
        assert any("order of magnitude" in w for w in warnings)

    def test_never_raises(self):
        params = EconParams(c2=0.0, c3=0.0)
        assert isinstance(validate_params(params, 0.0, 0.0), list)


class TestEconParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EconParams(V=0)
        with pytest.raises(ValueError):
            EconParams(sigma=0.0)
        with pytest.raises(ValueError):
            EconParams(c2=-1.0)
        with pytest.raises(ValueError):
            EconParams(participation_model="nope")
        with pytest.raises(ValueError):
            EconParams(server_cost_model="nope")

    @pytest.mark.parametrize("field", ["c1", "c2", "c3", "V", "mu", "sigma"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match="nan|nonnegative"):
            EconParams(**{field: math.nan})

    def test_json_round_trip(self):
        # EconParams travels as the `econ` block of the run config's JSON form
        params = EconParams(
            c1=2e-6,
            c2=3e-7,
            sigma=0.8,
            participation_model="pdf_as_written",
            loss=LossModel(k=10.0),
            utility=UtilityModel(alpha=0.8, beta=0.3),
        )
        blob = json.dumps(RunConfig(econ=params).to_json_dict())
        restored = RunConfig.from_json_dict(json.loads(blob)).econ
        assert restored == params

    def test_with_modes(self):
        params = EconParams()
        assert params.with_modes("pdf_as_written", None).participation_model == "pdf_as_written"
        assert params.with_modes(None, "total_times_s").server_cost_model == "total_times_s"
        assert params.with_modes(None, None) == params
