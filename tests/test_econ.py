import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy import stats

from vanetmarket import (
    EconParams,
    LossModel,
    UtilityModel,
    eval_utility,
    expected_participants,
    lognormal_cdf,
    lognormal_pdf,
    per_server_cost,
    profit,
    profit_terms,
    total_loss,
    total_loss_raw,
    validate_params,
)
from vanetmarket.config import RunConfig
from vanetmarket.econ import PARTICIPATION_MODELS, SERVER_COST_MODELS

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
            from vanetmarket import total_loss_raw

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


def helper_chain_terms(params, c1, f_d, s):
    """profit_terms composed from the public helpers: the bitwise reference for
    its straight-line evaluation."""
    v = expected_participants(params, c1, f_d, s)
    utility = eval_utility(params.utility, v, f_d)
    server = per_server_cost(params, c1, f_d, s)
    if params.server_cost_model == "total_times_s":
        server *= s
    payments = c1 * v * f_d
    return v, (utility, server, payments, utility - server - payments)


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
