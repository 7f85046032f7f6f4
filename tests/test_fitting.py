import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import leastsq

from vanetmarket import DEFAULT_CALIBRATION_FREQS, UtilityModel, UtilitySurface
from vanetmarket.fitting import FitDivergence, fit_least_squares
from vanetmarket.privacy import fit_per_server_decay
from vanetmarket.utility import eval_utility, fit_utility

FREQS = np.array(DEFAULT_CALIBRATION_FREQS)
# v * f_d products of a utility surface: vehicle counts times sampling rates
PRODUCTS = np.array([n * f for n in range(0, 201, 4) for f in (1.0, 0.5, 0.25, 1 / 6, 0.125, 0.1)])


def reference_fit(residuals, p0):
    """MINPACK's lmdif with the tolerances and budget fit_least_squares states."""
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    budget = 200 * (len(p0) + 1)
    params, ier = leastsq(residuals, p0, ftol=1e-10, xtol=1e-10, gtol=0.0, maxfev=budget)
    assert ier in (1, 2, 3, 4)
    return np.atleast_1d(params)


def assert_matches_reference(residuals, p0):
    fit = fit_least_squares(residuals, p0)
    want = reference_fit(residuals, p0)
    assert fit.converged
    got_ss = float(np.sum(residuals(fit.params) ** 2))
    want_ss = float(np.sum(residuals(want) ** 2))
    assert got_ss <= want_ss * (1.0 + 1e-9)
    np.testing.assert_allclose(fit.params, want, rtol=1e-6, atol=0.0)
    assert fit.residual_rms == pytest.approx(np.sqrt(got_ss / len(residuals(fit.params))), rel=1e-12)


class TestPlantedParameters:
    @pytest.mark.parametrize("k", [0.8, 5.0, 12.447, 40.0])
    def test_loss_decay(self, k):
        report = fit_per_server_decay([(f, 1.0 - np.exp(-k * f)) for f in FREQS])
        assert report.converged
        assert report.fitted_k == pytest.approx(k, rel=1e-9)
        assert report.residual_rms <= 1e-12

    @pytest.mark.parametrize("alpha, beta", [(0.99, 0.45), (0.4, 0.03), (1.0, 2.0)])
    def test_utility_saturation(self, alpha, beta):
        model = UtilityModel(alpha=alpha, beta=beta)
        points = [(v, f) for v in (1.0, 2.0, 5.0, 20.0) for f in (0.25, 1.0, 4.0)]
        surface = UtilitySurface(tuple((v, f, eval_utility(model, v, f)) for v, f in points))
        fit = fit_utility(surface)
        assert fit.converged and fit.valid
        assert fit.alpha == pytest.approx(alpha, rel=1e-9)
        assert fit.beta == pytest.approx(beta, rel=1e-9)


class TestAgainstMinpack:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        k=st.floats(0.5, 40.0),
        k0=st.floats(0.5, 40.0),
        noise=st.floats(1e-4, 0.03),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_loss(self, k, k0, noise, seed):
        rng = np.random.default_rng(seed)
        noisy = 1.0 - np.exp(-k * FREQS) + rng.normal(0.0, noise, FREQS.size)
        assert_matches_reference(lambda p: (1.0 - np.exp(-p[0] * FREQS)) - noisy, [k0])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.2, 1.0),
        beta=st.floats(0.02, 1.0),
        noise=st.floats(1e-4, 0.005),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_utility(self, alpha, beta, noise, seed):
        rng = np.random.default_rng(seed)
        noisy = alpha * (1.0 - np.exp(-beta * PRODUCTS)) + rng.normal(0.0, noise, PRODUCTS.size)
        p0 = [min(max(float(noisy.max()), 1e-3), 1.0), 1.0]
        assert_matches_reference(lambda p: p[0] * (1.0 - np.exp(-p[1] * PRODUCTS)) - noisy, p0)


class TestFailureModes:
    def test_exhausted_budget_is_not_converged(self):
        # the sum of squares keeps falling by a factor e^2 per step as p grows
        calls = []

        def residuals(p):
            calls.append(p[0])
            return np.exp(-p)

        fit = fit_least_squares(residuals, [0.0])
        assert fit.converged is False
        assert len(calls) <= 200 * 2
        assert np.isfinite(fit.residual_rms) and fit.params[0] > 100.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residuals_raise(self, bad):
        with pytest.raises(FitDivergence, match="non-finite"):
            fit_least_squares(lambda p: np.array([p[0] - 1.0, bad]), [0.5])

    def test_non_finite_jacobian_raises(self):
        # the forward-difference step from just below 1 crosses the log's domain
        with pytest.raises(FitDivergence, match="non-finite Jacobian"):
            fit_least_squares(lambda p: np.log(1.0 - p), [1.0 - 1e-9])

    def test_step_to_non_finite_residuals_is_rejected(self):
        # the first Gauss-Newton step from 10 lands at log(-3)
        fit = fit_least_squares(lambda p: np.log(p) - 1.0, [10.0])
        assert fit.converged
        assert fit.params[0] == pytest.approx(np.e, rel=1e-12)
