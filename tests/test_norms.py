import numpy as np
import pytest

from sigmaevo.errors import ParameterError
from sigmaevo.norms import (check_embedding, check_fractional_powers,
                            check_gagliardo_nirenberg, data_norm, gn_theta,
                            lebesgue_norm, sobolev_norm)
from sigmaevo.spectral import GridSpec, mode_coefficients, synthesize


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestLebesgue:
    def test_constant_on_unit_torus(self):
        g = GridSpec(1, 256, 1.0)
        assert lebesgue_norm(np.ones(g.shape), 2, g) == pytest.approx(np.sqrt(2), rel=1e-14)

    def test_zero_field(self):
        g = GridSpec(1, 64, 1.0)
        for p in (1, 2, 3.5, np.inf):
            assert lebesgue_norm(np.zeros(g.shape), p, g) == 0.0

    def test_gaussian_l1_closed_form(self):
        g = GridSpec(1, 1024, 30.0)
        u = np.exp(-g.axis() ** 2)
        assert abs(lebesgue_norm(u, 1, g) - np.sqrt(np.pi)) < 1e-8

    def test_sup_norm(self):
        g = GridSpec(1, 64, 1.0)
        u = np.zeros(g.shape)
        u[10] = -3.5
        assert lebesgue_norm(u, np.inf, g) == 3.5

    def test_p_below_one_rejected(self):
        g = GridSpec(1, 64, 1.0)
        with pytest.raises(ParameterError):
            lebesgue_norm(np.ones(g.shape), 0.5, g)

    def test_negative_sobolev_order_rejected(self):
        g = GridSpec(1, 64, 1.0)
        with pytest.raises(ParameterError, match="s must be nonnegative"):
            sobolev_norm(np.ones(g.shape), -0.5, g)

    def test_hoelder_monotonicity_with_volume_factor(self, rng):
        # ||u||_p <= vol^(1/p - 1/q) ||u||_q for p <= q on fixed torus volume
        g = GridSpec(1, 128, 2.0)
        vol = 2 * g.L
        coeffs = mode_coefficients(12, 1, rng)
        u = synthesize(coeffs, g)
        for p, q in [(1, 2), (2, 4), (1.5, 3), (2, np.inf)]:
            lhs = lebesgue_norm(u, p, g)
            qnorm = lebesgue_norm(u, q, g)
            factor = vol ** (1 / p - (0 if q == np.inf else 1 / q))
            assert lhs <= factor * qnorm * (1 + 1e-12)


class TestSobolev:
    def test_plancherel_at_zero(self, rng):
        g = GridSpec(1, 256, 3.0)
        u = synthesize(mode_coefficients(20, 1, rng), g)
        assert sobolev_norm(u, 0, g) == pytest.approx(lebesgue_norm(u, 2, g), rel=1e-10)

    def test_cosine_first_order(self):
        g = GridSpec(1, 128, np.pi)
        u = np.cos(g.axis())
        assert sobolev_norm(u, 1, g) == pytest.approx(lebesgue_norm(u, 2, g), rel=1e-12)

    def test_cosine_closed_forms(self):
        g = GridSpec(1, 128, np.pi)
        u = np.cos(g.axis())
        assert lebesgue_norm(u, 2, g) == pytest.approx(np.sqrt(np.pi))
        assert lebesgue_norm(u, np.inf, g) == pytest.approx(1.0)
        assert sobolev_norm(u, 1, g) == pytest.approx(np.sqrt(np.pi))

    def test_second_order_matches_stencil_laplacian(self, rng):
        # independent oracle: 2nd-difference Laplacian at fine resolution
        g = GridSpec(1, 4096, np.pi)
        u = synthesize(mode_coefficients(6, 1, rng), g)
        lap = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / g.dx ** 2
        assert sobolev_norm(u, 2, g) == pytest.approx(lebesgue_norm(lap, 2, g), rel=1e-5)


class TestDataNorm:
    def test_zero_data(self):
        g = GridSpec(1, 64, 1.0)
        z = np.zeros(g.shape)
        assert data_norm(z, z, 1, 0, g) == 0.0

    @pytest.mark.parametrize("m,r,match", [(0.5, 0, "m must lie in"), (2.0, 0, "m must lie in"),
                                           (np.nan, 0, "m must lie in"),
                                           (1, -1.0, "r must be nonnegative")])
    def test_exponents_checked(self, m, r, match):
        g = GridSpec(1, 64, 1.0)
        z = np.zeros(g.shape)
        with pytest.raises(ParameterError, match=match):
            data_norm(z, z, m, r, g)

    def test_cosine_closed_form(self):
        g = GridSpec(1, 2048, np.pi)
        u = np.cos(g.axis())
        val = data_norm(u, np.zeros_like(u), 1, 0, g)
        # |cos| has kinks: Riemann quadrature is second order there
        assert val == pytest.approx(4 + 2 * np.sqrt(np.pi), abs=1e-4)

    def test_gaussian_pair_against_quadrature(self):
        from scipy.integrate import quad
        g = GridSpec(1, 2048, 25.0)
        x = g.axis()
        u0 = np.exp(-x ** 2)
        u1 = 0.5 * np.exp(-((x - 1) / 2) ** 2)
        val = data_norm(u0, u1, 1.5, 0, g)
        n15_u0 = quad(lambda s: np.exp(-s * s) ** 1.5, -25, 25)[0] ** (1 / 1.5)
        n2_u0 = np.sqrt(quad(lambda s: np.exp(-2 * s * s), -25, 25)[0])
        n15_u1 = quad(lambda s: (0.5 * np.exp(-((s - 1) / 2) ** 2)) ** 1.5, -25, 25)[0] ** (1 / 1.5)
        n2_u1 = np.sqrt(quad(lambda s: (0.5 * np.exp(-((s - 1) / 2) ** 2)) ** 2, -25, 25)[0])
        expected = n15_u0 + 2 * n2_u0 + n15_u1 + n2_u1   # Hdot^0 doubles the L2 term
        assert val == pytest.approx(expected, rel=1e-8)


class TestGagliardoNirenberg:
    def test_theta_formula(self):
        assert gn_theta(2, 2, 2, 0.5, 1.0, 1) == pytest.approx(0.5)

    def test_theta_zero_is_exact_identity(self, rng):
        g = GridSpec(1, 128, 1.0)
        u = synthesize(mode_coefficients(10, 1, rng), g)
        assert check_gagliardo_nirenberg(u, 2, 2, 2, 0.0, 1.0, g) == pytest.approx(1.0, rel=1e-12)

    def test_interpolation_bound_on_hilbert_scale(self, rng):
        # with p0 = 2 the ratio is a literal spectral Hoelder bound: <= 1
        g = GridSpec(1, 256, 2.0)
        for seed in range(20):
            u = synthesize(mode_coefficients(24, 1, np.random.default_rng(seed)), g)
            assert check_gagliardo_nirenberg(u, 2, 2, 2, 0.5, 1.0, g) <= 1 + 1e-12

    def test_theta_near_one_ratio_near_one(self, rng):
        g = GridSpec(1, 256, 2.0)
        u = synthesize(mode_coefficients(24, 1, rng), g)
        r = check_gagliardo_nirenberg(u, 2, 2, 2, 1.0 - 1e-9, 1.0, g)
        assert r == pytest.approx(1.0, rel=1e-6)

    def test_zero_field_ratio_zero(self):
        g = GridSpec(1, 64, 1.0)
        assert check_gagliardo_nirenberg(np.zeros(g.shape), 2, 2, 2, 0.5, 1.0, g) == 0.0

    @pytest.mark.parametrize("p,p0,p1", [(1.0, 2, 2), (2, np.inf, 2), (2, 2, np.nan)])
    def test_exponents_in_open_window(self, p, p0, p1):
        g = GridSpec(1, 64, 1.0)
        with pytest.raises(ParameterError, match="must lie in \\(1, inf\\)"):
            check_gagliardo_nirenberg(np.ones(g.shape), p, p0, p1, 0.5, 1.0, g)

    def test_theta_outside_its_window_rejected(self):
        # p0 = 100 in 1D with sigma_gn = 0.4: both terms of theta are
        # negative and theta = 0.39 / 0.09 exceeds 1
        g = GridSpec(1, 64, 1.0)
        assert gn_theta(2, 100, 2, 0.1, 0.4, 1) > 1.0
        with pytest.raises(ParameterError, match="theta = .* outside"):
            check_gagliardo_nirenberg(np.ones(g.shape), 2, 100, 2, 0.1, 0.4, g)

    def test_non_hilbert_case_rejected(self):
        g = GridSpec(1, 64, 1.0)
        u = np.ones(g.shape)
        with pytest.raises(ParameterError):
            check_gagliardo_nirenberg(u, 3, 2, 2, 0.5, 1.0, g)

    def test_s_window_checked(self):
        g = GridSpec(1, 64, 1.0)
        u = np.ones(g.shape)
        with pytest.raises(ParameterError):
            check_gagliardo_nirenberg(u, 2, 2, 2, 1.5, 1.0, g)


class TestEmbedding:
    def test_zero_field(self):
        g = GridSpec(1, 64, 1.0)
        assert check_embedding(np.zeros(g.shape), 0.25, 1.0, g) == 0.0

    def test_single_mode_closed_form(self):
        g = GridSpec(1, 256, np.pi)
        u = np.cos(g.axis())
        r = check_embedding(u, 0.25, 1.0, g)
        assert r == pytest.approx(1.0 / (2 * np.sqrt(np.pi)), rel=1e-12)

    def test_ordering_enforced(self):
        g = GridSpec(1, 64, 1.0)
        with pytest.raises(ParameterError):
            check_embedding(np.ones(g.shape), 0.6, 1.0, g)


class TestFractionalPowers:
    def test_constant_field_ratio_zero(self):
        g = GridSpec(1, 64, 1.0)
        assert check_fractional_powers(np.full(g.shape, 2.0), 3, 0.8, g) == 0.0

    def test_small_single_mode_bounded(self):
        g = GridSpec(1, 256, np.pi)
        u = 0.01 * np.cos(g.axis())
        r = check_fractional_powers(u, 3, 0.9, g)
        assert 0 < r < 10

    def test_s_window(self):
        g = GridSpec(1, 64, 1.0)
        with pytest.raises(ParameterError):
            check_fractional_powers(np.ones(g.shape), 2.5, 0.3, g)

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_p_above_one(self, p):
        g = GridSpec(1, 64, 1.0)
        with pytest.raises(ParameterError, match="p must exceed 1"):
            check_fractional_powers(np.ones(g.shape), p, 0.8, g)


class TestRefinementStability:
    def test_all_checks_stable_under_refinement(self):
        # maxima over a field family must not grow by 1.5x under 2x and 4x
        # refinement of the same continuum fields
        grids = [GridSpec(1, 128, 1.0), GridSpec(1, 256, 1.0), GridSpec(1, 512, 1.0)]
        maxima = np.zeros((3, 3))
        for seed in range(30):
            coeffs = mode_coefficients(24, 1, np.random.default_rng(seed))
            for gi, g in enumerate(grids):
                u = synthesize(coeffs, g)
                maxima[gi, 0] = max(maxima[gi, 0],
                                    check_gagliardo_nirenberg(u, 2, 2, 2, 0.5, 1.0, g))
                maxima[gi, 1] = max(maxima[gi, 1], check_embedding(u, 0.25, 1.0, g))
                maxima[gi, 2] = max(maxima[gi, 2],
                                    check_fractional_powers(u, 2.5, 1.1, g))
        for step in (1, 2):
            growth = maxima[step] / maxima[step - 1]
            assert np.all(growth < 1.5), growth
