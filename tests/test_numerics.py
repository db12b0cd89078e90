import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odenet.numerics import (
    NOISE_FLOOR_FACTOR,
    SlopeFit,
    _rk4_stepper,
    above_noise_floor,
    fit_loglog_slope,
    require_finite,
    spectral_norm,
)
from oracles import finite_difference_gradient


def svd_2x2_oracle(m):
    """Largest singular value of a 2x2 matrix in closed form.

    The squared singular values are the roots of
    lambda^2 - ||A||_F^2 lambda + det(A)^2 = 0.
    """
    f2 = float(np.sum(m * m))
    det = float(np.linalg.det(m))
    disc = max(f2 * f2 - 4.0 * det * det, 0.0)
    return np.sqrt((f2 + np.sqrt(disc)) / 2.0)


class TestSpectralNorm:
    def test_matches_closed_form_2x2(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            assert spectral_norm(m) == pytest.approx(svd_2x2_oracle(m), rel=1e-9)

    def test_identity_and_zero(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
        assert spectral_norm(np.zeros((2, 5))) == 0.0

    def test_rank_one(self):
        # ||u v^T|| = ||u|| ||v||
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 2.0, 2.0])
        assert spectral_norm(np.outer(u, v)) == pytest.approx(15.0, rel=1e-10)

    def test_rejects_vectors_and_nan(self):
        with pytest.raises(ValueError):
            spectral_norm(np.ones(3))
        with pytest.raises(ValueError):
            spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("m", [
        [[1.0, -1.0], [0.5, 0.5]],
        [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.9]],
    ])
    def test_top_direction_orthogonal_to_all_ones(self, m):
        # The top right singular vector is (1, -1, 0...)/sqrt(2): a
        # power iteration started from all-ones never sees it.
        assert spectral_norm(np.array(m)) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi),
           st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_matches_svd_on_rotations(self, a, b, s1, s2):
        def rot(angle):
            c, s = np.cos(angle), np.sin(angle)
            return np.array([[c, -s], [s, c]])

        m = rot(a) @ np.diag([s1, s2]) @ rot(b)
        expected = np.linalg.svd(m, compute_uv=False)[0]
        for exact in (expected, max(s1, s2)):
            assert spectral_norm(m) == pytest.approx(exact, rel=1e-12, abs=1e-14)

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_matches_svd_on_sign_permuted(self, data):
        """Signed permutations of rows and columns keep the singular values
        but move the top singular vectors away from the all-ones start."""
        n = data.draw(st.integers(2, 4))

        def vector(elements):
            return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))

        base = np.stack([vector(st.floats(0.0, 5.0)) for _ in range(n)])
        rows = data.draw(st.permutations(range(n)))
        cols = data.draw(st.permutations(range(n)))
        row_signs = vector(st.sampled_from([-1.0, 1.0]))
        col_signs = vector(st.sampled_from([-1.0, 1.0]))
        m = row_signs[:, None] * base[np.ix_(rows, cols)] * col_signs[None, :]
        expected = np.linalg.svd(base, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_transpose_invariance(self, seed):
        m = np.random.default_rng(seed).standard_normal((3, 4))
        assert spectral_norm(m.T) == pytest.approx(spectral_norm(m), rel=1e-9)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        bound = spectral_norm(a) * spectral_norm(b) + 1e-9
        assert spectral_norm(a @ b) <= bound

    def test_stack_returns_largest_over_matrices(self):
        # The first matrix's top direction is orthogonal to all-ones.
        stack = np.array([[[0.2, 0.0], [0.1, 0.3]], [[1.0, -1.0], [0.5, 0.5]]])
        assert spectral_norm(stack) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert spectral_norm(stack) == max(spectral_norm(m) for m in stack)
        for bad in (np.empty((0, 2, 2)), np.ones(3)):
            with pytest.raises(ValueError):
                spectral_norm(bad)


class TestRk4Step:
    LAM, H, X0 = -0.7, 0.3, 1.5

    def linear_field(self):
        stages = []

        def g(x, m):
            stages.append(m)
            return self.LAM * x

        return g, stages

    def test_stages_and_stability_polynomial(self):
        g, stages = self.linear_field()
        x = self.X0 + _rk4_stepper(self.H, ())(g, self.X0, m=4)
        z = self.LAM * self.H
        assert stages == [4, 5, 5, 6]
        expected = self.X0 * (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
        assert x == pytest.approx(expected, rel=1e-14)

    def test_given_first_stage_is_not_recomputed(self):
        g, stages = self.linear_field()
        increment = _rk4_stepper(self.H, ())
        x = self.X0 + increment(g, self.X0, k1=self.LAM * self.X0)
        assert stages == [1, 1, 2]
        g_full, _ = self.linear_field()
        assert x == self.X0 + increment(g_full, self.X0)


def rk4_formula(g, x, h, m=0):
    """One RK4 increment as the textbook formula, float coefficients and
    fresh temporaries throughout."""
    k1 = g(x, m)
    k2 = g(x + 0.5 * h * k1, m + 1)
    k3 = g(x + 0.5 * h * k2, m + 1)
    k4 = g(x + h * k3, m + 2)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestRk4Stepper:
    """The bound stepper on a single state, a batch and a layer stack."""

    SHAPES = [(4,), (3, 7), (16, 4, 4)]

    @staticmethod
    def field(shape):
        """A nonlinear field whose stages differ, with a per-stage twist."""
        weights = np.random.default_rng(math.prod(shape)).standard_normal(shape)
        return lambda x, m: np.sin(weights * x) + 0.1 * m * x

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("h", [0.3, 1.0 / 3.0, 1.0 / 4096])
    def test_increment_is_the_formula_bit_for_bit(self, shape, h):
        g = self.field(shape)
        x = np.random.default_rng(1).standard_normal(shape)
        increment = _rk4_stepper(h, shape)
        for m in (0, 4):
            got, want = increment(g, x, m), rk4_formula(g, x, h, m)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_first_increment_survives_a_second_call(self, shape):
        g = self.field(shape)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        increment = _rk4_stepper(0.25, shape)
        first = increment(g, x)
        kept = first.copy()
        second = increment(g, y)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()
        assert second.tobytes() == rk4_formula(g, y, 0.25).tobytes()


class TestFitLoglogSlope:
    @pytest.mark.parametrize("k", [-3.0, -2.0, -1.0, 0.0])
    def test_recovers_exact_power_law(self, k):
        pts = [(n, 2.7 * n**k) for n in (8, 16, 32, 64, 128)]
        fit = fit_loglog_slope(pts)
        assert fit.slope == pytest.approx(k, abs=1e-10)
        assert fit.intercept == pytest.approx(np.log(2.7), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.points_used == 5

    def test_noisy_points_lower_r_squared(self):
        rng = np.random.default_rng(3)
        pts = [(n, n**-1.0 * np.exp(rng.normal(0.0, 0.5))) for n in (4, 8, 16, 32, 64)]
        fit = fit_loglog_slope(pts)
        assert fit.r_squared < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(4, 1.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(4, 1.0), (4, 0.5)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(8, 1.0), (4, 0.5)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(4, 1.0), (8, 0.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(0.5, 1.0), (8, 0.1)])

    @pytest.mark.parametrize("error", [np.inf, np.nan])
    def test_rejects_non_finite_errors(self, error):
        """A non-finite error fails the error check, not np.polyfit or SlopeFit."""
        with pytest.raises(ValueError, match="positive and finite"):
            fit_loglog_slope([(4, 1.0), (8, error), (16, 0.25)])

    def test_slopefit_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SlopeFit(-1.0, 0.0, 1.5, 4)
        with pytest.raises(ValueError):
            SlopeFit(-1.0, 0.0, 0.9, 1)


class TestFiniteDifferenceGradient:
    def test_cubic_polynomial(self):
        # d/dx (x^3 + 2y) = 3x^2, d/dy = 2; the central-difference
        # error on x^3 is exactly eps^2.
        loss = lambda p: p[0] ** 3 + 2.0 * p[1]
        grad = finite_difference_gradient(loss, np.array([1.5, -2.0]), 1e-5)
        assert grad == pytest.approx([6.75, 2.0], abs=1e-8)

    def test_two_layer_chain_hand_value(self):
        """End-to-end chain x -> x(1 + t0/2)(1 + t1/2) from x0 = 1.

        dL/dt_i at t = (1, 1) is (1/2)(1 + 1/2) = 0.75 for both layers.
        """

        def loss(theta):
            x = 1.0
            for t in theta:
                x = x + 0.5 * t * x
            return x

        grad = finite_difference_gradient(loss, np.ones(2), 1e-6)
        assert grad == pytest.approx([0.75, 0.75], rel=1e-8)

    def test_rejects_bad_eps_and_nonfinite_loss(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda p: 0.0, np.ones(2), 0.0)
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda p: np.inf, np.ones(2), 1e-6)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_quadratic_form_gradient(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        x = rng.standard_normal(4)
        grad = finite_difference_gradient(lambda p: 0.5 * p @ a @ p, x, 1e-5)
        assert np.allclose(grad, a @ x, rtol=1e-6, atol=1e-7)


class TestAboveNoiseFloor:
    def test_threshold_location(self):
        eps = np.finfo(float).eps
        floor = NOISE_FLOOR_FACTOR * eps * 2.0
        mask = above_noise_floor([floor * 10, floor, floor * 0.9, 0.0], scale=2.0)
        assert mask.tolist() == [True, True, False, False]

    def test_floor_is_a_hundred_epsilons_of_scale(self):
        """50 eps * scale is rounding noise; 200 eps * scale is not."""
        eps = np.finfo(float).eps
        mask = above_noise_floor([50 * eps * 3.0, 200 * eps * 3.0], scale=3.0)
        assert mask.tolist() == [False, True]

    def test_zero_scale_keeps_positive_errors(self):
        # Degenerate scale must not declare everything noise.
        assert above_noise_floor([1e-300], scale=0.0).tolist() == [True]


def test_require_finite():
    out = require_finite([1, 2, 3], "xs")
    assert out.dtype == np.float64
    with pytest.raises(ValueError, match="xs"):
        require_finite([1.0, np.nan], "xs")
    with pytest.raises(ValueError):
        require_finite([np.inf])
