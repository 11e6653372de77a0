import numpy as np
import pytest

from rankatlas.bilinear import (
    BilinearMap,
    OptBudget,
    as_tensor,
    convolve,
    from_tensor,
    hypercomplex_mult,
    nonsingularity_margin,
    restrict,
)
from rankatlas.pencil import MarginBudget, afcr_margin, contract_pencil


def cayley_dickson(x, y):
    # oracle: one pair at a time, (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c))
    if len(x) == 1:
        return x * y
    h = len(x) // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]

    def conj(z):
        return np.concatenate([z[:1], -z[1:]])

    return np.concatenate([
        cayley_dickson(a, c) - cayley_dickson(conj(d), b),
        cayley_dickson(d, a) + cayley_dickson(b, conj(c)),
    ])


class TestHypercomplex:
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_coefficients_match_per_pair_products(self, d):
        eye = np.eye(d)
        expected = np.zeros((d, d, d))
        for i in range(d):
            for j in range(d):
                expected[:, i, j] = cayley_dickson(eye[i], eye[j])
        coeffs = hypercomplex_mult(d).coeffs
        assert np.array_equal(coeffs, expected)
        assert np.array_equal(np.signbit(coeffs), np.signbit(expected))

    def test_scalar(self):
        f = hypercomplex_mult(1)
        assert f(np.array([3.0]), np.array([4.0])) == pytest.approx([12.0])
        T = as_tensor(f)
        assert T.dims == (1, 1, 1)
        assert T.slice(0)[0, 0] == 1.0

    def test_complex_unit_times_i(self):
        f = hypercomplex_mult(2)
        out = f(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_norm_identity(self, d):
        f = hypercomplex_mult(d)
        rng = np.random.default_rng(d)
        for _ in range(300):
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            err = abs(np.linalg.norm(f(x, y))
                      - np.linalg.norm(x) * np.linalg.norm(y))
            assert err < 1e-12

    def test_invalid_dimension(self):
        for d in (0, 3, 16):
            with pytest.raises(ValueError):
                hypercomplex_mult(d)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_bilinearity(self, d):
        f = hypercomplex_mult(d)
        rng = np.random.default_rng(d + 10)
        for _ in range(20):
            x, xp, y = (rng.standard_normal(d) for _ in range(3))
            al = rng.standard_normal()
            left = f(al * x + xp, y) - al * f(x, y) - f(xp, y)
            right = f(y, al * x + xp) - al * f(y, x) - f(y, xp)
            assert np.max(np.abs(left)) < 1e-12
            assert np.max(np.abs(right)) < 1e-12


class TestConvolve:
    def test_polynomial_multiplication(self):
        f = convolve(hypercomplex_mult(1), 2, 2)
        assert (f.a, f.b, f.c) == (2, 2, 3)
        a = np.array([2.0, 3.0])
        b = np.array([5.0, 7.0])
        # (a1 b1, a1 b2 + a2 b1, a2 b2)
        assert np.allclose(f(a, b), [10.0, 29.0, 21.0])

    def test_dims_formula(self):
        g = hypercomplex_mult(2)
        f = convolve(g, 2, 3)
        assert (f.a, f.b, f.c) == (4, 6, 8)

    def test_sampled_nonsingularity(self):
        f = convolve(hypercomplex_mult(2), 2, 2)
        rng = np.random.default_rng(0)
        worst = np.inf
        for _ in range(1000):
            x = rng.standard_normal(f.a)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(f.b)
            y /= np.linalg.norm(y)
            worst = min(worst, np.linalg.norm(f(x, y)))
        assert worst > 0

    def test_validates_counts(self):
        with pytest.raises(ValueError):
            convolve(hypercomplex_mult(1), 0, 2)


class TestRestrict:
    def test_identity_restriction(self):
        q = hypercomplex_mult(4)
        assert restrict(q, 4, 4) == q

    def test_complex_to_column(self):
        f = restrict(hypercomplex_mult(2), 1, 2)
        assert (f.a, f.b, f.c) == (1, 2, 2)
        out = f(np.array([2.0]), np.array([3.0, 5.0]))
        assert np.allclose(out, [6.0, 10.0])

    def test_restricted_quaternion_margin(self):
        f = restrict(hypercomplex_mult(4), 3, 3)
        margin = nonsingularity_margin(f, OptBudget(restarts=20, iters=100),
                                       seed=0)
        assert margin > 0.1

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            restrict(hypercomplex_mult(2), 3, 1)
        with pytest.raises(ValueError):
            restrict(hypercomplex_mult(2), 0, 1)


class TestTensorCorrespondence:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        f = BilinearMap(rng.standard_normal((3, 4, 5)))
        assert from_tensor(as_tensor(f)) == f

    def test_tensor_slices_act_on_first_argument(self):
        # slice j of the tensor is the matrix x |-> f(x, e_j)
        rng = np.random.default_rng(2)
        f = BilinearMap(rng.standard_normal((3, 4, 2)))
        T = as_tensor(f)
        x = rng.standard_normal(4)
        for j in range(2):
            assert np.allclose(T.slice(j) @ x, f(x, np.eye(2)[j]))

    def test_quaternion_tensor_pencil_is_isometric(self):
        # every unit combination of slices has all singular values 1
        T = as_tensor(hypercomplex_mult(4))
        rng = np.random.default_rng(3)
        for _ in range(10):
            y = rng.standard_normal(4)
            y /= np.linalg.norm(y)
            s = np.linalg.svd(contract_pencil(y, T), compute_uv=False)
            assert np.max(np.abs(s - 1)) < 1e-12

    def test_json_roundtrip(self):
        f = hypercomplex_mult(4)
        assert BilinearMap.from_json(f.to_json()) == f

    @pytest.mark.parametrize("coeffs", [np.full((2, 2, 2), np.nan),
                                        np.full((2, 2, 2), np.inf),
                                        np.zeros((0, 2, 2)),
                                        np.zeros((2, 2, 0))])
    def test_coefficients_checked_as_a_tensor(self, coeffs):
        with pytest.raises(ValueError):
            BilinearMap(coeffs)


class TestMargin:
    def test_quaternion(self):
        margin = nonsingularity_margin(hypercomplex_mult(4),
                                       OptBudget(restarts=5, iters=50), seed=0)
        assert margin == pytest.approx(1.0, abs=1e-8)

    def test_zero_map(self):
        f = BilinearMap(np.zeros((2, 2, 2)))
        assert nonsingularity_margin(f, OptBudget(restarts=2, iters=5),
                                     seed=0) == 0.0

    def test_singular_by_construction(self):
        coeffs = np.zeros((1, 2, 2))
        coeffs[0, 0, 0] = 1.0  # f(x, y) = x1 y1 kills x = e2
        f = BilinearMap(coeffs)
        margin = nonsingularity_margin(f, OptBudget(restarts=40, iters=200),
                                       seed=0)
        assert margin < 1e-7

    def test_convolution_is_pencil_margin(self):
        # min over unit x of |f(x, y)| is sigma_a of the pencil at y
        f = convolve(hypercomplex_mult(4), 2, 2)
        margin = nonsingularity_margin(f)
        assert margin == pytest.approx(1 / np.sqrt(2), abs=1e-8)
        assert margin == pytest.approx(afcr_margin(as_tensor(f)), abs=1e-8)

    def test_budget_is_margin_budget(self):
        assert OptBudget is MarginBudget

    def test_zero_restarts_rejected(self):
        with pytest.raises(ValueError):
            OptBudget(restarts=0)

    def test_input_shapes_validated(self):
        f = hypercomplex_mult(2)
        with pytest.raises(ValueError):
            f(np.zeros(3), np.zeros(2))
