import numpy as np
import pytest
from fractions import Fraction

from rankatlas.pencil import (
    MarginBudget,
    ProblemDims,
    Tensor3,
    afcr_margin,
    afcr_margin_info,
    contract_pencil,
    corner_minor_jacobian,
    corner_root_count,
    corner_minors,
    flatten,
    is_afcr,
    kernel_vector_psi,
    minor,
    pluecker_residual,
    rank_drop_search,
)
from rankatlas import pencil
from rankatlas.bilinear import as_tensor, hypercomplex_mult, restrict
from rankatlas.certify import iota_tensor, sigma


class TestTensor3:
    def test_layout_and_slices(self):
        T = Tensor3.from_slices([np.eye(2), 2 * np.eye(2)])
        assert T.dims == (2, 2, 2)
        assert np.array_equal(T.slice(1), 2 * np.eye(2))

    def test_flat_roundtrip(self):
        rng = np.random.default_rng(0)
        T = Tensor3(rng.standard_normal((3, 4, 2)))
        again = Tensor3.from_flat(T.d1, T.d2, T.d3, T.data.ravel())
        assert again == T

    def test_flat_length_checked(self):
        with pytest.raises(ValueError):
            Tensor3.from_flat(2, 2, 2, [1.0] * 7)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(1)
        T = Tensor3(rng.standard_normal((2, 4, 3)))
        assert Tensor3.from_json(T.to_json()) == T

    @pytest.mark.parametrize("text", ["[1]", '"x"', "3"])
    def test_json_not_an_object(self, text):
        with pytest.raises(ValueError, match="JSON object"):
            Tensor3.from_json(text)

    @pytest.mark.parametrize("text,field", [('{"dims": [1, 1, 1]}', "data"),
                                            ('{"data": [1.0]}', "dims")])
    def test_json_missing_field_named(self, text, field):
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            Tensor3.from_json(text)

    def test_text_roundtrip(self):
        rng = np.random.default_rng(2)
        T = Tensor3(rng.standard_normal((3, 2, 5)))
        assert Tensor3.from_text(T.to_text()) == T

    def test_immutable(self):
        T = Tensor3(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            T.data[0, 0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        data = np.ones((2, 3, 3))
        data[1, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Tensor3(data)

    @pytest.mark.parametrize("header", ["0 3 3", "3 0 3", "3 3 0", "-1 3 3"])
    def test_non_positive_dims_rejected(self, header):
        with pytest.raises(ValueError, match="positive"):
            Tensor3.from_text(header)
        with pytest.raises(ValueError, match="positive"):
            Tensor3(np.zeros([max(int(d), 0) for d in header.split()]))


class TestProblemDims:
    def test_derived(self):
        d = ProblemDims(m=3, n=3, p=5)
        assert (d.u, d.l, d.v) == (4, 1, 2)
        d = ProblemDims(m=4, n=4, p=12)
        assert (d.u, d.l, d.v) == (4, 0, 1)

    def test_window_invariants(self):
        for m in range(3, 6):
            for n in range(m, 7):
                for p in range((m - 1) * (n - 1) + 1, (m - 1) * n + 1):
                    d = ProblemDims(m=m, n=n, p=p)
                    assert 0 <= d.l <= m - 2
                    assert d.v < m
                    assert d.u == d.n + d.l

    def test_rejects_bad_frames(self):
        with pytest.raises(ValueError):
            ProblemDims(m=2, n=3, p=4)
        with pytest.raises(ValueError):
            ProblemDims(m=4, n=3, p=7)
        with pytest.raises(ValueError):
            ProblemDims(m=3, n=3, p=7)  # above (m-1)n
        with pytest.raises(ValueError):
            ProblemDims(m=3, n=3, p=4)  # below (m-1)(n-1)+1


class TestFlatten:
    def test_modes(self):
        T = Tensor3.from_slices([np.eye(2), np.eye(2)])
        assert flatten(T, 1).shape == (2, 4)
        assert np.array_equal(flatten(T, 1), np.hstack([np.eye(2), np.eye(2)]))
        assert flatten(T, 2).shape == (4, 2)
        assert np.array_equal(flatten(T, 2), np.vstack([np.eye(2), np.eye(2)]))

    def test_single_slice(self):
        A = np.arange(6.0).reshape(2, 3)
        T = Tensor3.from_slices([A])
        assert np.array_equal(flatten(T, 1), A)
        assert np.array_equal(flatten(T, 2), A)

    def test_invalid_mode(self):
        T = Tensor3(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            flatten(T, 3)


class TestContractPencil:
    def test_basis_vectors(self):
        rng = np.random.default_rng(3)
        Y = Tensor3(rng.standard_normal((3, 4, 2)))
        for k in range(3):
            assert np.array_equal(contract_pencil(np.eye(3)[k], Y), Y.slice(k))

    def test_zero(self):
        Y = Tensor3(np.ones((2, 3, 3)))
        assert np.array_equal(contract_pencil(np.zeros(2), Y), np.zeros((3, 3)))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        Y = Tensor3(rng.standard_normal((3, 5, 4)))
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        lhs = contract_pencil(a + b, Y)
        rhs = contract_pencil(a, Y) + contract_pencil(b, Y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_length_mismatch(self):
        Y = Tensor3(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            contract_pencil(np.zeros(3), Y)


class TestMinor:
    def test_identity(self):
        assert minor(np.eye(3), [1, 2], [1, 2]) == pytest.approx(1.0)

    def test_two_by_two(self):
        assert minor(np.array([[1.0, 2.0], [3.0, 4.0]]), [1, 2], [1, 2]) \
            == pytest.approx(-2.0)

    def test_exact_integer(self):
        M = np.array([[2, 3, 5], [7, 11, 13], [17, 19, 23]], dtype=object)
        val = minor(M, [1, 2, 3], [1, 2, 3])
        assert isinstance(val, int)
        assert val == -78

    def test_order_and_repeats(self):
        M = np.array([[1, 2], [3, 4]], dtype=object)
        assert minor(M, [2, 1], [1, 2]) == 2       # row swap flips the sign
        assert minor(M, [1, 1], [1, 2]) == 0       # repeated row

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            minor(np.eye(3), [1, 2], [1])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            minor(np.eye(2), [1, 3], [1, 2])


class TestPluecker:
    def test_exact_on_integer_matrix(self):
        rng = np.random.default_rng(5)
        M = rng.integers(-9, 9, size=(4, 3))
        res = pluecker_residual(M, a_rows=[1], b_rows=[4], c_rows=[1, 2, 3, 4])
        assert res == 0

    def test_gaussian_small(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            M = rng.standard_normal((5, 3))
            res = pluecker_residual(M, a_rows=[2], b_rows=[5],
                                    c_rows=[1, 2, 3, 4])
            assert res < 1e-10

    def test_duplicate_c_indices_cancel(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 3))
        res = pluecker_residual(M, a_rows=[1], b_rows=[2],
                                c_rows=[3, 3, 4, 4])
        assert res < 1e-10

    def test_all_shapes(self):
        rng = np.random.default_rng(8)
        cases = {  # (u, n) -> (a_rows, b_rows, c_rows)
            (4, 3): ([1], [4], [1, 2, 3, 4]),
            (5, 3): ([1], [5], [2, 3, 4, 5]),
            (5, 4): ([1], [4, 5], [1, 2, 3, 4, 5]),
        }
        for (u, n), (a, b, c) in cases.items():
            for _ in range(10):
                M = rng.standard_normal((u, n))
                assert pluecker_residual(M, a, b, c) < 1e-10

    def test_constraints_enforced(self):
        M = np.zeros((4, 3))
        with pytest.raises(ValueError):
            pluecker_residual(M, [1, 2, 3], [4], [1, 2, 3, 4])  # t = 0
        with pytest.raises(ValueError):
            pluecker_residual(M, [1], [2, 3, 4], [1, 2])  # s <= n
        with pytest.raises(ValueError):
            pluecker_residual(M, [1], [4], [1, 2, 3])  # wrong c length


class TestPsi:
    def test_product_identity(self):
        # entry k of M(a,Y) @ psi equals the minor on rows (chosen..., k)
        rng = np.random.default_rng(9)
        for _ in range(30):
            Y = Tensor3(rng.standard_normal((3, 4, 3)))
            a = rng.standard_normal(3)
            rows = [1, 3]
            psi = kernel_vector_psi(a, Y, rows)
            M = contract_pencil(a, Y)
            prod = M @ psi
            for k in range(1, 5):
                expected = minor(M, rows + [k], [1, 2, 3])
                assert abs(prod[k - 1] - expected) < 1e-10

    def test_zero_pencil(self):
        Y = Tensor3(np.zeros((2, 4, 3)))
        psi = kernel_vector_psi(np.ones(2), Y, [1, 2])
        assert np.array_equal(psi, np.zeros(3))

    def test_proportional_to_kernel(self):
        # at a rank-drop point with independent chosen rows, psi spans ker M
        rng = np.random.default_rng(10)
        Y = Tensor3(rng.standard_normal((3, 4, 3)))
        pts = rank_drop_search(Y, seed=11)
        assert pts, "random 4x3x3 pencil should have real rank-drop points"
        pt = pts[0]
        psi = kernel_vector_psi(pt.a, Y, [1, 2])
        if np.linalg.norm(psi) > 1e-8:
            psi = psi / np.linalg.norm(psi)
            align = abs(psi @ pt.b)
            assert align > 1 - 1e-6

    def test_row_validation(self):
        Y = Tensor3(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError):
            kernel_vector_psi(np.ones(2), Y, [1, 1])
        with pytest.raises(ValueError):
            kernel_vector_psi(np.ones(2), Y, [1, 2, 3])


class TestAfcrMargin:
    def test_quaternion_margin_is_one(self):
        Y = as_tensor(hypercomplex_mult(4))
        assert afcr_margin(Y, seed=0) == pytest.approx(1.0, abs=1e-8)

    def test_singular_slice_gives_zero(self):
        rng = np.random.default_rng(12)
        slices = [rng.standard_normal((3, 3)) for _ in range(2)]
        slices.append(np.zeros((3, 3)))  # rank-deficient slice at e_3
        Y = Tensor3.from_slices(slices)
        assert afcr_margin(Y, seed=0) < 1e-12

    def test_restricted_quaternion_positive(self):
        Y = as_tensor(restrict(hypercomplex_mult(4), 3, 3))
        assert Y.dims == (4, 3, 3)
        assert afcr_margin(Y, seed=0) > 0.1

    def test_wide_pencil_rejected(self):
        Y = Tensor3(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            afcr_margin(Y)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            MarginBudget(restarts=0)

    @pytest.mark.parametrize("fields,error", [
        ({"restarts": 2.5}, TypeError),
        ({"restarts": True}, TypeError),
        ({"iters": 2.0}, TypeError),
        ({"iters": -1}, ValueError),  # would act as 0 rounds
    ])
    def test_budget_fields_are_counts(self, fields, error):
        with pytest.raises(error):
            MarginBudget(**fields)

    @pytest.mark.parametrize("i", [1, 2, 5])
    def test_planted_zero_found(self, i):
        # a 9x5x5 pencil is generically of full rank, and no structured
        # solver applies to it; with a zero planted at (a0, b0) the margin
        # estimate must find it
        rng = np.random.default_rng([11, 9, 5, 5, i])
        Y = rng.standard_normal((5, 9, 5))
        a0, b0 = (v / np.linalg.norm(v) for v in
                  (rng.standard_normal(5), rng.standard_normal(5)))
        r = np.einsum("k,kij,j->i", a0, Y, b0)
        Y -= np.einsum("k,i,j->kij", a0, r, b0)
        Y = Tensor3(Y / np.linalg.norm(Y))
        assert np.linalg.norm(contract_pencil(a0, Y) @ b0) < 1e-14
        assert afcr_margin_info(Y, seed=i).value <= 1e-6

    def test_classification_invariant_under_row_mixing(self):
        # well-conditioned P on the left cannot change the classification
        rng = np.random.default_rng(13)
        quat = as_tensor(hypercomplex_mult(4))
        for Y in [quat, Tensor3(rng.standard_normal((3, 3, 3)))]:
            ok, margin = is_afcr(Y, seed=1)
            for _ in range(3):
                P = np.eye(Y.d1) + 0.1 * rng.standard_normal((Y.d1, Y.d1))
                assert np.linalg.cond(P) < 10
                PY = Tensor3(np.einsum("ij,kjl->kil", P, Y.data))
                ok2, margin2 = is_afcr(PY, seed=1)
                if margin >= 10 * 1e-6 or margin < 1e-6:
                    assert ok == ok2


class TestRankDropSearch:
    def test_two_slice_generalized_eigen(self):
        Y = Tensor3.from_slices([np.eye(2), np.diag([1.0, 2.0])])
        pts = rank_drop_search(Y, seed=0)
        dirs = {tuple(np.round(p.a / p.a[0], 6)) for p in pts}
        expected = {(1.0, -1.0), (1.0, -0.5)}  # (1,-1) and (2,-1) projectively
        assert dirs == expected
        for p in pts:
            assert p.quality < 1e-8
            assert abs(np.linalg.norm(p.a) - 1) < 1e-12
            assert abs(np.linalg.norm(p.b) - 1) < 1e-12

    def test_afcr_tensor_has_no_points(self):
        Y = as_tensor(hypercomplex_mult(4))
        assert rank_drop_search(Y, seed=0) == []

    def test_random_rectangular(self):
        rng = np.random.default_rng(14)
        found_any = False
        for trial in range(6):
            Y = Tensor3(rng.standard_normal((3, 4, 3)))
            pts = rank_drop_search(Y, seed=trial)
            assert len(pts) % 2 == 0 or len(pts) <= 6
            for p in pts:
                M = contract_pencil(p.a, Y)
                assert np.linalg.norm(M @ p.b) <= 1e-6 * Y.norm()
                assert p.quality < 1e-8
            found_any = found_any or pts
        assert found_any

    def test_points_deterministic(self):
        rng = np.random.default_rng(15)
        Y = Tensor3(rng.standard_normal((3, 4, 3)))
        a = [tuple(p.a) for p in rank_drop_search(Y, seed=5)]
        b = [tuple(p.a) for p in rank_drop_search(Y, seed=5)]
        assert a == b

    def test_sliced_path(self):
        # four slices, u = n + 1: the k = 2 solver on 3-dim slices
        rng = np.random.default_rng(20)
        Y = Tensor3(rng.standard_normal((4, 5, 4)))
        pts = rank_drop_search(Y, seed=1)
        assert pts
        for p in pts:
            assert p.quality < 1e-8
            M = contract_pencil(p.a, Y)
            assert np.linalg.norm(M @ p.b) <= 1e-6 * Y.norm()

    def test_three_parameter_path(self):
        # four slices, u = n + 2: the locus has codimension k = 3 and is
        # finite in P^3, so every seed's compressions find the same points
        rng = np.random.default_rng(21)
        Y = Tensor3(rng.standard_normal((4, 6, 4)))
        sets = []
        for seed in range(3):
            pts = rank_drop_search(Y, seed=seed)
            assert pts
            for p in pts:
                assert p.quality < 1e-8
                M = contract_pencil(p.a, Y)
                assert np.linalg.norm(M @ p.b) <= 1e-6 * Y.norm()
            sets.append(np.array([p.a for p in pts]))
        for other in sets[1:]:
            assert other.shape == sets[0].shape
            gap = np.linalg.norm(other[:, None] - sets[0][None], axis=2)
            assert gap.min(axis=0).max() < pencil.DEDUP_TOL
            assert gap.min(axis=1).max() < pencil.DEDUP_TOL

    @pytest.mark.parametrize("i", range(4))
    def test_four_parameter_path(self, i):
        # five slices, u = n + 3 = 6: the locus in P^4 is finite, of
        # degree C(6, 2) = 15, so its real points are odd in number, and
        # every seed finds the same number of them
        Y = Tensor3(np.random.default_rng([62, i]).standard_normal((5, 6, 3)))
        counts = set()
        for seed in range(2):
            pts = rank_drop_search(Y, seed=seed)
            for p in pts:
                assert p.quality < 1e-8
                M = contract_pencil(p.a, Y)
                assert np.linalg.norm(M @ p.b) <= 1e-6 * Y.norm()
            counts.add(len(pts))
        assert len(counts) == 1 and counts.pop() % 2 == 1

    @pytest.mark.parametrize("shape", [(4, 7, 3), (5, 8, 5), (3, 5, 3)])
    def test_shapes_without_a_solver(self, shape):
        # five 8 x 5 slices have k = 4 and n^k = 625 above MAX_KRON; the
        # others have k > m - 1, an empty locus for generic slices
        Y = Tensor3(np.random.default_rng(22).standard_normal(shape))
        u, n, m = Y.d1, Y.d2, Y.d3
        k = u - n + 1
        assert k > m - 1 or n ** k > pencil.MAX_KRON
        assert rank_drop_search(Y, seed=0) is None
        assert pencil._structured_roots(Y, np.random.default_rng(0)) is None

    def test_wide_pencil_rejected(self):
        with pytest.raises(ValueError):
            rank_drop_search(Tensor3(np.zeros((2, 2, 3))))


def reference_eigvals(A, B):
    # the mask of the finite eigenvalues x of A z = x B z, and those x, as
    # the solver takes them
    C, t = pencil._rotated_pencil(A, B)
    lam = np.linalg.eigvals(C)
    al, be = lam * np.cos(t) - np.sin(t), np.cos(t) + lam * np.sin(t)
    finite = np.abs(be) >= 1e-10 * np.maximum(1.0, np.abs(al))
    return finite, al[finite] / be[finite]


def two_param_reference(Y, rng, real_x):
    # the two-parameter formulas the k-parameter solver generalises, as
    # they were written for m = 3, solved level by level: x from the
    # Kronecker operator determinants, then y at each x from the first
    # compression, either at the real x only or at every complex x through
    # its realified form (2n^3 branches in all)
    u, n = Y.d1, Y.d2
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    Z = np.einsum("kl,lij->kij", R, Y.data)
    P1 = rng.standard_normal((n, u))
    P2 = rng.standard_normal((n, u))
    A1, B1, C1 = P1 @ Z[0], P1 @ Z[1], P1 @ Z[2]
    A2, B2, C2 = P2 @ Z[0], P2 @ Z[1], P2 @ Z[2]
    D0 = np.kron(B1, C2) - np.kron(C1, B2)
    D1 = np.kron(C1, A2) - np.kron(A1, C2)
    x = reference_eigvals(D1, D0)[1]
    if real_x:
        x = x[np.abs(x.imag) <= 1e-7 * (1.0 + np.abs(x.real))].real
        A = A1 + x[:, None, None] * B1
        finite, y = reference_eigvals(A, np.broadcast_to(-C1, A.shape))
    else:
        finite, y = reference_eigvals(
            pencil._realified(A1 + x[:, None, None] * B1),
            pencil._realified(-C1 + 0j))
    x = np.broadcast_to(x[:, None], finite.shape)[finite]
    return R, D0, x, y


def near_rows(Y, R, X):
    # the mask of the candidate rows X whose a = (1, x) R has
    # sigma_n / sigma_1 of M(a, Y) below 1e-6
    a = np.column_stack([np.ones(len(X)), X]) @ R
    s = np.linalg.svd(np.einsum("rk,kij->rij", a, Y.data),
                      compute_uv=False)
    return s[:, -1] < 1e-6 * s[:, 0]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("real_x", [True, False])
def test_two_parameter_case_is_bit_identical(n, real_x):
    # the k = 2 case draws the same numbers in the same order as the
    # reference, so R and Delta0 are equal bit for bit; its n^2 candidates,
    # one per joint eigenvector, hold every root the reference's branches
    # find near the locus, at real x or at all x
    for trial in range(3):
        Y = Tensor3(np.random.default_rng([60, n, trial]).standard_normal(
            (3, n + 1, n)))
        R, D0, x, y = two_param_reference(Y, np.random.default_rng(trial),
                                          real_x)
        (R2,), D02, X, _ = pencil._slice_candidates(
            Y, np.random.default_rng(trial), 1)
        assert np.array_equal(R, R2)
        assert np.array_equal(D0, D02)
        assert X.shape == (n ** 2, 2)
        ref = np.column_stack([x, y])
        ref = ref[near_rows(Y, R, ref)]
        if not real_x:
            assert len(ref) >= n * (n + 1) // 2
        gap = np.abs(ref[:, None] - X[None]).max(axis=2).min(axis=1)
        assert np.all(gap <= 1e-8 * (1 + np.abs(ref).max(axis=1)))


def test_three_parameter_candidates_hold_the_locus():
    # the pencil of a Gaussian 4x10x4 tensor is 6 x 4 with four slices:
    # k = 3, one slice, n^3 = 64 candidates, of which the C(6, 3) = 20
    # points of the finite locus are near
    for i in range(3):
        T = Tensor3(np.random.default_rng([61, i]).standard_normal(
            (4, 4, 10)))
        W = iota_tensor(sigma(T), 4, 4)
        (R,), _, X, _ = pencil._slice_candidates(
            W, np.random.default_rng(i), 1)
        assert X.shape == (64, 3)
        assert near_rows(W, R, X).sum() == 20


@pytest.mark.parametrize("shape", [(3, 4, 4), (4, 5, 4), (3, 4, 3)])
def test_one_solver_call_per_search(monkeypatch, shape):
    # a square pencil (its 40 lines), a sliced one (m = 4 > k + 1 = 3, its
    # 8 planes) and a whole one are each solved in one batched call, by
    # the search and by the margin's probe alike
    solve = pencil._slice_candidates
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pencil, "_slice_candidates", counting_solve)
    Y = Tensor3(np.random.default_rng(24).standard_normal(shape))
    assert rank_drop_search(Y, seed=0) is not None
    assert len(calls) == 1
    afcr_margin_info(Y, MarginBudget(restarts=2, iters=2), seed=0)
    assert len(calls) == 2


class TestCornerRootCount:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_root_certified(self, n):
        # the (n+1) x n pencils of the 3x5x3, 4x7x3 and 5x9x3 corners have
        # C(n+1, 2) = 6, 10 and 15 complex rank-drop points
        rng = np.random.default_rng(30 + n)
        degree = n * (n + 1) // 2
        for trial in range(4):
            Y = Tensor3(rng.standard_normal((3, n + 1, n)))
            count = corner_root_count(Y, seed=trial)
            assert count is not None
            assert count.degree == len(count.roots) == degree
            assert np.all(count.radii < 1e-8)
            # non-real roots come in conjugate pairs
            assert count.real.sum() % 2 == degree % 2
            assert np.all(count.roots[count.real].imag == 0)
            M = np.einsum("rk,kij->rij", count.roots, Y.data.astype(complex))
            s = np.linalg.svd(M, compute_uv=False)
            assert np.all(s[:, -1] < 1e-10 * s[:, 0])

    def test_real_roots_are_the_search_points(self):
        rng = np.random.default_rng(33)
        for trial in range(6):
            Y = Tensor3(rng.standard_normal((3, 4, 3)))
            count = corner_root_count(Y, seed=trial)
            points = rank_drop_search(Y, seed=trial)
            real = count.roots[count.real].real
            assert len(real) == len(points)
            for pt in points:
                gap = np.minimum(np.linalg.norm(real - pt.a, axis=1),
                                 np.linalg.norm(real + pt.a, axis=1))
                assert gap.min() < 1e-6

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_scale_does_not_change_the_count(self, scale):
        Y = np.random.default_rng(35).standard_normal((3, 4, 3))
        plain = corner_root_count(Tensor3(Y), seed=0)
        scaled = corner_root_count(Tensor3(Y * scale), seed=0)
        assert scaled is not None
        assert scaled.degree == plain.degree
        assert scaled.real.sum() == plain.real.sum()

    def test_infinite_locus_is_not_counted(self):
        # a zero column drops the rank everywhere: no finite count exists
        Y = np.random.default_rng(34).standard_normal((3, 4, 3))
        Y[:, :, 0] = 0.0
        assert corner_root_count(Tensor3(Y), seed=0) is None

    @pytest.mark.parametrize("shape", [(3, 5, 3), (4, 4, 3), (3, 3, 3)])
    def test_only_corner_pencils(self, shape):
        with pytest.raises(ValueError):
            corner_root_count(Tensor3(np.ones(shape)))


class TestKernelPoints:
    def test_planted_two_dim_kernel(self):
        # M(a0) (I - K K^T) has the orthonormal columns of K in its kernel:
        # one point per kernel vector, both at a0, their b spanning K
        rng = np.random.default_rng(18)
        Y = rng.standard_normal((3, 5, 4))
        a0 = rng.standard_normal(3)
        a0 /= np.linalg.norm(a0) * np.sign(a0[np.argmax(np.abs(a0))])
        K = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        Y -= np.einsum("k,ij->kij", a0, np.einsum("k,kij->ij", a0, Y) @ K @ K.T)
        points = pencil._kernel_points(Tensor3(Y), [a0])
        assert len(points) == 2
        for pt in points:
            assert np.allclose(pt.a, a0, rtol=0, atol=1e-15)
            assert pt.quality < 1e-8
        B = np.column_stack([pt.b for pt in points])
        assert np.linalg.norm(B - K @ (K.T @ B)) < 1e-12
        assert abs(np.linalg.det(K.T @ B)) == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_row_gives_no_point(self):
        rng = np.random.default_rng(19)
        Y = Tensor3(rng.standard_normal((3, 5, 4)))
        a = rng.standard_normal(3)
        assert pencil._kernel_points(Y, [a / np.linalg.norm(a)]) == []

    def test_no_rows_give_no_point(self):
        Y = Tensor3(np.random.default_rng(19).standard_normal((3, 5, 4)))
        assert pencil._kernel_points(Y, np.empty((0, 3))) == []


class TestPointRegularity:
    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        dims = ProblemDims(m=3, n=3, p=5)
        step = 1e-6
        for _ in range(20):
            Y = Tensor3(rng.standard_normal((3, 4, 3)))
            a = rng.standard_normal(3)
            J = corner_minor_jacobian(a, Y)
            for si, s in enumerate(range(dims.m - dims.v, dims.m)):
                ap, am = a.copy(), a.copy()
                ap[s] += step
                am[s] -= step
                fd = (corner_minors(ap, Y)
                      - corner_minors(am, Y)) / (2 * step)
                assert np.max(np.abs(J[:, si] - fd)) < 1e-5


def test_margin_info_value():
    Y = as_tensor(hypercomplex_mult(2))
    info = afcr_margin_info(Y, MarginBudget(restarts=4), seed=0)
    assert info.value == pytest.approx(1.0, abs=1e-10)


def test_search_budget_defaults():
    assert rank_drop_search.__kwdefaults__ is None
    assert pencil.SLICES == 8 and pencil.MAX_KRON == 512
    assert pencil.TOL_RANKDROP == 1e-8
    assert pencil.DEDUP_TOL == 1e-6 and pencil.LINES == 40
