import importlib

import numpy as np
import pytest

from rankatlas.bilinear import as_tensor, hypercomplex_mult, restrict
from rankatlas.certify import (
    CertifyBudget,
    Inconclusive,
    NotInVError,
    RankExceedsP,
    RankP,
    _select_independent,
    certify,
    decompose,
    iota,
    iota_tensor,
    nu,
    phi,
    sigma,
)
from rankatlas import pencil
from rankatlas.pencil import (ProblemDims, RootCount, Tensor3, afcr_margin,
                              flatten)
from tests_helpers import quaternion_high_rank_tensor, tensor_from_fl2


def rank_terms_tensor(rng, n, p, m, r):
    A = rng.standard_normal((n, r))
    B = rng.standard_normal((p, r))
    C = rng.standard_normal((m, r))
    return Tensor3(np.einsum("ij,aj,kj->kia", A, B, C))


class TestSigma:
    def test_identity_top_block(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((3, 6))
        T = tensor_from_fl2(np.vstack([np.eye(6), B]), 3, 3)
        assert np.allclose(sigma(T), B)

    def test_scaled_top_block(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((3, 6))
        T = tensor_from_fl2(np.vstack([2 * np.eye(6), B]), 3, 3)
        assert np.allclose(sigma(T), B / 2)

    def test_hits_every_target(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            B = rng.standard_normal((4, 12))
            T = tensor_from_fl2(np.vstack([np.eye(12), B]), 4, 4)
            assert np.allclose(sigma(T), B)

    def test_not_in_v(self):
        F = np.vstack([np.zeros((6, 6)), np.ones((3, 6))])
        with pytest.raises(NotInVError):
            sigma(tensor_from_fl2(F, 3, 3))


class TestIota:
    def test_zero_matrix(self):
        out = iota(np.zeros((3, 5)))
        assert np.array_equal(out, np.hstack([np.zeros((3, 5)), -np.eye(3)]))

    def test_flatten_roundtrip(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 12))
        W = iota_tensor(A, 4, 4)
        assert np.allclose(flatten(W, 1), iota(A))

    def test_trailing_block_always_minus_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = rng.standard_normal((3, 6))
            W = iota_tensor(A, 3, 3)
            assert np.array_equal(flatten(W, 1)[:, 6:], -np.eye(3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            iota_tensor(np.zeros((3, 5)), 3, 3)


class TestNu:
    def test_inverts_iota(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 12))
        assert np.allclose(nu(iota_tensor(A, 4, 4)), A, atol=1e-12)

    def test_normalized_pencil(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((3, 6))
        Y = iota_tensor(B, 3, 3)
        assert np.allclose(nu(Y), B)

    def test_identity_with_flattening(self):
        # iota(nu(Y)) equals the mode-1 flattening of the row-normalized Y
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            Y = Tensor3(rng.standard_normal((3, 4, 3)))
            F = flatten(Y, 1)
            trailing = F[:, 5:]  # p = nm - u = 5
            if np.linalg.cond(trailing) > 1e4:
                continue
            lhs = iota(nu(Y))
            rhs = -np.linalg.inv(trailing) @ F
            assert np.max(np.abs(lhs - rhs)) < 1e-10
            checked += 1

    def test_singular_trailing_block(self):
        Y = Tensor3(np.zeros((3, 4, 3)))
        with pytest.raises(ValueError):
            nu(Y)


class TestPhi:
    def test_first_basis_vector(self):
        dims = ProblemDims(m=3, n=3, p=6)
        b = np.array([1.0, 2.0, 3.0])
        out = phi(np.eye(3)[0], b, dims)
        assert np.allclose(out, [1, 2, 3, 0, 0, 0])

    def test_last_coordinate_ignored(self):
        dims = ProblemDims(m=3, n=3, p=6)
        b = np.ones(3)
        assert np.allclose(phi(np.eye(3)[2], b, dims), np.zeros(6))

    def test_truncation(self):
        dims = ProblemDims(m=3, n=3, p=5)  # l = 1: last block keeps n-l = 2
        a = np.array([2.0, 3.0, 9.0])
        b = np.array([1.0, 10.0, 100.0])
        out = phi(a, b, dims)
        assert np.allclose(out, [2, 20, 200, 3, 30])

    def test_linear_in_a(self):
        dims = ProblemDims(m=4, n=4, p=12)
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        al = 3.7
        assert np.allclose(phi(al * a, b, dims), al * phi(a, b, dims))

    def test_shape_validation(self):
        dims = ProblemDims(m=3, n=3, p=6)
        with pytest.raises(ValueError):
            phi(np.zeros(4), np.zeros(3), dims)

    def test_stacked_rows(self):
        dims = ProblemDims(m=4, n=4, p=11)
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((2, 5, 4)), rng.standard_normal((2, 5, 4))
        out = phi(a, b, dims)
        assert out.shape == (2, 5, 11)
        for i, j in np.ndindex(2, 5):
            assert np.array_equal(out[i, j], phi(a[i, j], b[i, j], dims))

    def test_mismatched_leading_shapes(self):
        dims = ProblemDims(m=3, n=3, p=6)
        with pytest.raises(ValueError):
            phi(np.zeros((5, 3)), np.zeros((4, 3)), dims)
        with pytest.raises(ValueError):
            phi(np.zeros((5, 3)), np.zeros(3), dims)


class TestSpanDimension:
    # the numerical rank of the phi columns, as a certificate counts it
    @staticmethod
    def span(points, dims):
        d, b = (np.array(x) for x in zip(*points))
        return _select_independent(phi(d, b, dims).T, dims.p)[0]

    def test_single_and_duplicate(self):
        dims = ProblemDims(m=3, n=3, p=6)
        d = np.array([1.0, 2.0, 3.0])
        b = np.array([0.5, -1.0, 2.0])
        assert self.span([(d, b)], dims) == 1
        assert self.span([(d, b), (d, b)], dims) == 1
        assert self.span([(d, b), (-d, -b)], dims) == 1

    def test_full_span_from_synthetic_points(self):
        dims = ProblemDims(m=3, n=3, p=6)
        rng = np.random.default_rng(9)
        pts = [(rng.standard_normal(3), rng.standard_normal(3))
               for _ in range(6)]
        assert self.span(pts, dims) == 6


class TestCertify:
    def test_explicit_rank_six(self):
        rng = np.random.default_rng(10)
        T = rank_terms_tensor(rng, 3, 6, 3, 6)
        verdict = certify(T, seed=0)
        assert isinstance(verdict, RankP)
        cert = verdict.certificate
        assert cert.residual <= 1e-6
        assert len(cert.D) == cert.A.shape[1] == 6
        # every witness point kills the pencil
        W = iota_tensor(sigma(T), 3, 3)
        for d, b in zip(cert.D, cert.A.T):
            M = np.einsum("k,kij->ij", d, W.data)
            assert np.linalg.norm(M @ b) <= 1e-6

    def test_gaussian_3x6x3_mostly_rank_p(self):
        rng = np.random.default_rng(11)
        outcomes = []
        for i in range(30):
            T = Tensor3(rng.standard_normal((3, 3, 6)))
            outcomes.append(certify(T, seed=i).kind)
        assert outcomes.count("RankP") >= 29
        assert outcomes.count("RankExceedsP") == 0

    def test_constructed_high_rank_instance(self):
        T = quaternion_high_rank_tensor()
        verdict = certify(T, seed=0)
        assert isinstance(verdict, RankExceedsP)
        assert verdict.margin > 1e-6

    def test_mutual_exclusion_on_rankp(self):
        # a RankP verdict implies the pencil margin is below tolerance
        rng = np.random.default_rng(12)
        for i in range(10):
            T = Tensor3(rng.standard_normal((3, 3, 6)))
            verdict = certify(T, seed=i)
            if isinstance(verdict, RankP):
                W = iota_tensor(sigma(T), 3, 3)
                margin = afcr_margin(W.scaled(1 / W.norm()), seed=i + 100)
                assert margin <= 1e-6

    def test_rejects_wrong_window(self):
        rng = np.random.default_rng(13)
        T = Tensor3(rng.standard_normal((4, 4, 4)))  # p=4 outside the window
        with pytest.raises(ValueError):
            certify(T)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            CertifyBudget(search_rounds=0)

    @pytest.mark.parametrize("fields", [{"margin_iters": -1},
                                        {"search_restarts": 0}])
    def test_budget_counts_have_a_floor(self, fields):
        with pytest.raises(ValueError):
            CertifyBudget(**fields)

    def test_inconclusive_diagnostics(self, monkeypatch):
        # a search on one line finds too few points to span R^6
        monkeypatch.setattr(pencil, "LINES", 1)
        rng = np.random.default_rng(11)
        seen = False
        for i in range(3):
            T = Tensor3(rng.standard_normal((3, 3, 6)))
            verdict = certify(T, seed=i)
            if isinstance(verdict, Inconclusive):
                assert "span_dim" in verdict.diagnostics
                assert verdict.diagnostics["span_dim"] < 6
                seen = True
        assert seen

    def test_one_search_per_certify(self, monkeypatch):
        # each certify makes at most one search: a second would repeat a
        # complete solve or meet a dense locus again.  At the 3x5x3 corner
        # the certified root count supplies the points, so no search runs
        # and the points are the count's real roots; the quaternion pencil
        # has no point, so its one search is followed by one margin call
        # the package's ``certify`` attribute is the function, not the module
        certify_mod = importlib.import_module("rankatlas.certify")
        search = certify_mod.rank_drop_search
        margin = certify_mod.afcr_margin_info
        kernel_points = certify_mod._kernel_points
        searches, margins, points = [], [], []

        def counting_search(*args, **kwargs):
            found = search(*args, **kwargs)
            searches.append(found)
            return found

        def counting_margin(*args, **kwargs):
            margins.append(1)
            return margin(*args, **kwargs)

        def counting_points(*args, **kwargs):
            found = kernel_points(*args, **kwargs)
            points.append(found)
            return found

        monkeypatch.setattr(certify_mod, "rank_drop_search", counting_search)
        monkeypatch.setattr(certify_mod, "afcr_margin_info", counting_margin)
        monkeypatch.setattr(certify_mod, "_kernel_points", counting_points)
        square = Tensor3(np.random.default_rng(11).standard_normal((3, 3, 6)))
        rect = Tensor3(np.random.default_rng(14).standard_normal((3, 3, 5)))
        planted = rank_terms_tensor(np.random.default_rng(5), 4, 11, 4, 11)
        cases = [(square, "RankP", 1, 0), (rect, "RankExceedsP", 0, 0),
                 (planted, "RankP", 1, 0),
                 (quaternion_high_rank_tensor(), "RankExceedsP", 1, 1)]
        for T, kind, search_calls, margin_calls in cases:
            searches.clear()
            margins.clear()
            points.clear()
            verdict = certify(T, seed=0)
            assert verdict.kind == kind
            assert len(searches) == search_calls
            assert len(margins) == margin_calls
            assert len(points) == 1 - search_calls
            if T is rect:
                assert len(points[0]) in (2, 4)
                assert verdict.roots.real.sum() == len(points[0])

    def test_shape_above_the_cap_is_not_searched(self, monkeypatch):
        # 5x17x5: the 8 x 5 pencil has k = 4 and n^k = 625 above
        # pencil.MAX_KRON, so no solver runs, and the margin estimate must
        # not decide rank > p on a pencil that was never searched.  The
        # last tensor is built from restrict(octonion, 5, 5), whose pencil
        # has full column rank everywhere: rank > p, yet Inconclusive
        certify_mod = importlib.import_module("rankatlas.certify")

        def no_margin(*args, **kwargs):
            raise AssertionError("the margin ran without a search")

        monkeypatch.setattr(certify_mod, "afcr_margin_info", no_margin)
        rng = np.random.default_rng(64)
        Q, G = (np.linalg.qr(rng.standard_normal((5, 5)))[0]
                for _ in range(2))
        Y = as_tensor(restrict(hypercomplex_mult(8), 5, 5)).data
        fl1 = np.hstack(list(np.einsum("kl,lij,jc->kic", Q, Y, G)))
        F = np.vstack([np.eye(17), -np.linalg.solve(fl1[:, 17:],
                                                    fl1[:, :17])])
        tensors = [Tensor3(np.random.default_rng([63, i]).standard_normal(
            (5, 5, 17))) for i in range(2)] + [tensor_from_fl2(F, 5, 5)]
        for T in tensors:
            verdict = certify(T, seed=0)
            assert isinstance(verdict, Inconclusive)
            assert verdict.diagnostics == {"search": "none"}

    def test_corner_makes_one_two_parameter_solve(self, monkeypatch):
        # the root count's solve is the only one: its real roots are the
        # points a rank-p certificate is assembled from, and no search or
        # margin runs, whatever the count finds.  sigma(T) = 0 gives the
        # pencil a line of rank-drop points, so its count does not certify
        pencil_mod = importlib.import_module("rankatlas.pencil")
        certify_mod = importlib.import_module("rankatlas.certify")
        solve = pencil_mod._slice_candidates
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        def never(*args, **kwargs):
            raise AssertionError("a search or margin ran at the corner")

        monkeypatch.setattr(pencil_mod, "_slice_candidates", counting_solve)
        monkeypatch.setattr(certify_mod, "rank_drop_search", never)
        monkeypatch.setattr(certify_mod, "afcr_margin_info", never)
        rect = Tensor3(np.random.default_rng(14).standard_normal((3, 3, 5)))
        line = tensor_from_fl2(np.vstack([np.eye(5), np.zeros((4, 5))]), 3, 3)
        planted = rank_terms_tensor(np.random.default_rng(41), 3, 5, 3, 5)
        for T, kind in ((rect, "RankExceedsP"), (line, "Inconclusive"),
                        (planted, "RankP")):
            calls.clear()
            verdict = certify(T, seed=0)
            assert verdict.kind == kind
            assert len(calls) == 1
            if T is line:
                assert verdict.diagnostics == {"degree": 6,
                                               "count": "uncertified"}
        assert verdict.diagnostics["degree"] == 6
        assert verdict.diagnostics["roots_found"] == 6
        assert verdict.diagnostics["roots_real"] >= 5
        assert verdict.diagnostics["points_found"] == \
            verdict.diagnostics["roots_real"]
        assert verdict.certificate.residual <= 1e-6

    def test_margin_runs_only_when_the_search_finds_nothing(self,
                                                            monkeypatch):
        certify_mod = importlib.import_module("rankatlas.certify")
        margin = certify_mod.afcr_margin_info
        calls = []

        def counting_margin(*args, **kwargs):
            calls.append(1)
            return margin(*args, **kwargs)

        monkeypatch.setattr(certify_mod, "afcr_margin_info", counting_margin)
        square = Tensor3(np.random.default_rng(11).standard_normal((3, 3, 6)))
        rect = Tensor3(np.random.default_rng(14).standard_normal((3, 3, 5)))
        cases = [(square, "RankP", 0), (rect, "RankExceedsP", 0),
                 (quaternion_high_rank_tensor(), "RankExceedsP", 1)]
        verdicts = []
        for T, kind, margin_calls in cases:
            calls.clear()
            verdicts.append(certify(T, seed=0))
            assert verdicts[-1].kind == kind
            assert len(calls) == margin_calls
        # a root count, not a margin, decides the 3x5x3 sample
        assert verdicts[1].margin is None
        assert verdicts[1].roots.real.sum() == 2
        assert verdicts[2].margin > 1e-6

    def test_weak_margin_budget_does_not_overrule_a_witness(self):
        # 4x11x4: the margin from starting points alone is far above
        # tolerance, yet the sliced two-parameter search finds a rank-11
        # witness
        T = Tensor3(np.random.default_rng(0).standard_normal((4, 4, 11)))
        verdict = certify(T, CertifyBudget(margin_iters=0), seed=0)
        assert isinstance(verdict, RankP)
        assert verdict.certificate.residual <= 1e-6
        tiny = CertifyBudget(margin_restarts=1, margin_iters=1,
                             search_restarts=1, search_rounds=1)
        assert not isinstance(certify(T, tiny, seed=0), RankExceedsP)


class TestRootCountVerdict:
    def test_corner_samples_all_decided(self):
        rng = np.random.default_rng(14)
        for i in range(12):
            T = Tensor3(rng.standard_normal((3, 3, 5)))
            verdict = certify(T, seed=i)
            assert verdict.kind in ("RankP", "RankExceedsP")
            if isinstance(verdict, RankExceedsP):
                assert verdict.margin is None
                assert isinstance(verdict.roots, RootCount)
                assert verdict.roots.degree == len(verdict.roots.roots) == 6
                assert verdict.roots.real.sum() in (0, 2, 4)

    @pytest.mark.parametrize("n", [4, 5])
    def test_other_corner_shapes(self, n):
        # 4x7x3 and 5x9x3: degree C(n+1, 2) = 10 and 15
        rng = np.random.default_rng(40 + n)
        for i in range(3):
            T = Tensor3(rng.standard_normal((3, n, 2 * n - 1)))
            verdict = certify(T, seed=i)
            assert verdict.kind in ("RankP", "RankExceedsP")
            if isinstance(verdict, RankExceedsP):
                assert verdict.roots.degree == n * (n + 1) // 2
                assert verdict.roots.real.sum() < 2 * n - 1

    def test_planted_rank_p_never_exceeds(self, monkeypatch):
        # with the assembly of the rank-5 certificate blocked, the count
        # still finds at least p real roots and refuses rank > p
        certify_mod = importlib.import_module("rankatlas.certify")
        rng = np.random.default_rng(41)
        for i in range(8):
            T = rank_terms_tensor(rng, 3, 5, 3, 5)
            assert isinstance(certify(T, seed=i), RankP)
            with monkeypatch.context() as patch:
                patch.setattr(certify_mod, "COND_LIMIT_N", 1.0)
                verdict = certify(T, seed=i)
            assert isinstance(verdict, Inconclusive)
            assert verdict.diagnostics["degree"] == 6
            assert verdict.diagnostics["roots_found"] == 6
            assert verdict.diagnostics["roots_real"] >= 5

    def test_uncertified_count_is_inconclusive(self, monkeypatch):
        # the count alone decides the corner: without it no search supplies
        # points and no margin estimate claims rank > p
        certify_mod = importlib.import_module("rankatlas.certify")

        def never(*args, **kwargs):
            raise AssertionError("a search or margin ran at the corner")

        monkeypatch.setattr(certify_mod, "corner_root_count",
                            lambda *args, **kwargs: None)
        monkeypatch.setattr(certify_mod, "rank_drop_search", never)
        monkeypatch.setattr(certify_mod, "afcr_margin_info", never)
        rng = np.random.default_rng(14)
        for i in range(5):
            verdict = certify(Tensor3(rng.standard_normal((3, 3, 5))), seed=i)
            assert isinstance(verdict, Inconclusive)
            assert verdict.diagnostics == {"degree": 6,
                                           "count": "uncertified"}

    def test_als_does_not_fit_newly_decided_samples(self):
        # samples the count decides and the search alone left Inconclusive
        from rankatlas.experiments import AlsBudget, als_fit

        rng = np.random.default_rng(14)
        for i in range(3):
            T = Tensor3(rng.standard_normal((3, 3, 5)))
            verdict = certify(T, seed=i)
            assert verdict.roots.real.sum() == 2
            assert als_fit(T, 5, AlsBudget(restarts=3, sweeps=300),
                           seed=i) > 1e-3

    def test_verdict_needs_exactly_one_witness(self):
        with pytest.raises(ValueError):
            RankExceedsP()
        with pytest.raises(ValueError):
            RankExceedsP(margin=1.0, roots=object())


class TestDecompose:
    def test_reconstructs_explicit_tensor(self):
        rng = np.random.default_rng(15)
        T = rank_terms_tensor(rng, 3, 6, 3, 6)
        verdict = certify(T, seed=0)
        assert isinstance(verdict, RankP)
        factors = decompose(T, verdict.certificate)
        assert factors.terms == 6
        assert factors.residual < 1e-8

    def test_residual_matches_recomputation(self):
        rng = np.random.default_rng(16)
        T = Tensor3(rng.standard_normal((3, 3, 6)))
        verdict = certify(T, seed=3)
        assert isinstance(verdict, RankP)
        factors = decompose(T, verdict.certificate)
        That = np.einsum("ij,aj,kj->kia", factors.A, factors.B, factors.C)
        recomputed = np.linalg.norm(That - T.data) / np.linalg.norm(T.data)
        assert factors.residual == pytest.approx(recomputed, rel=1e-9)
        assert factors.residual == pytest.approx(verdict.certificate.residual,
                                                 abs=1e-9)

    @pytest.mark.parametrize("n,p,m,count", [(3, 6, 3, 10), (4, 12, 4, 10),
                                             (3, 5, 3, 50), (4, 11, 4, 10)])
    def test_certificate_residual_is_decompose_residual(self, n, p, m, count):
        # the gate and decompose reconstruct through one function, so the
        # two residuals agree bit for bit
        rng = np.random.default_rng(3)
        rankp = 0
        for i in range(count):
            T = Tensor3(rng.standard_normal((m, n, p)))
            verdict = certify(T, seed=i)
            if isinstance(verdict, RankP):
                rankp += 1
                cert = verdict.certificate
                assert decompose(T, cert).residual == cert.residual
        assert rankp > 0

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale(self, scale):
        # residuals are taken on T scaled by a power of two, so they stay
        # finite where the Frobenius norm of T itself overflows or underflows
        rng = np.random.default_rng(19)
        T = rank_terms_tensor(rng, 3, 6, 3, 6)
        verdict = certify(T.scaled(scale), seed=0)
        assert isinstance(verdict, RankP)
        assert verdict.certificate.residual <= 1e-6
        factors = decompose(T.scaled(scale), verdict.certificate)
        assert factors.residual <= 1e-6
        That = np.einsum("ij,aj,kj->kia", factors.A, factors.B / scale,
                         factors.C)
        assert np.linalg.norm(That - T.data) <= 1e-6 * T.norm()

    def test_mismatched_certificate(self):
        rng = np.random.default_rng(17)
        T = Tensor3(rng.standard_normal((3, 3, 6)))
        verdict = certify(T, seed=0)
        assert isinstance(verdict, RankP)
        other = Tensor3(rng.standard_normal((3, 3, 5)))
        with pytest.raises(ValueError):
            decompose(other, verdict.certificate)


def test_extension_caps_rank_when_certify_fails():
    # when the p-certificate fails, a generic one-column extension is
    # certifiable at p+1 in nearly all cases
    from rankatlas.experiments import extend_with_random_column

    rng = np.random.default_rng(18)
    failures = []
    i = 0
    while len(failures) < 8 and i < 200:
        T = Tensor3(rng.standard_normal((3, 3, 5)))
        if not isinstance(certify(T, seed=i), RankP):
            failures.append((T, i))
        i += 1
    assert len(failures) == 8
    successes = 0
    for T, i in failures:
        Text = extend_with_random_column(T, np.random.default_rng(i))
        if isinstance(certify(Text, seed=i), RankP):
            successes += 1
    assert successes >= int(0.9 * len(failures))
