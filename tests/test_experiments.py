import json

import numpy as np
import pytest

from rankatlas import experiments
from rankatlas.experiments import (
    AlsBudget,
    ExperimentConfig,
    als_fit,
    extend_with_random_column,
    run_experiment,
    sample_gaussian_tensor,
    terracini_generic_rank,
)
from rankatlas.pencil import Tensor3
from tests_helpers import csv_without_wall_ms


class TestSampling:
    def test_deterministic(self):
        a = sample_gaussian_tensor((3, 6, 3), np.random.default_rng(42))
        b = sample_gaussian_tensor((3, 6, 3), np.random.default_rng(42))
        assert a == b

    def test_mean_near_zero(self):
        T = sample_gaussian_tensor((6, 8, 5), np.random.default_rng(0))
        count = T.data.size
        assert abs(T.data.mean()) < 3 / np.sqrt(count)


class TestAls:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(2)
        a, b, c = rng.standard_normal(3), rng.standard_normal(6), rng.standard_normal(3)
        T = Tensor3(np.einsum("i,a,k->kia", a, b, c))
        assert als_fit(T, 1, AlsBudget(restarts=2, sweeps=200), seed=0) < 1e-10

    def test_six_terms_fit_at_six_not_five(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 6))
        B = rng.standard_normal((6, 6))
        C = rng.standard_normal((3, 6))
        T = Tensor3(np.einsum("ij,aj,kj->kia", A, B, C))
        fit6 = als_fit(T, 6, AlsBudget(restarts=6, sweeps=300), seed=1)
        fit5 = als_fit(T, 5, AlsBudget(restarts=6, sweeps=300), seed=1)
        assert fit6 < 1e-6
        assert fit5 > 1e-2

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            als_fit(Tensor3(np.zeros((2, 2, 2))), 0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_budget_needs_a_restart(self, restarts):
        # with no restart als_fit would fit nothing and report inf
        with pytest.raises(ValueError):
            AlsBudget(restarts=restarts)

    @pytest.mark.parametrize("fields,error", [
        ({"restarts": 1.5}, TypeError),
        ({"restarts": True}, TypeError),
        ({"sweeps": 2.0}, TypeError),
        ({"polish_iters": False}, TypeError),
        ({"sweeps": -1}, ValueError),  # would act as 0 sweeps
        ({"polish_iters": -1}, ValueError),
    ])
    def test_budget_fields_are_counts(self, fields, error):
        with pytest.raises(error):
            AlsBudget(**fields)

    @pytest.mark.parametrize("d1,d2,d3,r", [(3, 6, 3, 6), (4, 12, 4, 12),
                                             (3, 5, 3, 5)])
    def test_jacobian_matches_per_column_products(self, d1, d2, d3, r):
        rng = np.random.default_rng(d2)
        A, B, C = (rng.standard_normal((d, r)) for d in (d1, d2, d3))
        # oracle: one column per packed entry of (A, B, C), row-major each
        cols = []
        for i in range(d1):
            for j in range(r):
                cols.append(np.einsum("i,a,k->iak", np.eye(d1)[i], B[:, j],
                                      C[:, j]).ravel())
        for a in range(d2):
            for j in range(r):
                cols.append(np.einsum("i,a,k->iak", A[:, j], np.eye(d2)[a],
                                      C[:, j]).ravel())
        for k in range(d3):
            for j in range(r):
                cols.append(np.einsum("i,a,k->iak", A[:, j], B[:, j],
                                      np.eye(d3)[k]).ravel())
        assert np.array_equal(experiments._cp_jacobian(A, B, C),
                              np.column_stack(cols))

    @pytest.mark.parametrize("lam", [1e-4, 1.0])
    @pytest.mark.parametrize("d1,d2,d3", [(3, 6, 3), (4, 12, 4), (3, 5, 3)])
    def test_lm_step_matches_the_dense_solve(self, d1, d2, d3, lam):
        rng = np.random.default_rng(d2)
        A, B, C = (rng.standard_normal((d, d2)) for d in (d1, d2, d3))
        R = rng.standard_normal((d1, d2, d3))
        J = experiments._cp_jacobian(A, B, C)
        dense = np.linalg.solve(J.T @ J + lam * np.eye(J.shape[1]),
                                J.T @ R.ravel())
        step = experiments._cp_lm_step(R, A, B, C, lam)
        assert (np.linalg.norm(step - dense)
                <= 1e-8 * np.linalg.norm(dense))

    def test_fit_forms_no_jacobian(self):
        from tests_helpers import peak_alloc_mb

        # the dense Jacobian and J^T J of one 4x12x4 rank-12 step alone
        # hold 0.8 MB
        rng = np.random.default_rng(12)
        A, B, C = (rng.standard_normal(s) for s in ((4, 12), (12, 12),
                                                    (4, 12)))
        T = Tensor3(np.einsum("ij,aj,kj->kia", A, B, C))
        assert peak_alloc_mb(
            lambda: als_fit(T, 12, AlsBudget(restarts=1))) < 0.3

    SLOW_SWEEPS = [((3, 5, 3), 5), ((3, 5, 3), 18), ((3, 6, 3), 9)]

    @staticmethod
    def planted(shape, seed):
        n, p, m = shape
        rng = np.random.default_rng(seed)
        A, B, C = (rng.standard_normal(s) for s in ((n, p), (p, p), (m, p)))
        return Tensor3(np.einsum("ij,aj,kj->kia", A, B, C))

    @pytest.mark.parametrize("shape,seed", SLOW_SWEEPS)
    def test_fits_planted_tensors_through_a_slow_polish(self, shape, seed):
        # the ALS sweeps alone stall above 1e-3 from every start
        assert als_fit(self.planted(shape, seed), shape[1], seed=seed) < 1e-6

    @pytest.mark.parametrize("shape,seed", SLOW_SWEEPS)
    def test_polish_reaches_a_planted_fit_in_few_steps(self, shape, seed,
                                                       monkeypatch):
        step = experiments._cp_lm_step
        calls = []
        monkeypatch.setattr(experiments, "_cp_lm_step",
                            lambda *a: calls.append(1) or step(*a))
        assert als_fit(self.planted(shape, seed), shape[1], seed=seed) < 1e-6
        assert len(calls) <= 500


class TestTerracini:
    def test_three_three_five(self):
        assert terracini_generic_rank(3, 3, 5, seed=0) == 5

    def test_matrix_case(self):
        assert terracini_generic_rank(1, 4, 6, seed=0) == 4
        assert terracini_generic_rank(1, 7, 3, seed=0) == 3

    def test_four_twelve_four(self):
        assert terracini_generic_rank(4, 12, 4, seed=0) == 12


class TestRunExperiment:
    def test_small_run_report(self, tmp_path):
        cfg = ExperimentConfig(
            n=3, p=6, m=3, samples=6, seed=7,
            csv_path=str(tmp_path / "rows.csv"),
            json_path=str(tmp_path / "summary.json"))
        report = run_experiment(cfg)
        assert abs(sum(report.frequencies.values()) - 1.0) < 1e-12
        assert report.frequencies.get("RankP", 0) > 0.5
        csv_text = (tmp_path / "rows.csv").read_text()
        assert csv_text.splitlines()[0] == (
            "sample_id,verdict,cert_residual,als_p,als_p1,points_found,"
            "span_dim,wall_ms")
        assert len(csv_text.splitlines()) == 7
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["samples"] == 6
        assert "{6}" in summary["prediction"]

    def test_deterministic_bytes_without_timings(self):
        cfg = ExperimentConfig(n=3, p=6, m=3, samples=5, seed=3)
        a = csv_without_wall_ms(run_experiment(cfg))
        b = csv_without_wall_ms(run_experiment(cfg))
        assert a == b

    def test_thread_count_does_not_change_rows(self):
        base = ExperimentConfig(n=3, p=6, m=3, samples=6, seed=5)
        threaded = ExperimentConfig(n=3, p=6, m=3, samples=6, seed=5,
                                    threads=3)
        assert (csv_without_wall_ms(run_experiment(base))
                == csv_without_wall_ms(run_experiment(threaded)))

    def test_als_columns_filled_when_enabled(self):
        cfg = ExperimentConfig(n=3, p=6, m=3, samples=2, seed=2,
                               run_als=True, als_restarts=2, als_sweeps=120)
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.als_p is not None and row.als_p1 is not None

    def test_als_columns_do_not_depend_on_certify_draws(self, monkeypatch):
        cfg = ExperimentConfig(n=3, p=5, m=3, samples=3, seed=3, run_als=True,
                               als_restarts=1, als_sweeps=50)

        def als_columns():
            return [(r.als_p, r.als_p1) for r in run_experiment(cfg).rows]

        plain = als_columns()
        certify = experiments.certify

        def hungry_certify(T, seed):
            seed.standard_normal(7)
            return certify(T, seed=seed)

        monkeypatch.setattr(experiments, "certify", hungry_certify)
        assert als_columns() == plain

    def test_tensor_outside_v_gives_a_not_in_v_row(self, monkeypatch):
        # sigma alone decides V-membership: a sample whose leading 6 x 6
        # block of the mode-2 flattening is singular is recorded, not redrawn
        data = np.random.default_rng(0).standard_normal((3, 3, 6))
        data[0] = 0.0
        monkeypatch.setattr(experiments, "sample_gaussian_tensor",
                            lambda dims, rng: Tensor3(data))
        cfg = ExperimentConfig(n=3, p=6, m=3, samples=2, seed=1)
        report = run_experiment(cfg)
        assert [r.verdict for r in report.rows] == ["NotInV", "NotInV"]
        assert report.frequencies == {"NotInV": 1.0}

    def test_config_json_roundtrip(self):
        cfg = ExperimentConfig(n=3, p=5, m=3, samples=4, seed=9, run_als=True)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=3, p=6, m=3, samples=0)


class TestPluralRegimeObservation:
    def test_both_classes_seen_where_measures_are_healthy(self):
        # the classifier predicts {5, 6} at 3x5x3 and both verdict classes
        # indeed occur with positive frequency under Gaussian sampling
        from rankatlas.classify import classify

        assert classify(3, 3, 5).ranks == (5, 6)
        cfg = ExperimentConfig(n=3, p=5, m=3, samples=100, seed=2025)
        report = run_experiment(cfg)
        assert report.frequencies.get("RankP", 0) > 0
        assert report.frequencies.get("RankExceedsP", 0) > 0


class TestAlsCrossChecks:
    def test_rankp_samples_fit_at_p(self):
        # independent-method agreement: ALS reaches 1e-3 on most RankP samples
        cfg = ExperimentConfig(n=3, p=6, m=3, samples=12, seed=11,
                               run_als=True, als_restarts=3, als_sweeps=300)
        report = run_experiment(cfg)
        rankp = [r for r in report.rows if r.verdict == "RankP"]
        assert rankp
        good = sum(1 for r in rankp if r.als_p < 1e-3)
        assert good >= int(np.ceil(0.9 * len(rankp)))

    def test_high_rank_instance_resists_als_at_p(self):
        from tests_helpers import quaternion_high_rank_tensor

        T = quaternion_high_rank_tensor()
        fit12 = als_fit(T, 12, AlsBudget(restarts=3, sweeps=300), seed=0)
        fit13 = als_fit(T, 13, AlsBudget(restarts=3, sweeps=300), seed=0)
        assert fit12 > 1e-3
        assert fit13 < 1e-2


def test_extension_shape():
    rng = np.random.default_rng(4)
    T = Tensor3(rng.standard_normal((3, 3, 5)))
    ext = extend_with_random_column(T, rng)
    assert ext.dims == (3, 6, 3)
    assert np.array_equal(ext.data[:, :, :5], T.data)
