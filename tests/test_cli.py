import hashlib
import json

import numpy as np
import pytest

from rankatlas.classify import classify
from rankatlas.cli import run
from rankatlas.hopf import build_bounds_table
from rankatlas import pencil
from rankatlas.pencil import Tensor3
from tests_helpers import quaternion_high_rank_tensor


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrank:
    def test_plural_corner(self, capsys):
        code, out, _ = invoke(capsys, "trank", "3", "3", "5")
        assert code == 0
        assert "{5, 6}" in out

    def test_unique(self, capsys):
        code, out, _ = invoke(capsys, "trank", "3", "3", "7")
        assert code == 0
        assert "{7}" in out

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "trank", "4", "4", "12", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ranks"] == [12, 13]
        assert payload["hash_bounds"] == [4, 4]

    def test_agrees_with_library_default(self, capsys):
        # both take the default m#n table, which covers the largest dimension
        code, out, _ = invoke(capsys, "trank", "5", "7", "27", "--json")
        assert code == 0
        payload = json.loads(out)
        result = classify(5, 7, 27)
        assert (result.kind, result.provenance) == (payload["kind"],
                                                    payload["provenance"])
        assert list(result.ranks) == payload["ranks"] == [27, 28]


class TestBounds:
    def test_dump(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--max", "6")
        assert code == 0
        assert "3 3 4 4" in out

    def test_json_cache(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--max", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_dim"] == 5

    @pytest.mark.parametrize("max_dim", [2, 16, 64])
    def test_json_is_the_table_text(self, capsys, max_dim):
        # written one entry at a time, the same text as to_json(); values
        # and rejections are pinned apart in test_hopf.py, and the rule names
        # change here only with every relabel listed in CHANGES.md
        code, out, _ = invoke(capsys, "bounds", "--max", str(max_dim),
                              "--json")
        assert code == 0
        assert out == build_bounds_table(max_dim).to_json() + "\n"
        if max_dim == 64:
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "b8c22748a2535bed9d926426432cfce8"
                "4cb9088662cf3288d85c8f431a054ae5")


class TestAfcrCommand:
    def test_quaternion_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "quaternion.json"
        code, out, _ = invoke(capsys, "make-bilinear", "--kind", "cd",
                              "--dim", "4", "--out", str(path))
        assert code == 0
        code, out, _ = invoke(capsys, "afcr", str(path))
        assert code == 0
        assert out.strip() == "AFCR, margin 1.000000"

    def test_tensor_form_accepted(self, capsys, tmp_path):
        path = tmp_path / "quaternion_tensor.json"
        invoke(capsys, "make-bilinear", "--kind", "cd", "--dim", "4",
               "--tensor", "--out", str(path))
        code, out, _ = invoke(capsys, "afcr", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["afcr"] is True
        assert payload["margin"] == pytest.approx(1.0, abs=1e-9)
        assert payload["normalized_margin"] == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_margin_on_the_tensor_scale(self, capsys, tmp_path, scale):
        # the quaternion pencil has margin 1; its norm at these scales would
        # overflow or underflow if taken directly
        path = tmp_path / "quaternion_tensor.json"
        invoke(capsys, "make-bilinear", "--kind", "cd", "--dim", "4",
               "--tensor", "--out", str(path))
        path.write_text(Tensor3.from_json(path.read_text()).scaled(scale)
                        .to_json())
        code, out, _ = invoke(capsys, "afcr", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["afcr"] is True
        assert payload["margin"] == pytest.approx(scale, rel=1e-9)
        assert payload["normalized_margin"] == pytest.approx(0.25, rel=1e-9)

    def test_missing_field_named(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": [2, 2, 2]}')
        code, _, err = invoke(capsys, "afcr", str(path))
        assert code == 2
        assert "data" in err

    def test_restrict_chain(self, capsys, tmp_path):
        quat = tmp_path / "q.json"
        invoke(capsys, "make-bilinear", "--kind", "cd", "--dim", "4",
               "--out", str(quat))
        restr = tmp_path / "r33.json"
        code, _, _ = invoke(capsys, "make-bilinear", "--kind", "restrict",
                            "--base", str(quat), "--a", "3", "--b", "3",
                            "--out", str(restr))
        assert code == 0
        code, out, _ = invoke(capsys, "afcr", str(restr))
        assert code == 0
        assert out.startswith("AFCR")

    def test_convolve_chain(self, capsys, tmp_path):
        base = tmp_path / "c.json"
        invoke(capsys, "make-bilinear", "--kind", "cd", "--dim", "2",
               "--out", str(base))
        conv = tmp_path / "conv.json"
        code, _, _ = invoke(capsys, "make-bilinear", "--kind", "convolve",
                            "--base", str(base), "--m", "2", "--n", "2",
                            "--out", str(conv))
        assert code == 0
        payload = json.loads(conv.read_text())
        assert (payload["a"], payload["b"], payload["c"]) == (4, 4, 6)


class TestCertifyCommand:
    def test_rank_p_json(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        T = Tensor3(rng.standard_normal((3, 3, 6)))
        path = tmp_path / "t.json"
        path.write_text(T.to_json())
        code, out, _ = invoke(capsys, "certify", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "RankP"
        assert payload["residual"] <= 1e-6

    def test_high_rank_instance(self, capsys, tmp_path):
        path = tmp_path / "t13.json"
        path.write_text(quaternion_high_rank_tensor().to_json())
        code, out, _ = invoke(capsys, "certify", str(path))
        assert code == 0
        assert "RankExceedsP" in out

    def test_strict_inconclusive_exit(self, capsys, tmp_path, monkeypatch):
        # a rank-drop threshold of 1e-300 admits no point, and the margin
        # of the singular 3x6x3 pencil (about 1e-18) is below tolerance
        monkeypatch.setattr(pencil, "TOL_RANKDROP", 1e-300)
        T = Tensor3(np.random.default_rng(7).standard_normal((3, 3, 6)))
        path = tmp_path / "t.json"
        path.write_text(T.to_json())
        code, out, _ = invoke(capsys, "certify", str(path), "--json")
        assert json.loads(out)["verdict"] == "Inconclusive"
        code, out, _ = invoke(capsys, "certify", str(path), "--strict")
        assert code == 1

    def test_root_count_verdict(self, capsys, tmp_path):
        T = Tensor3(np.random.default_rng(14).standard_normal((3, 3, 5)))
        path = tmp_path / "t.json"
        path.write_text(T.to_json())
        code, out, _ = invoke(capsys, "certify", str(path))
        assert code == 0
        assert out.strip() == ("RankExceedsP: 2 of 6 rank-drop roots real "
                               "(p = 5)")
        code, out, _ = invoke(capsys, "certify", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "RankExceedsP"
        assert payload["margin"] is None
        assert set(payload["roots"]) == {"degree", "real", "max_radius"}
        assert (payload["roots"]["degree"], payload["roots"]["real"]) == (6, 2)
        assert 0 < payload["roots"]["max_radius"] < 1e-8

    def test_seed_reproducible(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        T = Tensor3(rng.standard_normal((3, 3, 6)))
        path = tmp_path / "t.json"
        path.write_text(T.to_json())
        _, out1, _ = invoke(capsys, "certify", str(path), "--json", "--seed", "5")
        _, out2, _ = invoke(capsys, "certify", str(path), "--json", "--seed", "5")
        assert out1 == out2

    def test_text_format_accepted(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        T = Tensor3(rng.standard_normal((3, 3, 6)))
        path = tmp_path / "t.txt"
        path.write_text(T.to_text())
        code, out, _ = invoke(capsys, "certify", str(path))
        assert code == 0
        assert "RankP" in out


class TestExperimentCommand:
    def test_runs_config(self, capsys, tmp_path):
        cfg = {
            "n": 3, "p": 6, "m": 3, "samples": 3, "seed": 4,
            "csv_path": str(tmp_path / "rows.csv"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = invoke(capsys, "experiment", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 3
        assert (tmp_path / "rows.csv").exists()

    def test_seed_override(self, capsys, tmp_path):
        cfg = {"n": 3, "p": 6, "m": 3, "samples": 2, "seed": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        _, out1, _ = invoke(capsys, "experiment", str(path), "--seed", "9")
        _, out2, _ = invoke(capsys, "experiment", str(path), "--seed", "9")
        assert out1 == out2
        assert json.loads(out1)["config"]["seed"] == 9

    def test_bad_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 3}')
        code, _, err = invoke(capsys, "experiment", str(path))
        assert code == 2

    def test_shape_outside_the_window_is_a_bad_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "p": 10, "m": 2, "samples": 1}')
        code, _, err = invoke(capsys, "experiment", str(path))
        assert code == 2
        assert err.startswith("error: bad config")

    @pytest.mark.parametrize("change", [
        {"samples": 2.5},
        {"n": 3.0},
        {"samples": True},
        {"certify_budget": {"residual_tol": 1.0}},  # the gates are fixed
        {"run_als": "no"},
        {"include_timings": False},  # an unknown key
        {"threads": "x"},
        {"csv_path": True},
        {"json_path": 3},
        {"run_als": True, "als_restarts": 0},  # no restart fits nothing
        {"run_als": True, "als_restarts": -1},
    ])
    def test_malformed_values_are_a_bad_config(self, capsys, tmp_path,
                                               change):
        cfg = {"n": 3, "p": 6, "m": 3, "samples": 2, **change}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = invoke(capsys, "experiment", str(path))
        assert code == 2
        assert err.startswith("error: bad config")


    @pytest.mark.parametrize("text", ["null", "3", "[1, 2]"])
    def test_config_that_is_not_an_object(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = invoke(capsys, "experiment", str(path))
        assert code == 2
        assert err.startswith("error: bad config")
        assert "config must be a JSON object" in err


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "trank", "3", "3", "5", "--bogus")
        assert code == 2

    def test_missing_subcommand_args(self, capsys):
        code, _, _ = invoke(capsys, "make-bilinear", "--kind", "cd")
        assert code == 2

    def test_certify_wrong_window_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        invoke(capsys, "make-bilinear", "--kind", "cd", "--dim", "4",
               "--tensor", "--out", str(path))
        code, _, err = invoke(capsys, "certify", str(path))
        assert code == 2
        assert "window" in err


class TestInputErrors:
    # each is exit 2 with an ``error:`` line, never a traceback

    def assert_input_error(self, capsys, *argv):
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")

    def test_make_bilinear_missing_base(self, capsys, tmp_path):
        self.assert_input_error(
            capsys, "make-bilinear", "--kind", "restrict", "--base",
            str(tmp_path / "absent.json"), "--a", "3", "--b", "3")

    def test_make_bilinear_malformed_base(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        base.write_text('{"a": 4}')
        self.assert_input_error(
            capsys, "make-bilinear", "--kind", "convolve", "--base",
            str(base), "--m", "2", "--n", "2")

    def test_make_bilinear_base_error_names_the_field(self, capsys,
                                                      tmp_path):
        base = tmp_path / "base.json"
        base.write_text('{"a": 4}')
        code, _, err = invoke(capsys, "make-bilinear", "--kind", "convolve",
                              "--base", str(base), "--m", "2", "--n", "2")
        assert code == 2
        assert "missing field 'b'" in err

    @pytest.mark.parametrize("kind", ["restrict", "convolve"])
    @pytest.mark.parametrize("text", ["3", "null", '"x"'])
    def test_make_bilinear_base_that_is_not_an_object(self, capsys,
                                                      tmp_path, kind, text):
        base = tmp_path / "base.json"
        base.write_text(text)
        code, _, err = invoke(capsys, "make-bilinear", "--kind", kind,
                              "--base", str(base), "--m", "2", "--n", "2",
                              "--a", "2", "--b", "2")
        assert code == 2
        assert err.startswith("error: ")
        assert "must be a JSON object" in err

    @pytest.mark.parametrize("command", ["certify", "afcr"])
    def test_map_file_error_names_the_field(self, capsys, tmp_path, command):
        path = tmp_path / "map.json"
        path.write_text('{"b": 2, "c": 2, "coeffs": [1, 0, 0, 1]}')
        code, _, err = invoke(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error: ") and "missing field 'a'" in err

    @pytest.mark.parametrize("command", ["certify", "afcr"])
    @pytest.mark.parametrize("payload", [
        {"dims": [1, 1, 1], "data": {"a": 1}},
        {"a": 1, "b": 1, "c": 1, "coeffs": {"a": 1}},
    ])
    def test_non_numeric_data(self, capsys, tmp_path, command, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, _, err = invoke(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error: ") and "must be numbers" in err

    @pytest.mark.parametrize("command", ["certify", "afcr"])
    @pytest.mark.parametrize("payload", [
        {"dims": 3, "data": [1.0]},
        {"dims": [None, 1, 1], "data": [1.0]},
        {"dims": [1, 1], "data": [1.0]},
        {"dims": [3.7, 5, 3], "data": [1.0] * 45},
        {"dims": [1, True, 1], "data": [1.0]},
        {"a": None, "b": 1, "c": 1, "coeffs": [1.0]},
        {"a": 1, "b": 1.5, "c": 1, "coeffs": [1.0]},
        {"a": 1, "b": 1, "c": False, "coeffs": []},
    ])
    def test_sizes_must_be_ints(self, capsys, tmp_path, command, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, _, err = invoke(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error: ") and "must be" in err

    def test_make_bilinear_unwritable_out(self, capsys, tmp_path):
        self.assert_input_error(
            capsys, "make-bilinear", "--kind", "cd", "--dim", "4", "--out",
            str(tmp_path / "absent" / "map.json"))

    @pytest.mark.parametrize("key", ["csv_path", "json_path"])
    def test_experiment_unwritable_output(self, capsys, tmp_path, key):
        cfg = {"n": 3, "p": 6, "m": 3, "samples": 1, "seed": 4,
               key: str(tmp_path / "absent" / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        self.assert_input_error(capsys, "experiment", str(path))
