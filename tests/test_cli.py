import json

import numpy as np
import pytest

from hhlsim import pipeline
from hhlsim.cli import main
from hhlsim.linalg import matrix_to_json, vector_to_json
from hhlsim.sweep import DEMO_MATRIX, DEMO_RHS


@pytest.fixture
def demo_files(tmp_path):
    problem_path = tmp_path / "problem.json"
    config_path = tmp_path / "config.json"
    problem_path.write_text(
        json.dumps({"matrix": matrix_to_json(DEMO_MATRIX), "rhs": vector_to_json(DEMO_RHS)})
    )
    config_path.write_text(json.dumps({"method": "exact", "shots": 100, "seed": 1}))
    return problem_path, config_path


class TestSolve:
    def test_solve_outputs_result_json(self, demo_files, capsys):
        problem_path, config_path = demo_files
        assert main(["solve", str(problem_path), str(config_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
        probs = np.abs(np.array(doc["solution_amplitudes"]["re"]) + 1j * np.array(doc["solution_amplitudes"]["im"])) ** 2
        np.testing.assert_allclose(probs, [0.8, 0.2], atol=1e-9)
        assert doc["resolved_config"]["n_c"] == 2

    def test_bad_problem_file_is_config_error(self, tmp_path, demo_files, capsys):
        _, config_path = demo_files
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad), str(config_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_over_budget_clock_is_config_error(self, demo_files, monkeypatch, capsys):
        problem_path, config_path = demo_files
        config_path.write_text(json.dumps({"method": "exact", "n_c": 30, "t": 1.0}))
        monkeypatch.setattr(pipeline, "make_backend", lambda *a, **k: pytest.fail("backend built"))
        assert main(["solve", str(problem_path), str(config_path)]) == 2
        assert "qubit budget" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, demo_files, tmp_path):
        _, config_path = demo_files
        assert main(["solve", str(tmp_path / "nope.json"), str(config_path)]) == 2


class TestEq3AndPlot:
    def test_eq3_then_plot(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["eq3", "--repeats", "5", "--shots", "500", "--seed", "2", "--output-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mean ratio" in printed
        assert (out / "eq3_counts.csv").exists()
        assert main(["plot", str(out)]) == 0
        assert (out / "eq3_probabilities.svg").exists()
        assert (out / "eq3_ratio_histogram.svg").exists()

    def test_plot_empty_dir_fails(self, tmp_path):
        assert main(["plot", str(tmp_path)]) == 2

    def test_env_var_default_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HHLSIM_OUTPUT_DIR", str(tmp_path / "from-env"))
        monkeypatch.chdir(tmp_path)
        assert main(["eq3", "--repeats", "2", "--shots", "100"]) == 0
        assert (tmp_path / "from-env" / "eq3_counts.csv").exists()


class TestSweepCommand:
    def test_sweep_with_overrides(self, tmp_path):
        config = {
            "families": [{"family": "diagonal"}],
            "sizes": [2],
            "methods": [{"method": "exact"}],
            "output_dir": str(tmp_path / "ignored"),
            "repeats": 5,
            "shots": 50,
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "actual"
        assert main(["sweep", str(config_path), "--output-dir", str(out), "--repeats", "2"]) == 0
        rows = (out / "rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # header + repeats rows

    def test_invalid_sweep_config(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps({"families": [], "sizes": [], "methods": [], "output_dir": "x"}))
        assert main(["sweep", str(config_path)]) == 2
        assert "error:" in capsys.readouterr().err
