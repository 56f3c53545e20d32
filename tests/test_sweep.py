import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hhlsim import sweep
from hhlsim.pipeline import HhlConfig, result_to_json, run_hhl
from hhlsim.sweep import (
    ROW_COLUMNS,
    SUMMARY_COLUMNS,
    FamilyTemplate,
    MethodConfig,
    SweepConfig,
    demo_problem,
    run_eq3_experiment,
    run_sweep,
    summarize_rows,
    sweep_config_from_json,
    sweep_config_to_json,
)


def tiny_config(output_dir, **overrides):
    base = dict(
        families=[FamilyTemplate(family="diagonal"), FamilyTemplate(family="dense")],
        sizes=[2, 4],
        methods=[MethodConfig(method="exact")],
        output_dir=str(output_dir),
        repeats=3,
        shots=100,
        base_seed=0,
    )
    base.update(overrides)
    return SweepConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunSweep:
    def test_schema_and_cell_order(self, tmp_path):
        rows_path, summary_path = run_sweep(tiny_config(tmp_path / "out"))
        with open(rows_path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ROW_COLUMNS
        rows = read_rows(rows_path)
        assert len(rows) == 2 * 2 * 1 * 3  # families x sizes x methods x repeats
        cells = [(r["family"], r["N"], r["method"]) for r in rows]
        expected = [
            (fam, str(n), "exact")
            for fam in ("diagonal", "dense")
            for n in (2, 4)
            for _ in range(3)
        ]
        assert cells == expected
        seeds = [int(r["seed"]) for r in rows[:3]]
        assert seeds == [0, 1, 2]
        with open(summary_path, newline="") as fh:
            sheader = next(csv.reader(fh))
        assert sheader == SUMMARY_COLUMNS

    def test_fidelity_one_for_identity_like_cells(self, tmp_path):
        rows_path, _ = run_sweep(tiny_config(tmp_path / "out"))
        for row in read_rows(rows_path):
            assert row["error"] == ""
            assert float(row["fidelity"]) >= 1 - 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        p1, s1 = run_sweep(tiny_config(tmp_path / "a"))
        p2, s2 = run_sweep(tiny_config(tmp_path / "b"))
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_byte_identical_across_processes(self, tmp_path):
        # The CSV contract rests on LAPACK returning the same bits for the
        # same input in a fresh interpreter; degenerate spectra (diagonal,
        # dense) are where its choice of eigenbasis would show.
        script = (
            "import sys\n"
            "from hhlsim.sweep import FamilyTemplate, MethodConfig, SweepConfig, run_sweep\n"
            "run_sweep(SweepConfig(\n"
            "    families=[FamilyTemplate('diagonal'), FamilyTemplate('dense')],\n"
            "    sizes=[8, 16],\n"
            "    methods=[MethodConfig('exact'), MethodConfig('block')],\n"
            "    output_dir=sys.argv[1], repeats=2, base_seed=11,\n"
            "))\n"
        )
        src = str(Path(sweep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=60)
            outputs.append(((out / "rows.csv").read_bytes(), (out / "summary.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == 1 + 2 * 2 * 2 * 2

    def test_resume_reuses_complete_cells(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        rows_path, _ = run_sweep(config)
        full = rows_path.read_bytes()
        # drop the last cell's rows to simulate an interrupted sweep
        lines = full.decode().splitlines()
        truncated = "\n".join(lines[: 1 + 3 * 3]) + "\n"
        rows_path.write_text(truncated)
        rows_path2, _ = run_sweep(config)
        assert rows_path2.read_bytes() == full

    def test_resume_recomputes_cells_with_other_seeds(self, tmp_path):
        run_sweep(tiny_config(tmp_path / "out", base_seed=0))
        rows_path, _ = run_sweep(tiny_config(tmp_path / "out", base_seed=100))
        rows = read_rows(rows_path)
        assert len(rows) == 2 * 2 * 3
        assert [r["seed"] for r in rows] == ["100", "101", "102"] * 4
        fresh, _ = run_sweep(tiny_config(tmp_path / "fresh", base_seed=100))
        assert rows_path.read_bytes() == fresh.read_bytes()

    def test_interrupt_keeps_cached_cells_after_the_failing_one(self, tmp_path, monkeypatch):
        # Cells run family-major: diagonal N=2 is fresh and sits before the
        # cached N=4 cells of both families.
        config = tiny_config(tmp_path / "out")
        cached_path, _ = run_sweep(tiny_config(tmp_path / "out", sizes=[4]))
        cached = read_rows(cached_path)
        real_run_cell = sweep._run_cell
        computed = []

        def interrupted(config, template, size, method):
            if size == 2:
                raise KeyboardInterrupt
            return real_run_cell(config, template, size, method)

        monkeypatch.setattr(sweep, "_run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(config)
        assert read_rows(cached_path) == cached

        def counting(config, template, size, method):
            computed.append((template.family, size))
            return real_run_cell(config, template, size, method)

        monkeypatch.setattr(sweep, "_run_cell", counting)
        rows_path, _ = run_sweep(config)
        assert computed == [("diagonal", 2), ("dense", 2)]
        fresh, _ = run_sweep(tiny_config(tmp_path / "fresh"))
        assert rows_path.read_bytes() == fresh.read_bytes()

    def test_interrupt_keeps_cells_finished_before_it(self, tmp_path, monkeypatch):
        real_run_cell = sweep._run_cell

        def interrupted(config, template, size, method):
            if template.family == "dense" and size == 4:
                raise KeyboardInterrupt
            return real_run_cell(config, template, size, method)

        monkeypatch.setattr(sweep, "_run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(tiny_config(tmp_path / "out"))
        rows = read_rows(tmp_path / "out" / "rows.csv")
        cells = [(r["family"], r["N"]) for r in rows[::3]]
        assert cells == [("diagonal", "2"), ("diagonal", "4"), ("dense", "2")]
        assert not (tmp_path / "out" / "rows.csv.tmp").exists()

    def test_checkpoint_holds_cells_finished_before_a_hard_kill(self, tmp_path, monkeypatch):
        # With a zero interval every fresh cell is checkpointed, so while a
        # cell runs the file on disk already holds every cell before it.
        monkeypatch.setattr(sweep, "CHECKPOINT_INTERVAL_S", 0.0)
        real_run_cell = sweep._run_cell
        rows_path = tmp_path / "out" / "rows.csv"
        on_disk = []

        def snapshot(config, template, size, method):
            rows = read_rows(rows_path) if rows_path.exists() else []
            on_disk.append([(r["family"], r["N"]) for r in rows[::3]])
            return real_run_cell(config, template, size, method)

        monkeypatch.setattr(sweep, "_run_cell", snapshot)
        run_sweep(tiny_config(tmp_path / "out"))
        done = [("diagonal", "2"), ("diagonal", "4"), ("dense", "2")]
        assert on_disk == [done[:i] for i in range(4)]

    def test_errors_recorded_not_raised(self, tmp_path):
        config = tiny_config(
            tmp_path / "out",
            families=[FamilyTemplate(family="moderate")],
            sizes=[4],  # moderate needs dim >= 8: every instance errors
        )
        rows_path, summary_path = run_sweep(config)
        rows = read_rows(rows_path)
        assert len(rows) == 3
        assert all("InfeasibleSpec" in r["error"] for r in rows)
        summary = read_rows(summary_path)
        assert summary[0]["errors"] == "3"
        assert summary[0]["fidelity_mean"] == ""

    def test_unexpected_exception_recorded_not_raised(self, tmp_path, monkeypatch):
        real_run_hhl = sweep.run_hhl

        def failing_on_seed_one(problem, config):
            if config.seed == 1:
                raise RuntimeError("backend exploded")
            return real_run_hhl(problem, config)

        monkeypatch.setattr(sweep, "run_hhl", failing_on_seed_one)
        config = tiny_config(tmp_path / "out", families=[FamilyTemplate(family="dense")], sizes=[4])
        rows_path, summary_path = run_sweep(config)
        rows = read_rows(rows_path)
        assert [r["error"] for r in rows] == ["", "RuntimeError: backend exploded", ""]
        assert rows[0]["fidelity"] and not rows[1]["fidelity"]
        summary = read_rows(summary_path)
        assert summary[0]["errors"] == "1"

    def test_summary_matches_independent_recompute(self, tmp_path):
        rows_path, summary_path = run_sweep(tiny_config(tmp_path / "out"))
        rows = read_rows(rows_path)
        summary = read_rows(summary_path)
        recomputed = summarize_rows(rows)
        assert len(recomputed) == len(summary)
        for got, expect in zip(summary, recomputed):
            for key in ("fidelity_mean", "fidelity_std", "success_probability_mean"):
                assert float(got[key]) == pytest.approx(float(expect[key]), abs=1e-12)

    def test_max_qubits_guard(self, tmp_path):
        config = tiny_config(tmp_path / "out", sizes=[1024], max_qubits=10)
        with pytest.raises(ValueError, match="max_qubits"):
            run_sweep(config)

    def test_size_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(tiny_config(tmp_path / "out", sizes=[3]))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (
                dict(families=[FamilyTemplate("dense", kappa_target=2.0), FamilyTemplate("dense", kappa_target=20.0)]),
                "('dense', 2, 'exact')",
            ),
            (
                dict(methods=[MethodConfig("block", taylor_k=30), MethodConfig("block", taylor_k=30, n_c=5)]),
                "('diagonal', 2, 'block-k30')",
            ),
        ],
        ids=["two-templates-of-one-family", "methods-differing-only-in-n_c"],
    )
    def test_cells_sharing_a_row_key_rejected(self, tmp_path, overrides, key):
        config = tiny_config(tmp_path / "out", sizes=[2, 4], **overrides)
        with pytest.raises(ValueError, match=re.escape(key)):
            run_sweep(config)
        assert not (tmp_path / "out").exists()

    def test_distinct_labels_keep_cells_apart(self, tmp_path):
        methods = [MethodConfig("block", taylor_k=30), MethodConfig("block", taylor_k=30, n_c=5, label="block-k30-nc5")]
        _, summary_path = run_sweep(tiny_config(tmp_path / "out", sizes=[2], methods=methods, repeats=2))
        assert [r["instances"] for r in read_rows(summary_path)] == ["2"] * 4

    def test_workers_agree_with_serial(self, tmp_path):
        serial = tiny_config(tmp_path / "serial")
        threaded = tiny_config(tmp_path / "threaded", workers=4)
        p1, _ = run_sweep(serial)
        p2, _ = run_sweep(threaded)
        assert p1.read_bytes() == p2.read_bytes()


class TestSweepConfigJson:
    def test_round_trip(self, tmp_path):
        config = tiny_config(tmp_path / "out", repeats=7, timing=True)
        doc = sweep_config_to_json(config)
        again = sweep_config_from_json(doc)
        assert again == config

    def test_defaults(self):
        config = sweep_config_from_json(
            {
                "families": [{"family": "diagonal"}],
                "sizes": [2],
                "methods": [{"method": "exact"}],
                "output_dir": "x",
            }
        )
        assert config.repeats == 50
        assert config.shots == 10_000
        assert config.timing is False

    def test_sizes_coerced_and_missing_fields_raise_key_error(self):
        doc = {
            "families": [{"family": "diagonal", "extra": 1}],
            "sizes": ["4", 8],
            "methods": [{}],
            "output_dir": "x",
        }
        config = sweep_config_from_json(doc)
        assert config.sizes == [4, 8]
        assert config.families == [FamilyTemplate("diagonal")]
        assert config.methods == [MethodConfig()]
        # a KeyError is what the CLI turns into exit code 2
        with pytest.raises(KeyError, match="family"):
            sweep_config_from_json(dict(doc, families=[{"kappa_target": 2.0}]))
        with pytest.raises(KeyError, match="output_dir"):
            sweep_config_from_json({k: v for k, v in doc.items() if k != "output_dir"})

    def test_document_with_a_removed_key_loads(self):
        # sweep documents written while SweepConfig had cell_timeout_s still load
        doc = dict(sweep_config_to_json(tiny_config("x")), cell_timeout_s=600.0)
        assert sweep_config_from_json(doc) == tiny_config("x")
        assert "cell_timeout_s" not in sweep_config_to_json(tiny_config("x"))


class TestEq3Experiment:
    def test_outputs_and_statistics(self, tmp_path):
        summary = run_eq3_experiment(tmp_path / "eq3", repeats=20, shots=10_000, seed=0)
        assert summary.counts_csv.exists() and summary.ratios_csv.exists()
        rows = read_rows(summary.counts_csv)
        assert len(rows) == 20
        assert int(rows[0]["count_0"]) + int(rows[0]["count_1"]) == 10_000
        assert summary.mean_p0 == pytest.approx(0.8, abs=0.02)
        assert summary.mean_ratio == pytest.approx(4.0, abs=0.4)

    def test_deterministic_bytes(self, tmp_path):
        s1 = run_eq3_experiment(tmp_path / "a", repeats=5, shots=1000, seed=3)
        s2 = run_eq3_experiment(tmp_path / "b", repeats=5, shots=1000, seed=3)
        assert s1.counts_csv.read_bytes() == s2.counts_csv.read_bytes()
        assert s1.ratios_csv.read_bytes() == s2.ratios_csv.read_bytes()

    def test_seed_changes_counts(self, tmp_path):
        s1 = run_eq3_experiment(tmp_path / "a", repeats=2, shots=1000, seed=0)
        s2 = run_eq3_experiment(tmp_path / "b", repeats=2, shots=1000, seed=99)
        assert s1.counts_csv.read_bytes() != s2.counts_csv.read_bytes()


class TestSweepParityTool:
    @staticmethod
    def tool():
        path = Path(__file__).resolve().parents[1] / "tools" / "sweep_parity.py"
        spec = importlib.util.spec_from_file_location("sweep_parity", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_float_drift_is_measured_and_exact_columns_must_match(self, tmp_path):
        compare = self.tool().compare_csv
        header = "family,N,fidelity,error\n"
        files = {
            "base": "dense,8,0.5,\n",
            "drift": "dense,8,0.50000001,\n",
            "other": "dense,16,0.5,ValueError: x\n",
        }
        for name, row in files.items():
            (tmp_path / name).write_text(header + row)
        assert compare(tmp_path / "base", tmp_path / "base") == (True, {"fidelity": 0.0}, [])
        identical, diffs, mismatched = compare(tmp_path / "base", tmp_path / "drift")
        assert not identical and mismatched == []
        assert diffs["fidelity"] == pytest.approx(1e-8)
        assert compare(tmp_path / "base", tmp_path / "other")[2] == ["N", "error"]

    def test_solve_drift_is_measured_and_a_cost_mismatch_is_flagged(self):
        compare = self.tool().compare_solves
        result = result_to_json(run_hhl(demo_problem(), HhlConfig(method="exact")))
        case = {"family": "dense", "N": 2, "method": "exact", "seed": 0, "config": {}}
        base = dict(case, result=result)
        drift = json.loads(json.dumps(base))
        drift["result"]["solution_amplitudes"]["re"][0] += 1e-9
        drift["result"]["fidelity"] -= 1e-12
        methods, mismatched = compare([base], [drift])
        assert mismatched == [] and not methods["exact"]["bitwise"]
        assert methods["exact"]["amplitudes"] == pytest.approx(1e-9, rel=1e-6)
        assert methods["exact"]["scalars"] == pytest.approx(1e-12, rel=1e-3)
        assert compare([base], [base])[0]["exact"] == {"bitwise": True, "amplitudes": 0.0, "scalars": 0.0}
        costly = json.loads(json.dumps(base))
        costly["result"]["cost"]["elementary_exp_count"] += 1
        assert compare([base], [costly])[1] == ["dense/N=2/exact/seed=0: cost"]
        failed = dict(case, error="ZeroEigenvalueBin: x")
        assert compare([base], [failed])[1] == ["dense/N=2/exact/seed=0: error"]
