"""Fast checks of the benchmark itself: metric names, gate, tracer."""

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from gate import check_result, check_row, make_oracle  # noqa: E402
from layers import PER_LAYER, hooks, layer_metrics  # noqa: E402
from tracer import Hook, Span, Tracer, self_time  # noqa: E402

from hhlsim import families, pipeline  # noqa: E402


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_emitted_metric_names_equal_benchmark_json():
    assert run.END_TO_END == _declared("end_to_end")
    assert list(run.END_TO_END) == run.declared_metrics(trace=False)
    assert PER_LAYER == _declared("per_layer")
    assert list(PER_LAYER) == run.declared_metrics(trace=True)


def test_layer_metrics_cover_every_per_layer_name_but_the_run_level_ones():
    run_level = {
        "hamiltonian.controlled_u_count",
        "hamiltonian.elementary_exp_count",
        "sweep.cells",
        "sweep.cache_hit_cells",
        "trace.overhead_share",
    }
    assert set(layer_metrics([])) == set(PER_LAYER) - run_level


@pytest.fixture(scope="module")
def solved():
    problem = families.generate(families.FamilySpec("dense", 8, seed=3))
    result = pipeline.run_hhl(problem, pipeline.HhlConfig(method="exact"))
    return result, make_oracle(problem.matrix, problem.rhs)


def test_gate_passes_a_correct_on_grid_solve(solved):
    result, oracle = solved
    assert check_result(result, oracle, 1 - 1e-9, on_grid_exact=True) == []


def test_gate_rejects_a_perturbed_solution_vector(solved):
    result, oracle = solved
    noise = np.random.default_rng(0).standard_normal(result.solution_amplitudes.shape)
    perturbed = result.solution_amplitudes + 0.05 * noise
    bad = replace(result, solution_amplitudes=perturbed / np.linalg.norm(perturbed))
    problems = check_result(bad, oracle, 1 - 1e-9, on_grid_exact=True)
    assert any("below floor" in p for p in problems)
    assert any("disagrees with oracle" in p for p in problems)


def test_gate_rejects_a_wrong_controlled_u_count(solved):
    result, oracle = solved
    cost = replace(result.cost, controlled_u_count=result.cost.controlled_u_count + 1)
    problems = check_result(replace(result, cost=cost), oracle, 1 - 1e-9, on_grid_exact=True)
    assert any("controlled_u_count" in p for p in problems)
    row = {"error": "", "fidelity": "1.0", "controlled_u_count": "15"}
    assert any("controlled_u_count" in p for p in check_row(row, 0.99))
    assert check_row(dict(row, controlled_u_count="14"), 0.99) == []


def test_self_time_on_a_nested_span_tree():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, parent=root)
    b = Span("b", 3.0, 5.0, parent=root)  # overlaps a, as pool threads can
    c = Span("c", 6.0, 7.0, parent=root)
    late = Span("late", 9.5, 12.0, parent=root)  # clipped at the root's end
    grandchild = Span("g", 1.5, 2.0, parent=a)
    assert self_time(root, [a, b, c, late]) == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert self_time(a, [grandchild]) == pytest.approx(2.5)
    assert self_time(c, []) == pytest.approx(1.0)


def test_missing_hook_is_reported_absent_and_present_ones_still_trace():
    module = types.SimpleNamespace(__name__="fake", present=lambda x: x + 1)
    tracer = Tracer([Hook(module, "present", "fake.present"), Hook(module, "gone", "fake.gone")])
    assert tracer.absent() == ["fake.gone"]
    with tracer.active():
        assert module.present(1) == 2
    assert not hasattr(module, "gone")
    assert [s.name for s in tracer.spans] == ["fake.present"]
    assert module.present(1) == 2 and len(tracer.spans) == 1  # restored


def test_reentrant_override_counts_only_the_outermost_span():
    class Base:
        def step(self):
            return 1

    class Child(Base):
        def step(self):
            return super().step() + 1

    tracer = Tracer([Hook(Base, "step", "step"), Hook(Child, "step", "step")])
    with tracer.active():
        assert Child().step() == 2
        assert Base().step() == 1
    assert [s.parent for s in tracer.spans] == [None, None]
    assert len(tracer.spans) == 2


def test_every_hhlsim_hook_installs_or_is_reported_absent():
    # Which targets exist depends on the program; a renamed or deleted one
    # must show as absent, and every other one must be wrapped and restored.
    import hhlsim

    tracer = Tracer(hooks(hhlsim))
    assert len(tracer.status) == len(tracer.hooks)  # no target hooked twice
    absent = set(tracer.absent())
    originals = {h.target: vars(h.owner)[h.attr] for h in tracer.hooks if h.target not in absent}
    with tracer.active():
        for hook in tracer.hooks:
            if hook.target in absent:
                assert hook.attr not in vars(hook.owner)
            else:
                assert vars(hook.owner)[hook.attr] is not originals[hook.target]
    assert all(vars(h.owner)[h.attr] is originals[h.target] for h in tracer.hooks if h.target not in absent)


def test_sweep_resolve_rejects_a_row_that_disagrees_with_its_re_solve():
    import hhlsim

    config = run.WORKLOADS["sweep-serial"].setup(hhlsim, seed=1)
    template, size, method = config.cells()[0]
    seed = config.base_seed
    result = pipeline.run_hhl(
        families.generate(template.spec(size, seed)),
        pipeline.HhlConfig(method=method.method, shots=config.shots, seed=seed),
    )
    row = {"seed": str(seed), "fidelity": repr(result.fidelity),
           "controlled_u_count": str(result.cost.controlled_u_count)}
    out = run.Outcome()
    assert run.SweepWorkload._resolve(hhlsim, config, template, size, method, row, out) == []
    bad = dict(row, fidelity=repr(result.fidelity - 1e-6),
               controlled_u_count=str(result.cost.controlled_u_count + 2))
    problems = run.SweepWorkload._resolve(hhlsim, config, template, size, method, bad, out)
    assert any("row fidelity" in p for p in problems)
    assert any("row controlled_u_count" in p for p in problems)
