"""The benchmark's own tests: smoke sizes of every workload, the checker,
and the refusals.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

EXPECTED_KINDS = {
    "core-churn": {"update", "read", "forest", "check"},
    "serve-mixed": {"write", "read", "version", "forest", "determinism"},
}


def _run(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=170,
    )


def _clean_env():
    env = dict(os.environ)
    for name in ("REPRO_BACKEND", "REPRO_FAST", "REPRO_STRICT", "REPRO_TRACE_WALL",
                 "REPRO_UPDATE_MIN_ROWS", "REPRO_PARALLEL_MIN_ROWS"):
        env.pop(name, None)
    return env


@pytest.mark.parametrize("workload", sorted(EXPECTED_KINDS))
def test_smoke_runs_clean_and_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", "0", "--size", "smoke", env=_clean_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    kinds = {line.split()[1].rstrip(":") for line in lines if line.startswith("ops ")}
    assert kinds == EXPECTED_KINDS[workload]
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_trace_prints_every_per_layer_metric():
    proc = _run("--workload", "serve-mixed", "--seed", "3", "--seconds", "2",
                "--trace", "1", "--size", "smoke", env=_clean_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # The split accounts for the wall time exactly, remainder included.
    parts = sum(v for k, v in metrics.items() if k.startswith("split.") and k != "split.wall_s")
    assert parts == pytest.approx(metrics["split.wall_s"], rel=1e-9)
    assert metrics["policy.cuts"] > 0 and metrics["parser.frames"] > 0


def test_same_seed_same_counts():
    a = workloads.core_churn(workloads.SMOKE["core-churn"], 5, 0.5)
    b = workloads.core_churn(workloads.SMOKE["core-churn"], 5, 0.5)
    assert a.rounds_per_update == b.rounds_per_update
    assert a.notes["init_rounds"] == b.notes["init_rounds"]


def test_serve_inputs_do_not_depend_on_run_length():
    size = workloads.SMOKE["serve-mixed"]
    import inputs
    import random

    initial = inputs.random_graph(size.n, size.m, random.Random(4))
    forest = oracle.kruskal(size.n, initial)
    short_ops, short_reads = workloads.serve_inputs(size, 4, 2.0, initial, forest)
    long_ops, long_reads = workloads.serve_inputs(size, 4, 5.0, initial, forest)
    assert long_ops[:len(short_ops)] == short_ops
    assert long_reads[:len(short_reads)] == short_reads


def test_tail_samples_count_one_stall_once():
    import run

    # 1000 fast reads, then five reads stalled behind one 50 ms cut and two
    # behind another: seven reads, but two independent samples, beyond the
    # 99th percentile.
    starts = [i * 1e-3 for i in range(1000)] + [1.0, 1.001, 1.002, 1.003, 1.004, 2.0, 2.001]
    delays = [1e-4] * 1000 + [0.050, 0.049, 0.048, 0.047, 0.046, 0.050, 0.049]
    assert run.tail_samples(delays, starts, 99, same_end=False) == 2
    # Visibility: updates installed at the same time share one sample.
    assert run.tail_samples([0.1, 0.2, 0.3, 0.3] + [0.01] * 40,
                            [5.0, 5.0, 6.0, 6.0] + list(range(40)), 90, same_end=True) == 2


def _event(before, after):
    return {
        "event": "msf_change", "version": 1,
        "added": [[u, v, w] for (u, v), w in sorted(after.items()) if (u, v) not in before],
        "removed": [[u, v] for (u, v) in sorted(before) if (u, v) not in after],
    }


def _two_versions():
    """A 6-vertex graph, one admitted insertion, and its forests."""
    initial = {(0, 1): 0.1, (1, 2): 0.2, (2, 3): 0.3, (3, 4): 0.4, (4, 5): 0.5, (0, 5): 0.9}
    op = ("add", 0, 3, 0.05)
    after = dict(initial)
    oracle.apply_op(after, op)
    return initial, op, after, oracle.kruskal(6, initial), oracle.kruskal(6, after)


def _read(u, v, version, in_forest, connected=True):
    return ((u, v), {"ok": True, "result": {"in_forest": in_forest,
                                           "connected": connected, "version": version}})


def test_checker_accepts_honest_versions_and_reads():
    initial, op, _after, before_f, after_f = _two_versions()
    res = workloads.Result()
    reads = [_read(0, 3, 1, True), _read(2, 3, 1, (2, 3) in after_f), _read(0, 1, 0, True)]
    workloads._check_versions(6, initial, [op], [_event(before_f, after_f)], [(1, 1)], reads, res)
    assert res.attempted["version"] == 1 and res.attempted["read"] == 3
    assert sum(res.failed.values()) == 0


def test_checker_catches_swapped_edge_and_wrong_read():
    initial, op, after, before_f, after_f = _two_versions()
    swapped = dict(after_f)
    swapped.pop((1, 2))                      # a forest edge out ...
    swapped[(2, 3)] = after[(2, 3)]          # ... a heavier non-forest edge in
    assert (1, 2) in after_f and (2, 3) not in after_f
    res = workloads.Result()
    wrong = _read(0, 3, 1, False)            # (0, 3) is in the version-1 forest
    workloads._check_versions(6, initial, [op], [_event(before_f, swapped)], [(1, 1)], [wrong], res)
    assert res.failed["version"] == 1
    assert res.failed["read"] == 1


def test_oracle_kruskal_matches_program_forest():
    from repro.core.api import DynamicMST
    from repro.graphs.graph import WeightedGraph
    import inputs
    import random

    edges = inputs.random_graph(60, 150, random.Random(2))
    g = WeightedGraph.from_edges(((u, v, w) for (u, v), w in edges.items()), range(60))
    dm = DynamicMST.build(g, 8, rng=2, init="distributed")
    got = {(e.u, e.v): e.weight for e in dm.msf_edges()}
    assert oracle.forest_diff(got, oracle.kruskal(60, edges)) == 0
    swapped = dict(got)
    swapped.pop(next(iter(got)))
    extra = next(p for p in edges if p not in got)
    swapped[extra] = edges[extra]
    assert oracle.forest_diff(swapped, oracle.kruskal(60, edges)) == 2


def test_refuses_engine_knobs():
    env = _clean_env()
    env["REPRO_FAST"] = "0"
    proc = _run("--workload", "core-churn", "--seed", "1", "--seconds", "1",
                "--size", "smoke", env=env)
    assert proc.returncode != 0
    assert "REPRO_FAST" in proc.stderr and not proc.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run("--workload", "core-churn", "--seed", "1", "--seconds", "1",
                env=_clean_env(), cwd=str(tmp_path))
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_spec_is_within_its_limits():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
