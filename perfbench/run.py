"""The repository's benchmark: one command, two workloads, seven metrics.

    python3 perfbench/run.py --workload core-churn --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  It builds nothing: the program is the
pure-Python package under ``src/``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it count attempted and failed operations
per kind.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
runs the workload untraced and then traced with the same seed and
reports the per-layer metrics, the wall-time split and how far each
end-to-end metric moved under tracing.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Knobs that select a non-default engine path.  The benchmark measures
#: the default path only, so it refuses to run with any of them set.
REFUSED_ENV = (
    "REPRO_BACKEND", "REPRO_FAST", "REPRO_STRICT", "REPRO_TRACE_WALL",
    "REPRO_UPDATE_MIN_ROWS", "REPRO_PARALLEL_MIN_ROWS",
)

E2E_UNITS = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "rounds_per_update": "rounds",
    "visible_p50_ms": "ms",
    "visible_p90_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
}


def end_to_end(res) -> dict:
    """The seven end-to-end metrics of one run."""
    from tracing import percentile

    return {
        "setup_s": statistics.median(res.setup_s),
        "updates_per_s": res.updates / res.window_s,
        "rounds_per_update": res.rounds_per_update,
        "visible_p50_ms": percentile(res.visible_s, 50) * 1e3,
        "visible_p90_ms": percentile(res.visible_s, 90) * 1e3,
        "read_p50_ms": percentile(res.read_s, 50) * 1e3,
        "read_p99_ms": percentile(res.read_s, 99) * 1e3,
    }


def tail_samples(delays, starts, q: int, same_end: bool) -> int:
    """How many independent samples lie beyond the q-th percentile.

    Samples that waited on one stall count once.  With ``same_end`` a
    sample ends at ``starts[i]``, and samples that end together (the
    updates one batch or cut installed) share a stall.  Otherwise a sample
    runs from ``starts[i]`` for ``delays[i]``, and one that started before
    an earlier tail sample ended waited on the same stall as it.
    """
    from tracing import percentile

    cut = percentile(delays, q)
    tail = [(s, d) for s, d in zip(starts, delays) if d > cut]
    if same_end:
        return len({s for s, _d in tail})
    stalls, end = 0, float("-inf")
    for s, d in sorted(tail):
        if s >= end:
            stalls += 1
        end = max(end, s + d)
    return stalls


def tail_counts(res) -> dict:
    """Independent samples beyond each named tail percentile of one run."""
    return {
        "visible_p90": tail_samples(res.visible_s, res.visible_at, 90, same_end=True),
        "read_p99": tail_samples(res.read_s, res.read_at, 99, same_end=False),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args(argv)

    set_knobs = [name for name in REFUSED_ENV if os.environ.get(name) is not None]
    if set_knobs:
        print(f"refusing to run with {', '.join(set_knobs)} set: the benchmark "
              "measures the default engine path", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    size = (workloads.FULL if args.size == "full" else workloads.SMOKE)[args.workload]
    run = workloads.WORKLOADS[args.workload]

    res = run(size, args.seed, args.seconds)
    e2e = end_to_end(res)
    attempted, failed = res.attempted, res.failed
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run(size, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        moved = end_to_end(traced)
        layer = tracer.metrics(traced.updates, traced)
        for name, value in e2e.items():
            layer[f"moved.{name}"] = moved[name] / value - 1 if value else 0.0
        tracer.write_spans(os.path.join(
            HERE, ".out", f"spans-{args.workload}-{args.seed}.jsonl"))
        attempted = attempted + traced.attempted
        failed = failed + traced.failed
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layer.items()}

    for kind in sorted(attempted):
        print(f"ops {kind}: attempted {attempted[kind]} failed {failed[kind]}")
    if res.notes["rounds_updates"] < size.rounds_updates:
        print(f"warning: rounds_per_update covers only {res.notes['rounds_updates']} of "
              f"{size.rounds_updates} updates; it matches other runs only at this length",
              file=sys.stderr)
    tails = tail_counts(res)
    for name, count in tails.items():
        if count < 10:
            print(f"warning: only {count} independent samples beyond {name}", file=sys.stderr)
    notes = {k: v for k, v in res.notes.items() if k not in ("subscriber", "late_s")}
    notes["tail_samples"] = tails
    print("notes " + json.dumps(notes, sort_keys=True))
    total_failed = sum(failed.values())
    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": sum(attempted.values()),
        "failed": total_failed,
        "metrics": metrics,
    }))
    return 0


LAYER_UNITS = {
    "net.messages_per_update": "messages/update",
    "net.words_per_update": "words/update",
    "policy.updates_per_cut": "updates/cut",
    "policy.batches_per_cut": "batches/cut",
    "query.rounds_per_read": "rounds/read",
}


def _layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.startswith("moved."):
        return "ratio"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), (".s", "s"), ("rounds", "rounds")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
