"""Trace mode: per-layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps the program's public functions at each layer
boundary (module attributes and class methods, restored afterwards),
times every asyncio task step by the coroutine that runs it, and times
the event loop's wait in its selector.  Spans nest on one stack — the
process has one thread and a task step never interleaves with another —
so a span's self time is its duration minus its children's.  Spans are
kept in memory and written out when the run ends, except the benchmark
client's task steps and the loop's selector waits, which are summed into
self time only (:data:`SELF_TIME_ONLY`).

It also attaches the program's own :class:`~repro.sim.metrics.PhaseProfiler`
(wall time per protocol phase) and
:class:`~repro.trace.recorder.TraceRecorder` (rounds per phase,
supersteps, cut events) to the measured core for the measured phase.

Tracing inside the program itself is left for a later change.
"""

from __future__ import annotations

import asyncio
import collections.abc
import functools
import io
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

perf = time.perf_counter

#: The protocol phases reported one by one (``phase.<name>.s`` / ``.rounds``).
PHASES = (
    "add.structural_update", "add.anchor_broadcast", "add.path_max_queries",
    "add.broadcast_updates", "del.structural_update", "del.lenzen_sort",
    "del.cc_mst", "del.broadcast_updates", "del.dedup_boundaries",
    "del.route_to_components",
)

#: Which task does which layer's work, by the coroutine a task runs.
TASK_LAYERS = {
    "ClientSession._reader": "serve.session",
    "ClientSession._writer": "serve.transport",
    "MSTDaemon._reduce_loop": "serve.reduce_loop",
}

#: The wall-time split: each entry sums the self time of these spans.
SPLIT = {
    "core": ("core.apply_batch",),
    "net": ("net.superstep",),
    "query": ("core.query",),
    "parser": ("parser.decode", "parser.encode"),
    "session": ("serve.session",),
    "view": ("view.lookup",),
    "reducer": ("reducer.submit", "serve.reduce_loop"),
    "coalescer": ("coalescer.admit", "coalescer.cut"),
    "publish": ("publish.capture", "publish.diff"),
    "fanout": ("fanout.encode", "fanout.push", "serve.transport"),
    "client": ("client",),
    "idle": ("loop.idle",),
}


#: Layers kept as self time only, with no span or duration per step: a
#: paced sender yields to the loop between due times, so at high request
#: rates the benchmark client's steps and the loop's selector polls number
#: in the millions per run.
SELF_TIME_ONLY = frozenset(("client", "loop.idle"))


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method), the median for q=50; 0 when empty."""
    if not values:
        return 0.0
    if q == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class _TimedCoro(collections.abc.Coroutine):
    """A coroutine whose every step is one span of ``layer``."""

    def __init__(self, tracer: "Tracer", coro, layer: str) -> None:
        self._tracer = tracer
        self._coro = coro
        self._layer = layer

    def send(self, value):
        tracer = self._tracer
        if not tracer.on:
            return self._coro.send(value)
        frame = tracer.enter(self._layer)
        try:
            return self._coro.send(value)
        finally:
            tracer.exit(frame)

    def throw(self, *exc):
        tracer = self._tracer
        if not tracer.on:
            return self._coro.throw(*exc)
        frame = tracer.enter(self._layer)
        try:
            return self._coro.throw(*exc)
        finally:
            tracer.exit(frame)

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self._coro.__await__()


class Tracer:
    """Spans, counters and the program's own profilers for one run."""

    def __init__(self) -> None:
        self.on = False
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.init_s: List[float] = []
        self.query_rounds = 0
        self.admit_wait: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._batch_columnar = False

    # -- spans --------------------------------------------------------
    def enter(self, layer: str) -> list:
        frame = [layer, perf(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf()
        dur = end - frame[1]
        self.stack.pop()
        layer = frame[0]
        self.self_s[layer] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if layer not in SELF_TIME_ONLY:
            self.durations[layer].append(dur)
            self.spans.append((layer, frame[1], dur, len(self.stack)))
        return dur

    def _set(self, owner, attr: str, value) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, layer: str, before=None, after=None) -> None:
        """Make ``owner.attr`` a span of ``layer`` while tracing is on."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            token = before(*args) if before is not None else None
            frame = tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
                if after is not None:
                    after(token, *args)

        self._set(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    # -- install / measured phase -------------------------------------
    def install(self) -> None:
        """Patch every layer boundary; spans record only between
        :meth:`start` and :meth:`stop`.  Call before set-up, so tasks and
        bound methods created during set-up go through the patches."""
        import repro.core.api as api
        import repro.perf.columnar as perf_columnar
        import repro.serve.server as server
        from repro.serve.view import ForestView
        from repro.serve.reducer import ServeReducer
        from repro.sim.network import Network
        from repro.stream.coalescer import CoalescingBuffer

        self.wrap(api.DynamicMST, "apply_batch", "core.apply_batch",
                  before=lambda dm, *a: self._batch_begin(),
                  after=lambda tok, dm, *a: self._batch_end())
        self.wrap(api.DynamicMST, "connected", "core.query",
                  before=lambda dm, *a: dm.net.ledger.rounds,
                  after=lambda r0, dm, *a: self._query_done(dm.net.ledger.rounds - r0))
        # ``repro.core.scripts.run_structural_batch`` imports the columnar
        # engine at call time, so this patch sees every batch it picks.
        columnar = perf_columnar.run_structural_batch_columnar

        def counted(*args, **kwargs):
            if self.on:
                self._batch_columnar = True
            return columnar(*args, **kwargs)

        self._set(perf_columnar, "run_structural_batch_columnar", counted)
        init = api.distributed_init

        def timed_init(*args, **kwargs):
            t0 = perf()
            try:
                return init(*args, **kwargs)
            finally:
                self.init_s.append(perf() - t0)

        self._set(api, "distributed_init", timed_init)
        self.wrap(Network, "superstep", "net.superstep")
        self.wrap(Network, "superstep_plane", "net.superstep")
        self.wrap(server, "decode_command", "parser.decode")
        self.wrap(server, "encode", "parser.encode")
        self.wrap(server, "encode_event", "fanout.encode")
        self.wrap(server.ClientSession, "push_event", "fanout.push")
        for name in ("in_forest", "same_component", "has_vertex"):
            self.wrap(ForestView, name, "view.lookup")
        self.wrap(ForestView, "capture", "publish.capture")
        self.wrap(ForestView, "diff", "publish.diff")
        self.wrap(ServeReducer, "submit", "reducer.submit")
        self.wrap(CoalescingBuffer, "admit", "coalescer.admit")
        self.wrap(CoalescingBuffer, "cut", "coalescer.cut")

    def install_loop(self) -> None:
        """Time every task step and the selector wait of the running loop."""
        loop = asyncio.get_running_loop()
        tracer = self

        def factory(loop, coro, **kwargs):
            layer = TASK_LAYERS.get(getattr(coro, "__qualname__", ""), "client")
            return asyncio.Task(_TimedCoro(tracer, coro, layer), loop=loop, **kwargs)

        self._patches.append((loop, "set_task_factory", loop.get_task_factory()))
        loop.set_task_factory(factory)
        selector = loop._selector  # the loop's wait for I/O or timers
        select = selector.select

        def timed_select(timeout=None):
            if not tracer.on:
                return select(timeout)
            frame = tracer.enter("loop.idle")
            try:
                return select(timeout)
            finally:
                tracer.exit(frame)

        self._patches.append((selector, "select", None))
        selector.select = timed_select

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if attr == "set_task_factory":
                owner.set_task_factory(raw)
            elif raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def start(self, dm, daemon=None, observer=None) -> None:
        from repro.sim.metrics import PhaseProfiler
        from repro.trace.recorder import TraceRecorder

        self.dm = dm
        self.daemon = daemon
        self.observer = observer
        ledger = dm.net.ledger
        self.ledger0 = (ledger.rounds, ledger.messages, ledger.words)
        self.profiler = PhaseProfiler()
        ledger.profiler = self.profiler
        self._buf = io.StringIO()
        self.recorder = TraceRecorder(self._buf)
        dm.attach_trace(self.recorder)
        if daemon is not None:
            reducer = daemon.reducer
            self.reducer0 = (
                reducer.rejected, reducer.buffer.admitted, reducer.buffer.absorbed, reducer.cuts,
            )
            self._wrap_admission(daemon.admission)
            if observer is not None:
                # The observer is benchmark code sitting on the reducer.
                self.wrap(daemon.reducer, "submit", "client")
        self.on = True
        self.t0 = perf()
        if daemon is None:
            # The library workload's driving loop is the benchmark client.
            self._client = self.enter("client")

    def stop(self) -> None:
        if self.daemon is None:
            self.exit(self._client)
        self.wall = perf() - self.t0
        self.on = False
        ledger = self.dm.net.ledger
        self.ledger1 = (ledger.rounds, ledger.messages, ledger.words)
        self.dm.detach_trace()
        ledger.profiler = None
        self.recorder.close()
        if self.daemon is not None:
            r = self.daemon.reducer
            self.reducer1 = (r.rejected, r.buffer.admitted, r.buffer.absorbed, r.cuts)

    def _batch_begin(self) -> None:
        self._batch_columnar = False

    def _batch_end(self) -> None:
        key = "perf.columnar" if self._batch_columnar else "perf.scalar"
        self.counts[key] += 1

    def _query_done(self, rounds: int) -> None:
        self.query_rounds += rounds

    def _wrap_admission(self, queue) -> None:
        stamps: Dict[int, float] = {}
        put, get = queue.put, queue.get
        tracer = self

        async def timed_put(item):
            if tracer.on and item is not None:
                stamps[id(item[2])] = perf()
            return await put(item)

        async def timed_get():
            item = await get()
            if item is not None:
                t = stamps.pop(id(item[2]), None)
                if t is not None and tracer.on:
                    tracer.admit_wait.append(perf() - t)
            return item

        self._patches.append((queue, "put", None))
        self._patches.append((queue, "get", None))
        queue.put, queue.get = timed_put, timed_get

    # -- results --------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """The recorded spans as JSON lines: layer, start, duration, depth."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, dur, depth in self.spans:
                fh.write(json.dumps([layer, round(start - self.t0, 9), round(dur, 9), depth]))
                fh.write("\n")

    def metrics(self, updates: int, res) -> Dict[str, float]:
        d = self.durations
        events = [json.loads(line) for line in self._buf.getvalue().splitlines() if line]
        phase_rounds: Dict[str, int] = defaultdict(int)
        top: set = set()
        supersteps = 0
        cuts: List[dict] = []
        for ev in events:
            kind = ev["type"]
            if kind == "phase_end":
                phase_rounds[ev["name"]] += ev["rounds"]
                if ev["depth"] == 0:
                    top.add(ev["name"])
            elif kind == "superstep":
                supersteps += 1
            elif kind == "sched_cut":
                cuts.append(ev)
        prof = self.profiler.phases
        busy = sum(d["core.apply_batch"])
        out: Dict[str, float] = {
            "core.batches": len(d["core.apply_batch"]),
            "core.batch_p50_ms": percentile(d["core.apply_batch"], 50) * 1e3,
            "core.busy_s": busy,
            "core.unphased_s": busy - sum(prof[p].wall_s for p in top if p in prof),
        }
        for p in PHASES:
            out[f"phase.{p}.s"] = prof[p].wall_s if p in prof else 0.0
            out[f"phase.{p}.rounds"] = phase_rounds.get(p, 0)
        per = max(updates, 1)
        out.update({
            "net.supersteps": supersteps,
            # Self time: a plane superstep that delegates is counted once.
            "net.superstep_s": self.self_s["net.superstep"],
            "net.messages_per_update": (self.ledger1[1] - self.ledger0[1]) / per,
            "net.words_per_update": (self.ledger1[2] - self.ledger0[2]) / per,
            "perf.columnar_batches": self.counts["perf.columnar"],
            "perf.scalar_batches": self.counts["perf.scalar"],
            "init.s": statistics.median(self.init_s) if self.init_s else 0.0,
            "init.rounds": res.notes.get("init_rounds", 0),
            "query.reads": len(d["core.query"]),
            "query.p50_ms": percentile(d["core.query"], 50) * 1e3,
            "query.rounds_per_read": self.query_rounds / max(len(d["core.query"]), 1),
            "parser.frames": len(d["parser.decode"]),
            "parser.decode_us": _mean(d["parser.decode"]) * 1e6,
            "parser.encode_us": _mean(d["parser.encode"]) * 1e6,
            "admit.wait_p50_ms": percentile(self.admit_wait, 50) * 1e3,
            "admit.wait_p99_ms": percentile(self.admit_wait, 99) * 1e3,
            "view.lookups": len(d["view.lookup"]),
            "view.lookup_us": _mean(d["view.lookup"]) * 1e6,
            "reducer.submits": len(d["reducer.submit"]),
            "reducer.self_us": self.self_s["reducer.submit"] / max(len(d["reducer.submit"]), 1) * 1e6,
            "reducer.stall_p99_ms": percentile(d["reducer.submit"], 99) * 1e3,
        })
        if self.daemon is not None:
            r0, r1 = self.reducer0, self.reducer1
            out.update({
                "reducer.rejected": r1[0] - r0[0],
                "coalescer.admitted": r1[1] - r0[1],
                "coalescer.absorbed": r1[2] - r0[2],
                "policy.cuts": r1[3] - r0[3],
            })
        else:
            out.update({"reducer.rejected": 0, "coalescer.admitted": 0,
                        "coalescer.absorbed": 0, "policy.cuts": 0})
        out.update({
            "coalescer.cut_us": _mean(d["coalescer.cut"]) * 1e6,
            "policy.updates_per_cut": _mean([c["shipped"] for c in cuts]),
            "policy.batches_per_cut": _mean([c["batches"] for c in cuts]),
            "publish.capture_ms": _mean(d["publish.capture"]) * 1e3,
            "publish.diff_ms": _mean(d["publish.diff"]) * 1e3,
            "fanout.events": len(d["fanout.push"]),
            "fanout.encode_us": _mean(d["fanout.encode"]) * 1e6,
            "fanout.deliver_p50_ms": percentile(self._deliveries(res), 50) * 1e3,
        })
        split = {name: sum(self.self_s[l] for l in layers) for name, layers in SPLIT.items()}
        out["client.busy_s"] = split["client"]
        out["client.late_p99_ms"] = percentile(res.notes.get("late_s", []), 99) * 1e3
        for name, value in split.items():
            out[f"split.{name}_s"] = value
        out["split.unattributed_s"] = self.wall - sum(split.values())
        out["split.wall_s"] = self.wall
        return out

    def _deliveries(self, res) -> List[float]:
        obs = self.observer
        if obs is None:
            return []
        out = []
        for version, t in res.notes["subscriber"].arrivals:
            t_pub = obs.publish_t.get(version)
            if t_pub is not None and t_pub >= self.t0:
                out.append(t - t_pub)
        return out
