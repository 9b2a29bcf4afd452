"""The workloads: core-churn and serve-mixed.

Each workload generates its inputs from the seed, warms the program up on
a throw-away instance, times set-up several times, runs its measured
phase for the requested wall time, and only then checks every output
against :mod:`oracle`.  A workload returns a :class:`Result`; turning it
into metrics is :func:`run.end_to_end`'s job.

The program is driven through its public entry points only:
``DynamicMST.build`` / ``apply_batch`` / ``connected`` / ``check`` on the
library path, and ``ServeConfig``, ``MSTDaemon(...).start`` /
``connect_memory`` / ``shutdown``, ``ServeClient`` and
``verify_determinism`` on the daemon path.  Serve clients are coroutines
on the daemon's own event loop over in-memory transports: no sockets,
threads or subprocesses, so the OS scheduler never arbitrates between
the load and the daemon.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import inputs
import oracle

K = 8
#: A reply that has not come after this long is counted as failed, and a
#: daemon run that has not ended after RUN_LIMIT_S is abandoned, so a hung
#: program ends the benchmark instead of stalling it.
STUCK_S = 30.0
RUN_LIMIT_S = 150.0
#: serve-mixed: writes per hot set of HOT_PAIRS pairs, and the
#: order in which a hot set's pairs are written.  The order is the same
#: for every seed, so the share the coalescer absorbs does not depend on
#: the seed; the seed picks the pairs and the weights.
HOT_SPAN = 12
HOT_PAIRS = 6


def _hot_order(repeat: float = 0.6) -> tuple:
    """Each write re-toggles one of the two pairs written last with
    probability ``repeat``, else a uniformly chosen pair of the hot set."""
    rng = random.Random(HOT_SPAN)
    out: List[int] = []
    for _ in range(HOT_SPAN):
        if len(out) >= 2 and rng.random() < repeat:
            out.append(rng.choice(out[-2:]))
        else:
            out.append(rng.randrange(HOT_PAIRS))
    return tuple(out)


HOT_ORDER = _hot_order()
perf = time.perf_counter


@dataclass(frozen=True)
class Size:
    """How big one workload is; ``FULL`` is the benchmark, ``SMOKE`` the tests."""

    n: int
    m: int
    setups: int                 # timed set-ups; setup_s is their median
    rounds_updates: int         # rounds_per_update covers the first this-many updates
    reads_per_batch: int = 0    # core-churn: charged connected() reads after each batch
    write_rate: float = 0.0     # serve-mixed: paced writes per second
    read_rate: float = 0.0      # paced in-forest reads per second


FULL: Dict[str, Size] = {
    "core-churn": Size(n=2000, m=6000, setups=3, rounds_updates=1024, reads_per_batch=48),
    "serve-mixed": Size(
        n=1000, m=3000, setups=5, rounds_updates=800,
        write_rate=20.0, read_rate=2000.0,
    ),
}

SMOKE: Dict[str, Size] = {
    "core-churn": Size(n=120, m=360, setups=2, rounds_updates=64, reads_per_batch=8),
    "serve-mixed": Size(
        n=120, m=360, setups=2, rounds_updates=16,
        write_rate=40.0, read_rate=300.0,
    ),
}


@dataclass
class Result:
    """What one measured run observed, before it becomes metrics."""

    setup_s: List[float] = field(default_factory=list)
    updates: int = 0                       # applied (core) or acknowledged in time (serve)
    window_s: float = 0.0                  # the wall time ``updates`` were counted over
    rounds_per_update: float = 0.0
    visible_s: List[float] = field(default_factory=list)
    visible_at: List[float] = field(default_factory=list)  # install time of each visible_s sample
    read_s: List[float] = field(default_factory=list)
    read_at: List[float] = field(default_factory=list)     # send (due) time of each read_s sample
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    notes: Dict[str, object] = field(default_factory=dict)


def _settle() -> None:
    """Collect garbage left by the previous step so it is not charged to the next."""
    gc.collect()


# ----------------------------------------------------------------------
# core-churn: the library path of Theorem 6.1
# ----------------------------------------------------------------------

def core_churn(size: Size, seed: int, seconds: float, tracer=None) -> Result:
    from repro.core.api import DynamicMST
    from repro.graphs.graph import WeightedGraph
    from repro.graphs.streams import Update

    rng = random.Random(seed)
    edges = inputs.random_graph(size.n, size.m, rng)
    # 40 batches/s is several times the measured rate; the cap only
    # bounds generation, it never ends a run early in practice.
    n_batches = max(size.rounds_updates // K, math.ceil(40 * seconds))
    plan = inputs.churn_batches(size.n, edges, oracle.kruskal(size.n, edges), n_batches, K, rng)
    # Reads draw from their own generator, so the same seed gives the same
    # batches and reads in the same order whatever ``seconds`` is.
    read_rng = random.Random(seed * 7919 + 1)
    reads = [inputs.read_pair(size.n, read_rng) for _ in range(n_batches * size.reads_per_batch)]
    batches = [
        [Update.add(u, v, w) if kind == "add" else Update.delete(u, v) for kind, u, v, w in b]
        for b in plan
    ]
    graph = WeightedGraph.from_edges(((u, v, w) for (u, v), w in edges.items()), range(size.n))

    res = Result()
    DynamicMST.build(graph, K, rng=seed, init="distributed")  # warm-up, thrown away
    dm = None
    for _ in range(size.setups):
        dm = None
        _settle()
        t0 = perf()
        dm = DynamicMST.build(graph, K, rng=seed, init="distributed")
        res.setup_s.append(perf() - t0)
    res.notes["init_rounds"] = dm.init_rounds
    _settle()

    rpb = size.reads_per_batch
    need = size.rounds_updates // K
    answers: List[bool] = []
    rounds = 0
    applied = 0
    if tracer is not None:
        tracer.start(dm)
    t_start = perf()
    deadline = t_start + seconds
    while applied < len(batches) and (applied < need or perf() < deadline):
        batch = batches[applied]
        t0 = perf()
        try:
            report = dm.apply_batch(batch)
        except Exception as exc:  # a program fault: count it, stop updating
            res.failed["update"] += len(batch)
            res.attempted["update"] += len(batch)
            res.notes["update_error"] = repr(exc)
            break
        t_vis = perf()
        res.visible_s.append(t_vis - t0)
        res.visible_at.append(t_vis)
        if applied < need:
            rounds += report.rounds
        for u, v in reads[applied * rpb:(applied + 1) * rpb]:
            t0 = perf()
            answers.append(dm.connected(u, v))
            res.read_s.append(perf() - t0)
            res.read_at.append(t0)
        applied += 1
    res.window_s = perf() - t_start
    if tracer is not None:
        tracer.stop()
    res.updates = applied * K
    res.rounds_per_update = rounds / (need * K)
    res.notes["rounds_updates"] = need * K
    res.attempted["update"] += applied * K

    # --- correctness, after timing -------------------------------------
    state = dict(edges)
    for b in range(applied):
        for op in plan[b]:
            oracle.apply_op(state, op)
        lab = oracle.labels(size.n, state)
        for i, (u, v) in enumerate(reads[b * rpb:(b + 1) * rpb]):
            res.attempted["read"] += 1
            if answers[b * rpb + i] != (lab[u] == lab[v]):
                res.failed["read"] += 1
    got = {(e.u, e.v): e.weight for e in dm.msf_edges()}
    res.attempted["forest"] += 1
    if oracle.forest_diff(got, oracle.kruskal(size.n, state)):
        res.failed["forest"] += 1
    res.attempted["check"] += 1
    try:
        dm.check()
    except Exception as exc:
        res.failed["check"] += 1
        res.notes["check_error"] = repr(exc)
    return res


# ----------------------------------------------------------------------
# the daemon workloads
# ----------------------------------------------------------------------

class SubmitObserver:
    """Watches the reducer's ``submit`` to learn when each update became
    visible, without changing what the reducer does.

    After every admission it records the wall time and the ledger rounds.
    An update is installed by the publish of the cut that ships it, or,
    when the coalescer absorbs it, at the admission of the update that
    absorbed it (``repro.stream``'s convention).  An admission that raises
    the coalescer's ``absorbed`` count by ``a`` resolves itself and the
    ``a - 1`` most recent pending updates on its pair.
    """

    def __init__(self, reducer) -> None:
        self.reducer = reducer
        self._submit = reducer.submit
        reducer.submit = self.submit
        self.rounds0 = reducer.dm.net.ledger.rounds
        self.rounds_after: List[int] = []       # by seq
        self.pairs: List[Tuple[int, int]] = []  # by seq
        self.resolved: Dict[int, float] = {}    # seq -> install time
        self.quiet: List[Tuple[int, int]] = []  # (version, admitted) with nothing pending
        self.publish_t: Dict[int, float] = {}   # version -> publish time
        self._pending: Dict[Tuple[int, int], List[int]] = {}
        self._absorbed = reducer.buffer.absorbed
        self._cuts = reducer.cuts
        self._quiet_versions = set()

    def submit(self, update):
        admitted = self._submit(update)
        now = perf()
        reducer = self.reducer
        seq = admitted.seq
        pair = update.endpoints
        self.pairs.append(pair)
        self.rounds_after.append(reducer.dm.net.ledger.rounds)
        absorbed = reducer.buffer.absorbed - self._absorbed
        self._absorbed += absorbed
        queue = self._pending.setdefault(pair, [])
        if absorbed:
            self.resolved[seq] = now
            for _ in range(absorbed - 1):
                if queue:
                    self.resolved[queue.pop()] = now
        else:
            queue.append(seq)
        if reducer.cuts != self._cuts:
            self._cuts = reducer.cuts
            still = reducer.buffer.pending_pairs()
            for p in [p for p in self._pending if p not in still]:
                for s in self._pending.pop(p):
                    self.resolved[s] = now
            self.publish_t[reducer.view.version] = now
        if not queue:
            self._pending.pop(pair, None)
        version = reducer.view.version
        if reducer.buffer.pending_cost == 0 and version not in self._quiet_versions:
            self._quiet_versions.add(version)
            self.quiet.append((version, seq + 1))
        return admitted

    def rounds_per_update(self, count: int) -> float:
        return (self.rounds_after[count - 1] - self.rounds0) / count


def _frame(cid: int, op) -> bytes:
    kind, u, v, w = op
    obj = {"op": kind, "id": cid, "u": u, "v": v}
    if kind == "add":
        obj["w"] = w
    return json.dumps(obj).encode() + b"\n"


def _query(cid: int, u: int, v: int) -> bytes:
    return json.dumps({"op": "query", "id": cid, "q": "in-forest", "u": u, "v": v}).encode() + b"\n"


async def _until(due: float) -> None:
    """Wait until ``due``: sleep while it is far off, then yield to other
    tasks until it arrives, because the loop's timers round sleeps up to
    whole milliseconds and that lateness would be charged to the reads."""
    ahead = due - perf()
    if ahead > 0.002:
        await asyncio.sleep(ahead - 0.0015)
    while perf() < due:
        await asyncio.sleep(0)


class Paced:
    """An open-loop sender: frame ``i`` is due at ``t0 + i / rate``.

    It sends every frame that is due, then sleeps until the next one.
    A response is timed from its frame's due time, so a loop stall is
    charged to every request it delayed.  A second task reads responses
    by id, which the sender registers before the frame leaves.
    """

    def __init__(self, client, rate: float, frames, on_reply) -> None:
        self.client = client
        self.period = 1.0 / rate
        self.frames = frames            # callable: i -> (cid, bytes, payload)
        self.on_reply = on_reply        # callable: (payload, due, now, msg)
        self.pending: Dict[int, Tuple[float, object]] = {}
        self.late: List[float] = []
        self.done = False

    async def run(self, t0: float, deadline: float) -> None:
        receiver = asyncio.ensure_future(self._receive())
        i = 0
        while True:
            due = t0 + i * self.period
            if due >= deadline:
                break
            await _until(due)
            self.late.append(perf() - due)
            cid, raw, payload = self.frames(i)
            self.pending[cid] = (due, payload)
            await self.client.send_bytes(raw)
            i += 1
        self.done = True
        if self.pending:
            try:
                await asyncio.wait_for(receiver, STUCK_S)
            except asyncio.TimeoutError:
                pass  # what is still pending is counted as failed
        else:
            receiver.cancel()
            try:
                await receiver
            except asyncio.CancelledError:
                pass

    async def _receive(self) -> None:
        while True:
            msg = await self.client.read_message()
            if msg is None:
                return
            entry = self.pending.pop(msg.get("id"), None)
            if entry is None:
                continue
            self.on_reply(entry[1], entry[0], perf(), msg)
            if self.done and not self.pending:
                return


class Subscriber:
    """Reads ``msf_change`` events until the daemon closes the session."""

    def __init__(self, client) -> None:
        self.client = client
        self.events: List[dict] = []
        self.version = 0
        self.arrivals: List[Tuple[int, float]] = []

    async def run(self) -> None:
        while True:
            msg = await self.client.read_message()
            if msg is None:
                return
            if msg.get("event") != "msf_change":
                continue
            self.version = msg["version"]
            self.arrivals.append((msg["version"], perf()))
            self.events.append(msg)


def serve_inputs(size: Size, seed: int, seconds: float, initial, forest):
    """The writer's mutations and the reader's pairs for one serve run.

    A few hot pairs at a time, and a fresh hot set every HOT_SPAN writes:
    coalescing sees repeated pairs, and a run averages over many pairs
    rather than hanging on six.  Pairs, weights and reads each draw from
    their own generator and only forward, so the same seed sends the same
    frames in the same order whatever ``seconds`` is.
    """
    pair_rng, weight_rng, read_rng = (random.Random(seed * 7919 + i) for i in (17, 18, 19))
    n_paced = math.ceil(size.write_rate * seconds) + 1
    hot_sets = inputs.owned_pairs(size.n, initial, forest, n_paced // HOT_SPAN + 1, HOT_PAIRS, pair_rng)
    order = [hot_sets[i // HOT_SPAN][HOT_ORDER[i % HOT_SPAN]] for i in range(n_paced)]
    ops = inputs.toggle_ops(order, initial, forest, weight_rng)
    n_reads = math.ceil(size.read_rate * seconds) + 1
    edge_list = sorted(initial)
    read_pairs = []
    for i in range(n_reads):
        r = i % 3
        if r == 0:
            read_pairs.append(edge_list[read_rng.randrange(len(edge_list))])
        elif r == 1:
            # A pair of the hot set being written when the read is due.
            hot = min(int(i * size.write_rate / size.read_rate) // HOT_SPAN, len(hot_sets) - 1)
            read_pairs.append(hot_sets[hot][read_rng.randrange(HOT_PAIRS)])
        else:
            read_pairs.append(inputs.read_pair(size.n, read_rng))
    return ops, read_pairs


async def _serve(size: Size, seed: int, seconds: float, tracer) -> Result:
    from repro.serve import MSTDaemon, ServeConfig, verify_determinism

    cfg = ServeConfig(k=K, n=size.n, m=size.m, seed=seed, init="distributed")
    initial = {(e.u, e.v): e.weight for e in cfg.initial_graph().edges()}
    forest = oracle.kruskal(size.n, initial)

    ops, read_pairs = serve_inputs(size, seed, seconds, initial, forest)

    res = Result()
    if tracer is not None:
        tracer.install_loop()

    # --- warm-up on a throw-away daemon, then timed set-ups --------------
    warm = MSTDaemon(cfg)
    await warm.start()
    c = warm.connect_memory()
    await c.send_bytes(_frame(0, ops[0]))
    await c.response(0)
    await c.send_bytes(_query(1, *read_pairs[0]))
    await c.response(1)
    await warm.shutdown()
    c.close()
    del warm, c
    daemon = None
    for i in range(size.setups):
        daemon = None
        _settle()
        t0 = perf()
        daemon = MSTDaemon(cfg)
        await daemon.start()
        res.setup_s.append(perf() - t0)
        if i < size.setups - 1:
            await daemon.shutdown(drain=False)
    _settle()
    reducer = daemon.reducer
    res.notes["init_rounds"] = reducer.dm.init_rounds
    obs = SubmitObserver(reducer)

    # --- clients -----------------------------------------------------------
    sub = Subscriber(daemon.connect_memory())
    reply = await sub.client.request("subscribe")
    if not (reply and reply.get("ok")):
        raise RuntimeError(f"subscribe failed: {reply}")
    sub_task = asyncio.ensure_future(sub.run())

    sent: Dict[int, Tuple[float, inputs.Op]] = {}   # seq -> (submitted at, op)
    acks: List[float] = []                          # ack times
    write_errors: List[object] = []
    reads: List[Tuple[Tuple[int, int], dict]] = []

    def on_read(pair, due, now, msg):
        res.read_s.append(now - due)
        res.read_at.append(due)
        reads.append((pair, msg))

    reader = Paced(
        daemon.connect_memory(), size.read_rate,
        lambda i: (i, _query(i, *read_pairs[i]), read_pairs[i]), on_read,
    )

    if tracer is not None:
        tracer.start(reducer.dm, daemon=daemon, observer=obs)
    t_start = perf()
    deadline = t_start + seconds

    def on_ack(op, due, now, msg):
        if not msg.get("ok"):
            write_errors.append(msg)
            return
        sent[msg["result"]["seq"]] = (due, op)
        acks.append(now)

    writer = Paced(
        daemon.connect_memory(), size.write_rate,
        lambda i: (i, _frame(i, ops[i]), ops[i]), on_ack,
    )
    work = [writer.run(t_start, deadline), reader.run(t_start, deadline)]
    await asyncio.gather(*work)
    t_end = perf()
    if tracer is not None:
        tracer.stop()
    # Throughput over the measured phase: from the first send to the
    # acknowledgement of the last write.
    res.updates = len(acks)
    res.window_s = max(acks, default=t_end) - t_start
    res.notes["late_s"] = reader.late + writer.late
    unanswered = len(reader.pending)
    write_errors.extend([None] * len(writer.pending))

    # --- visibility, from the observer ----------------------------------
    for seq, (t_sub, _op) in sent.items():
        t_vis = obs.resolved.get(seq)
        if t_sub < deadline and t_vis is not None and t_vis <= t_end:
            res.visible_s.append(t_vis - t_sub)
            res.visible_at.append(t_vis)
    admitted = len(obs.pairs)
    res.rounds_per_update = obs.rounds_per_update(min(size.rounds_updates, admitted))
    res.notes["rounds_updates"] = min(size.rounds_updates, admitted)

    # Let the recording subscriber catch up with the last publish.
    for _ in range(3000):
        if sub.version >= reducer.view.version:
            break
        await asyncio.sleep(0.01)
    await daemon.shutdown()
    sub.client.close()
    await sub_task
    res.notes.update(
        cuts=reducer.cuts, absorbed=reducer.buffer.absorbed, admitted=admitted,
        events=len(sub.events), versions=reducer.view.version,
        core_rounds=reducer.dm.net.ledger.rounds - obs.rounds0,
    )

    # --- correctness, after timing ----------------------------------------
    res.attempted["write"] += len(sent) + len(write_errors)
    res.failed["write"] += len(write_errors)
    ops_by_seq = [sent[s][1] for s in range(len(sent)) if s in sent]
    if len(ops_by_seq) != admitted:
        res.failed["write"] += abs(admitted - len(ops_by_seq))

    res.attempted["determinism"] += 1
    gate = verify_determinism(reducer)
    if not gate["ok"]:
        res.failed["determinism"] += 1
        res.notes["determinism"] = gate

    _check_versions(size.n, initial, ops_by_seq, sub.events, obs.quiet, reads, res)
    res.attempted["read"] += unanswered
    res.failed["read"] += unanswered

    final = dict(initial)
    for op in ops_by_seq:
        oracle.apply_op(final, op)
    got = {(e.u, e.v): e.weight for e in reducer.dm.msf_edges()}
    res.attempted["forest"] += 1
    if oracle.forest_diff(got, oracle.kruskal(size.n, final)):
        res.failed["forest"] += 1
    res.notes["subscriber"] = sub
    return res


def _check_versions(n, initial, ops_by_seq, events, quiet, reads, res: Result) -> None:
    """Rebuild every published forest from the recorded ``msf_change``
    diffs; check each read against the forest of the version it reports,
    and each version at which nothing was pending against Kruskal."""
    forests_needed = {}
    for pair, msg in reads:
        if msg.get("ok"):
            forests_needed.setdefault(msg["result"]["version"], []).append((pair, msg["result"]))
    quiet_at = dict(quiet)   # version -> admitted count
    forest = oracle.kruskal(n, initial)
    graph = dict(initial)
    applied = 0
    by_version = {ev["version"]: ev for ev in events}
    last = max([0, *by_version, *forests_needed, *quiet_at])
    for version in range(0, last + 1):
        if version:
            ev = by_version.get(version)
            if ev is None:
                # A version the recorder never received cannot be checked,
                # and neither can anything read at it.
                res.attempted["version"] += 1
                res.failed["version"] += 1
                lost = len(forests_needed.pop(version, ()))
                res.attempted["read"] += lost
                res.failed["read"] += lost
                continue
            for u, v in ev["removed"]:
                forest.pop((u, v), None)
            for u, v, w in ev["added"]:
                forest[(u, v)] = w
        if version in quiet_at:
            target = quiet_at[version]
            while applied < target:
                oracle.apply_op(graph, ops_by_seq[applied])
                applied += 1
            res.attempted["version"] += 1
            if oracle.forest_diff(forest, oracle.kruskal(n, graph)):
                res.failed["version"] += 1
        if version in forests_needed:
            lab = oracle.labels(n, forest)
            for (u, v), got in forests_needed[version]:
                res.attempted["read"] += 1
                pair = (u, v) if u < v else (v, u)
                if got["in_forest"] != (pair in forest) or got["connected"] != (lab[u] == lab[v]):
                    res.failed["read"] += 1
    for pair, msg in reads:
        if not msg.get("ok"):
            res.attempted["read"] += 1
            res.failed["read"] += 1


def serve_mixed(size: Size, seed: int, seconds: float, tracer=None) -> Result:
    return asyncio.run(asyncio.wait_for(_serve(size, seed, seconds, tracer), RUN_LIMIT_S))


WORKLOADS = {
    "core-churn": core_churn,
    "serve-mixed": serve_mixed,
}
