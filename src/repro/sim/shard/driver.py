"""The conservative window protocol: promise / execute / barrier rounds.

Round structure (coordinator = this module; workers = one per shard,
inline objects for ``shard_mode="cross"``, forked processes for
``"on"``).  One bootstrap round asks every worker for its first
promise — ``(next event time, promise key)``, a lower bound on the
causal key of its earliest possible future transmission that can reach
another shard (exposure-gated; see :meth:`ShardWorker.promise`).  Every
later round is one request and one reply per shard:

1. **Horizon.**  Shard *i* may execute every event with key strictly
   below ``H_i = min(min_{j != i} promise_j, floor + W_MAX, until)``,
   where ``floor`` is the globally earliest pending event time.  The
   ``W_MAX`` cushion bounds interest-interval staleness and guarantees
   progress when every promise is infinite.
2. **Request.**  The horizon travels with the ghost transmissions
   queued for that shard at the previous barrier.
3. **Deliver, execute, re-promise.**  The worker mirrors the ghosts,
   runs its window (in parallel under the process transport), and
   replies with the ghosts it produced plus its post-window promise;
   the coordinator routes the ghosts to their target shards for the
   next round.

Promise compensation
--------------------
The promise in a round reply is computed *before* the next round's
ghosts are delivered, so the coordinator compensates: a pending ghost
can only *defer* the receiver's existing events (channel-busy backoff)
or trigger SIFS-spaced responses to its mirrored completion, never
create anything earlier, so ``min(promise, (g.resume, floor-priority))``
over the shard's pending ghosts is a sound effective promise, and
``min(peek, g.start)`` the effective queue floor.

Soundness: a shard's promise is a true lower bound (the MAC creates
every transmit site at least SIFS ahead — see :mod:`repro.sim.shard.
worker`), so every ghost produced in a round carries a key at or beyond
every *other* shard's executed horizon: ghosts always land in the
receiver's future, never its past (:meth:`KeyedSimulator.insert_ghost`
enforces this as a hard error).  Progress: the shard holding the
globally minimal pending key always finds every foreign promise
strictly beyond it (keys are unique; time floors add SIFS), so at least
one event executes per round — or a round may instead
only *deliver* pending ghosts (their resume floors then dissolve into
ordinary ghost-aware promises), so a stall is only declared when
nothing executed *and* nothing was delivered.

``shard_mode="cross"`` additionally runs the unmodified single engine
on the same config and compares the merged shard trace record-by-record
(``(time, category, node)`` — the repository-wide trace-equivalence
contract, uids exempt per DET-006), raising :class:`ShardCoherenceError`
at the first divergence.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import pickle
import time as _wall
import traceback
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geo.partition import rebalanced_boundaries
from repro.sim.keyed import key_min
from repro.sim.shard import ShardCoherenceError
from repro.sim.shard.keycodec import KeyCodec
from repro.sim.shard.merge import merge_records, merge_results
from repro.sim.shard.shmplane import ShardPlane
from repro.sim.shard.worker import (
    GhostTx,
    INF_KEY,
    ShardResult,
    ShardWorker,
    SlimRecord,
    W_MAX,
)
from repro.sim.trace import trace_divergence

__all__ = ["run_sharded", "effective_jobs"]

#: Sorts above every real priority at a given time: ``(t, _CEIL)`` as a
#: horizon admits every real key with time <= t (inclusive horizons).
_CEIL = 2**60


def effective_jobs(jobs: int, shards: int, cpu_count: Optional[int] = None) -> int:
    """Cap the scenario-level worker pool so ``jobs x shards`` processes
    never exceed the machine.

    Precedence: the per-run shard count wins (a sharded run is one
    coherent unit and always gets its ``shards`` processes); the
    ``--jobs`` pool is clamped to ``cpu_count // shards``, floored at 1
    so progress is always possible.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return max(1, min(jobs, cpus // max(1, shards)))


# --------------------------------------------------------------- transports
def _pack_ghosts(codec: KeyCodec, ghosts: Sequence[GhostTx]):
    """Swap deep causal keys for table indices before pickling.

    Causal keys are linked chains whose nesting depth grows with the
    causal history; pickling them recurses per level and overflows on
    long runs.  See :mod:`repro.sim.shard.keycodec`.
    """
    packed = [
        replace(
            g,
            start_key=codec.encode(g.start_key),
            finish_key=codec.encode(g.finish_key),
        )
        for g in ghosts
    ]
    return codec.flush(), packed


def _unpack_ghosts(codec: KeyCodec, table, packed) -> List[GhostTx]:
    codec.extend(table)
    return [
        replace(
            g,
            start_key=codec.decode(g.start_key),
            finish_key=codec.decode(g.finish_key),
        )
        for g in packed
    ]


class _InlineHandle:
    """Same-process worker (cross mode, tests): calls are synchronous."""

    def __init__(
        self, config, shard_index: int, capture_all: bool, plane=None
    ) -> None:
        self.shard_index = shard_index
        self.worker = ShardWorker(config, shard_index, capture_all, plane=plane)
        self.worker.start()
        self.ipc_bytes = 0  # inline transport: nothing crosses a pipe
        self._reply: object = None

    def send_promise(self) -> None:
        self._reply = self.worker.promise()

    def recv_promise(self):
        return self._reply

    def send_round(self, horizon, ghosts: Sequence[GhostTx]) -> None:
        self._reply = self.worker.execute_round(horizon, ghosts)

    def recv_round(self):
        executed, busy, out, peek, key = self._reply
        return executed, busy, out, self.worker.plane_epoch, peek, key

    def finish(self, until: float) -> ShardResult:
        return self.worker.finish(until)

    def close(self) -> None:
        pass


def _worker_main(conn, config, shard_index: int, capture_all: bool, plane) -> None:
    """Entry point of a forked shard process: build, then serve rounds.

    Every key-bearing payload crosses the pipe codec-flattened (ghost
    start/finish keys, the promise key, the round horizon, and each
    record's merge key) — naive pickling of the deeply nested causal
    keys recurses past the interpreter limit.  Payloads travel as
    explicit pickled byte blobs so the coordinator can meter IPC bytes
    exactly; the ``plane`` object is inherited through fork (never
    pickled), so child processes share the parent's mapping without
    re-registering the segment.
    """
    try:
        worker = ShardWorker(config, shard_index, capture_all, plane=plane)
        worker.start()
        # The child inherits the parent's entire heap via fork, and the
        # freshly built scenario graph is live for the whole run.  Move
        # both to the permanent generation so cyclic GC stops rescanning
        # them every collection — with a large parent heap that scan
        # otherwise dominates worker CPU (and therefore the busy metric).
        gc.freeze()
        # The window loop allocates acyclic objects almost exclusively
        # (key tuples, frames, reception records), so the default gen-0
        # trigger fires thousands of collections that free nothing.
        # Raise the threshold so cycle detection still runs — leaked
        # cycles are eventually reclaimed — but at a rate the event loop
        # no longer notices.
        gc.set_threshold(200_000, 50, 50)
        codec = KeyCodec()
        while True:
            kind, payload = pickle.loads(conn.recv_bytes())
            if kind == "promise":
                peek, key = worker.promise()
                idx = codec.encode(key)
                reply = ("ok", (codec.flush(), peek, idx))
            elif kind == "round":
                table, idx, packed_in = payload
                codec.extend(table)
                executed, busy, out, peek, key = worker.execute_round(
                    codec.decode(idx), _unpack_ghosts(codec, (), packed_in)
                )
                kidx = codec.encode(key)
                gtable, packed = _pack_ghosts(codec, out)
                reply = (
                    "ok",
                    (
                        gtable,
                        executed,
                        busy,
                        packed,
                        worker.plane_epoch,
                        peek,
                        kidx,
                    ),
                )
            elif kind == "finish":
                result = worker.finish(payload)
                result.records = [
                    replace(r, key=codec.encode(r.key)) for r in result.records
                ]
                reply = ("ok", (codec.flush(), result))
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol partner is this module
                raise RuntimeError(f"unknown shard request {kind!r}")
            conn.send_bytes(pickle.dumps(reply))
    except EOFError:  # coordinator died; nothing to report to
        return
    except Exception:
        try:
            conn.send_bytes(pickle.dumps(("error", traceback.format_exc())))
        except (BrokenPipeError, OSError):
            pass


class _ProcHandle:
    """One forked shard process, spoken to over a duplex pipe.

    Promise and round requests are sent to *all* shards before any
    reply is awaited, so shard windows genuinely overlap in wallclock.
    Every payload is an explicit pickled blob, which is what lets the
    handle meter IPC bytes exactly (``shard_stats`` observability).
    """

    def __init__(
        self, ctx, config, shard_index: int, capture_all: bool, intern: dict,
        plane=None,
    ) -> None:
        self.shard_index = shard_index
        parent, child = ctx.Pipe()
        self.conn = parent
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, config, shard_index, capture_all, plane),
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.ipc_bytes = 0
        # The intern dict is shared across every shard's codec so that
        # mirrored keys from different shards unify to identical objects
        # (keeps the merge's key comparisons shallow via the identity
        # shortcut instead of walking deep equal chains).
        self._codec = KeyCodec(intern)

    def _send(self, message) -> None:
        blob = pickle.dumps(message)
        self.ipc_bytes += len(blob)
        self.conn.send_bytes(blob)

    def _recv(self):
        try:
            blob = self.conn.recv_bytes()
        except EOFError:
            raise ShardCoherenceError(
                f"shard worker {self.shard_index} terminated mid-protocol "
                "(pipe closed before reply)"
            ) from None
        self.ipc_bytes += len(blob)
        kind, payload = pickle.loads(blob)
        if kind == "error":
            raise RuntimeError(f"shard worker failed:\n{payload}")
        return payload

    def send_promise(self) -> None:
        self._send(("promise", None))

    def recv_promise(self):
        table, peek, idx = self._recv()
        self._codec.extend(table)
        return peek, self._codec.decode(idx)

    def send_round(self, horizon, ghosts: Sequence[GhostTx]) -> None:
        codec = self._codec
        idx = codec.encode(horizon)
        packed = [
            replace(
                g,
                start_key=codec.encode(g.start_key),
                finish_key=codec.encode(g.finish_key),
            )
            for g in ghosts
        ]
        # One flush covering the horizon and every ghost key.
        self._send(("round", (codec.flush(), idx, packed)))

    def recv_round(self):
        table, executed, busy, packed, epoch, peek, kidx = self._recv()
        ghosts = _unpack_ghosts(self._codec, table, packed)
        return executed, busy, ghosts, epoch, peek, self._codec.decode(kidx)

    def finish(self, until: float) -> ShardResult:
        self._send(("finish", until))
        table, result = self._recv()
        self._codec.extend(table)
        result.records = [
            replace(r, key=self._codec.decode(r.key)) for r in result.records
        ]
        return result

    def close(self) -> None:
        try:
            self._send(("stop", None))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=30)
        if self.proc.is_alive():  # pragma: no cover - defensive
            self.proc.terminate()
            self.proc.join(timeout=5)
        self.conn.close()


# -------------------------------------------------------------- coordination
def _resolve_ghosts(plane, ghosts: List[GhostTx]) -> List[GhostTx]:
    """Materialize NaN-compressed ghost positions from the shared plane.

    Runs at the barrier — every worker is blocked on its next request,
    so plane reads cannot race a publication (the producer published
    strictly before the reply that carried the ghost here).
    """
    if plane is None:
        return ghosts
    out = []
    for g in ghosts:
        if math.isnan(g.x):
            x, y = plane.resolve(g.sender_id, g.start)
            g = replace(g, x=x, y=y)
        out.append(g)
    return out


def _check_epoch(plane, shard_index: int, reported: int) -> None:
    """Defensive epoch barrier: the publication a reply claims must be
    visible to the coordinator before any ghost it carried is resolved."""
    if plane is None or not reported:
        return
    seen = plane.epoch(shard_index)
    if seen < reported:
        raise ShardCoherenceError(
            f"shared plane epoch for shard {shard_index} is {seen}, but its "
            f"reply reported {reported}: publication ordering was violated"
        )


def _effective_promises(promises: List, pending: List[List[GhostTx]]):
    """Compensate pre-delivery promises with pending-ghost floors.

    A round-reply promise predates the ghosts queued for that shard; a
    ghost's influence is bounded below by its ``resume`` (completion +
    SIFS — DCF channel-busy only defers, responses fire off the
    mirrored ``phy.tx_end``), and its start key time lower-bounds the
    shard's post-delivery queue floor.
    """
    eff = []
    for (peek, key), ghosts in zip(promises, pending):
        for g in ghosts:
            if peek is None or g.start < peek:
                peek = g.start
            floor = (g.resume, -_CEIL, ())
            if floor < key:
                key = floor
        eff.append((peek, key))
    return eff


def _coordinate(
    handles: List, shards: int, until: float, plane
) -> Dict[str, object]:
    """Run rounds to the horizon; returns protocol stats.

    ``critical_path_seconds`` is the sum over rounds of the slowest
    shard's busy time, i.e. the wallclock a fully parallel execution
    could achieve (reported by the benchmark alongside actual wallclock,
    which on a single-CPU host cannot show the speedup);
    ``busy_seconds_total`` sums every shard's execution time (critical /
    (total / shards) measures window balance).  ``per_shard_executed``
    is the deterministic load signal the adaptive-boundary calibration
    feeds to :func:`rebalanced_boundaries`.  ``ipc_messages`` counts
    logical protocol messages both directions (bootstrap promise
    included, finish/stop excluded); a steady-state round costs
    ``2 * shards`` messages.
    """
    pending: List[List[GhostTx]] = [[] for _ in range(shards)]
    until_bound = (until, _CEIL, ())
    rounds = 0
    critical = 0.0
    busy_total = 0.0
    executed_by_shard = [0] * shards

    def _route(shard_index: int, out: List[GhostTx]) -> None:
        for ghost in _resolve_ghosts(plane, out):
            for target in ghost.targets:
                pending[target].append(ghost)

    # Bootstrap: one promise round seeds the promise vector; every
    # later promise rides a round reply.
    for handle in handles:
        handle.send_promise()
    promises = [handle.recv_promise() for handle in handles]
    messages = 2 * shards
    while True:
        eff = _effective_promises(promises, pending)
        peeks = [p for p, _ in eff if p is not None]
        floor = min(peeks) if peeks else None
        if floor is None or floor > until:
            break
        cushion = (floor + W_MAX, -_CEIL, ())
        for i, handle in enumerate(handles):
            # key_min: different shards' promise keys can ride
            # time-locked chains; native min() recurses to the roots.
            foreign = key_min(eff[j][1] for j in range(shards) if j != i)
            if foreign is None:
                foreign = INF_KEY
            horizon = min(foreign, cushion, until_bound)
            handle.send_round(horizon, pending[i])
        delivered = any(pending)
        pending = [[] for _ in range(shards)]
        executed_total = 0
        slowest = 0.0
        for i, handle in enumerate(handles):
            executed, busy, out, epoch, peek, key = handle.recv_round()
            _check_epoch(plane, i, epoch)
            executed_total += executed
            executed_by_shard[i] += executed
            busy_total += busy
            if busy > slowest:
                slowest = busy
            promises[i] = (peek, key)
            _route(i, out)
        messages += 2 * shards
        critical += slowest
        rounds += 1
        if executed_total == 0 and not delivered and not any(pending):
            raise RuntimeError(
                "shard window protocol stalled: no shard could advance "
                f"at t={floor!r} (round {rounds})"
            )
    return {
        "rounds": rounds,
        "critical_path_seconds": critical,
        "busy_seconds_total": busy_total,
        "per_shard_executed": executed_by_shard,
        "ipc_messages": messages,
        "promise_rounds": 1,
        # Steady-state messages per round: drop one promise round trip
        # (the bootstrap).
        "ipc_messages_per_round": (
            (messages - 2 * shards) / rounds if rounds else 0.0
        ),
    }


# --------------------------------------------------------------- cross check
def _compare_traces(reference, merged: List[SlimRecord]) -> None:
    """Record-by-record equivalence per the repo trace contract."""
    divergence = trace_divergence(reference, merged, "single engine", "sharded")
    if divergence is not None:
        raise ShardCoherenceError(divergence)


# --------------------------------------------------------------- entry point
def _make_handles(config, shards: int, cross: bool, capture_all: bool, plane):
    if cross or shards == 1:
        return [
            _InlineHandle(config, i, capture_all, plane=plane)
            for i in range(shards)
        ]
    ctx = multiprocessing.get_context("fork")
    intern: dict = {}
    return [
        _ProcHandle(ctx, config, i, capture_all, intern, plane=plane)
        for i in range(shards)
    ]


def _make_plane(config, shards: int):
    """The shared position plane, or ``None`` under the reference run
    (whose brute scan builds no array index to publish from) and when
    there is no second shard to read it."""
    if shards > 1 and not config.reference:
        return ShardPlane(config.num_nodes, shards)
    return None


def _calibrated_boundaries(config, shards: int, cross: bool):
    """Measure a calibration prefix under uniform splits; return
    load-equalized boundaries.

    The load signal is each shard's executed event count — unlike busy
    CPU seconds it is a pure function of config + seed, so the derived
    boundaries (and therefore the whole adaptive run) stay
    deterministic.  The calibration workers are then discarded; the
    production run rebuilds from scratch with the explicit boundaries,
    starting at t=0.
    """
    calib_until = config.sim_time * config.shard_calibration
    if calib_until <= 0.0:
        return None
    plane = _make_plane(config, shards)
    handles: List = []
    try:
        handles = _make_handles(config, shards, cross, False, plane)
        stats = _coordinate(handles, shards, calib_until, plane)
    finally:
        for handle in handles:
            handle.close()
        if plane is not None:
            plane.destroy()
    loads = stats["per_shard_executed"]
    if not any(loads):
        return None
    return rebalanced_boundaries(0.0, config.width, shards, loads)


def run_sharded(config):
    """Execute ``config`` under the sharded runtime and merge the result.

    ``shard_mode="on"`` forks one process per shard (conservative
    windows overlap in wallclock); ``"cross"`` runs the shards inline
    *and* the unmodified single engine, comparing traces record by
    record.  Either way the returned :class:`ScenarioResult` is merged
    from the shards.
    """
    started = _wall.perf_counter()
    shards = config.shards
    cross = config.shard_mode == "cross"
    capture_all = cross or config.keep_trace

    if (
        getattr(config, "shard_adaptive", False)
        and getattr(config, "shard_boundaries", None) is None
        and shards > 1
    ):
        boundaries = _calibrated_boundaries(config, shards, cross)
        if boundaries is not None:
            config = replace(
                config, shard_boundaries=boundaries, shard_adaptive=False
            )

    plane = _make_plane(config, shards)
    handles: List = []
    try:
        handles = _make_handles(config, shards, cross, capture_all, plane)
        stats = _coordinate(handles, shards, config.sim_time, plane)
        parts = [handle.finish(config.sim_time) for handle in handles]
        ipc_bytes = sum(getattr(h, "ipc_bytes", 0) for h in handles)
    finally:
        for handle in handles:
            handle.close()
        if plane is not None:
            plane.destroy()

    if cross:
        from repro.experiments.scenario import Scenario

        reference_cfg = replace(config, shard_mode="off", keep_trace=True)
        reference = Scenario(reference_cfg)
        reference.run()
        _compare_traces(
            reference.tracer.records, merge_records([p.records for p in parts])
        )

    result = merge_results(config, parts, _wall.perf_counter() - started)
    result.__dict__["shard_stats"] = {
        "shards": shards,
        "rounds": stats["rounds"],
        "critical_path_seconds": stats["critical_path_seconds"],
        "busy_seconds_total": stats["busy_seconds_total"],
        "transport": "inline" if (cross or shards == 1) else "fork",
        "events": sum(p.processed_events for p in parts),
        "plane": plane is not None,
        "boundaries": getattr(config, "shard_boundaries", None),
        "promise_rounds": stats["promise_rounds"],
        "ipc_messages": stats["ipc_messages"],
        "ipc_messages_per_round": stats["ipc_messages_per_round"],
        "ipc_bytes": ipc_bytes,
    }
    return result
