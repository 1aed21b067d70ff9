"""Shared-memory position plane for the sharded runtime.

A :class:`ShardPlane` is one ``multiprocessing.shared_memory`` block
holding the PR 7 :class:`~repro.geo.vecops.LegArrays` leg parameters of
every node, indexed by **node id**, plus one publication epoch slot per
shard.  The driver creates it before forking; workers inherit the
mapped object through the ``fork`` start method (nothing is pickled or
re-attached, so the resource tracker sees exactly one owner and the
driver's ``finally`` block is the single unlink site).

Write protocol (the epoch barrier)
----------------------------------
Rows are partitioned by ownership: shard ``i`` writes only the rows of
nodes it owns, and only from :meth:`publish_legs` — the *publication
helper*, the one sanctioned write site (lint rule DET-015 flags any
other write to plane-backed arrays).  A worker publishes at its window
barrier, strictly before sending its round reply; the coordinator reads
only after receiving that reply.  The pipe message is therefore the
happens-before edge, and because row sets are disjoint no two processes
ever write the same bytes.  The per-shard epoch counter (bumped last in
:meth:`publish_legs`) is a defensive check on top: the coordinator
verifies the epoch it observes is at least the one the reply reports,
turning any ordering violation into a :class:`~repro.sim.shard.
ShardCoherenceError` instead of a silent trace divergence.

Ghost position compression
--------------------------
A :class:`~repro.sim.shard.worker.GhostTx` carries the sender position
``(x, y)`` at transmission start.  When the sender's *published* leg
was already current at ``g.start`` (``depart[id] <= g.start``), that
position is recomputable from the plane bit-for-bit — the scalar
formula in :meth:`resolve` mirrors ``vecops.batch_position_at``
IEEE-op for IEEE-op — so the producer ships NaN instead and the
coordinator resolves it at the barrier (no worker is executing, so the
read cannot race a publication).  Fixed rows (``depart = +inf``) and
any leg rolled after ``g.start`` fail the guard and keep their inline
floats; correctness never depends on the compression firing.
"""

from __future__ import annotations

from multiprocessing import shared_memory as _shm_mod
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["ShardPlane"]

#: The leg parameters a position resolution needs, in plane layout
#: order.  Matches the :class:`~repro.geo.vecops.LegArrays` attribute
#: names so :meth:`publish_legs` can gather generically.
PLANE_FIELDS: Tuple[str, ...] = (
    "ox", "oy", "gx", "gy", "depart", "arrive", "span", "dgx", "dgy",
)


class ShardPlane:
    """Leg parameters of every node in one shared-memory block."""

    def __init__(self, num_nodes: int, shards: int) -> None:
        if num_nodes < 1 or shards < 1:
            raise ValueError(
                f"need >=1 nodes and shards, got {num_nodes}/{shards}"
            )
        self.num_nodes = num_nodes
        self.shards = shards
        floats = len(PLANE_FIELDS) * num_nodes
        size = floats * 8 + shards * 8
        # Auto-generated segment name: unique per block without baking
        # process identity (DET-014) into anything sim-visible.
        self._shm = _shm_mod.SharedMemory(create=True, size=size)
        self.name = self._shm.name
        buf = self._shm.buf
        self._fields = {}
        for k, field in enumerate(PLANE_FIELDS):
            view = np.ndarray(
                (num_nodes,), dtype=np.float64, buffer=buf,
                offset=k * num_nodes * 8,
            )
            self._fields[field] = view
        self._epochs = np.ndarray(
            (shards,), dtype=np.int64, buffer=buf, offset=floats * 8
        )
        # Unpublished rows must never satisfy the resolution guard
        # (depart <= t), so they start at +inf like fixed rows.
        self._fields["depart"].fill(np.inf)
        self._fields["arrive"].fill(-np.inf)
        self._epochs.fill(0)

    # ------------------------------------------------------------ publication
    def publish_legs(self, shard_index: int, ids, legs, rows) -> int:
        """Publish shard ``shard_index``'s owned rows; returns the new epoch.

        ``ids`` are the owned node ids (plane rows) and ``rows`` the
        matching :class:`LegArrays` row indices — both in the same
        order.  This is the **only** sanctioned write site for
        plane-backed arrays (DET-015); it runs at the window barrier,
        before the worker's reply, which is what makes the coordinator's
        subsequent reads race-free.
        """
        fields = self._fields
        for field in PLANE_FIELDS:
            fields[field][ids] = getattr(legs, field)[rows]
        epoch = int(self._epochs[shard_index]) + 1
        self._epochs[shard_index] = epoch
        return epoch

    def epoch(self, shard_index: int) -> int:
        return int(self._epochs[shard_index])

    # ------------------------------------------------------------- resolution
    def resolvable(self, node_id: int, t: float) -> bool:
        """True when the published leg was already current at ``t``.

        Legs only roll forward in time, so ``depart <= t`` means the
        leg published at the barrier is the same leg that produced the
        position at ``t`` — resolution is then bit-exact.  Fixed and
        never-published rows carry ``depart = +inf`` and always fail.
        """
        return bool(self._fields["depart"][node_id] <= t)

    def resolve(self, node_id: int, t: float) -> Tuple[float, float]:
        """Position of ``node_id`` at ``t`` from its published leg.

        Scalar replica of ``vecops.batch_position_at`` for one row, in
        the same precedence order (interpolate, then the ``t >= arrive``
        target sweep, then the ``t <= depart`` origin sweep — origin
        wins last): float64 multiply/divide/add on the identical
        operands, hence bitwise-equal results.
        """
        fields = self._fields
        depart = fields["depart"][node_id]
        if t <= depart:
            return float(fields["ox"][node_id]), float(fields["oy"][node_id])
        if t >= fields["arrive"][node_id]:
            return float(fields["gx"][node_id]), float(fields["gy"][node_id])
        frac = (t - depart) / fields["span"][node_id]
        return (
            float(fields["dgx"][node_id] * frac + fields["ox"][node_id]),
            float(fields["dgy"][node_id] * frac + fields["oy"][node_id]),
        )

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Drop the numpy views and unmap the block (keeps the segment)."""
        if self._shm is None:
            return
        self._fields = {}
        self._epochs = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass

    def destroy(self) -> None:
        """Unmap *and* unlink the segment — the creator's finally-path.

        Idempotent and exception-safe: callable after a worker crash,
        a :class:`ShardCoherenceError`, or a normal finish alike.
        """
        shm = self._shm
        if shm is None:
            return
        self.close()
        self._shm = None
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
