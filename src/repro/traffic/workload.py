"""Workload construction: the paper's flow pattern, parameterized.

``make_paper_flows`` reproduces the evaluation's "30 CBR traffic flows
originated by 20 sending nodes": 20 distinct senders are drawn, then 30
flows are dealt over them (so some senders run two flows), each toward a
uniformly chosen distinct destination.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.traffic.cbr import CbrFlow

__all__ = ["make_paper_flows", "make_flows"]


def make_flows(
    node_ids: Sequence[int],
    identities: Sequence[str],
    num_flows: int,
    num_senders: int,
    rng: random.Random,
    rate_pps: float = 4.0,
    payload_bytes: int = 64,
    start_window: tuple[float, float] = (5.0, 30.0),
    stop_time: float | None = None,
    positions: Optional[Sequence[Tuple[float, float]]] = None,
    locality: Optional[float] = None,
) -> List[CbrFlow]:
    """Draw a CBR workload.

    ``node_ids[i]`` must be the node whose identity is ``identities[i]``.
    Flow start times are uniform in ``start_window`` so sources ramp up
    gradually (the NS-2 CMU convention).

    With ``locality`` set, each destination is drawn uniformly among the
    nodes whose ``positions`` entry lies within that distance of the
    sender's, instead of uniformly over the whole field (a sender with
    no neighbour in range falls back to the next node id, keeping the
    flow count exact).  ``locality=None`` runs the original draw with an
    untouched rng call sequence — existing seeds stay byte-identical.

    Finding those neighbours is linear in the node count: the positions
    are bucketed once into a uniform grid (see :func:`_near_candidates`),
    so each sender tests only the nodes of its own and the eight
    adjacent cells, O(nodes + senders x local density) in all, where a
    scan of every node per sender was O(senders x nodes).
    """
    if num_senders > len(node_ids):
        raise ValueError("more senders than nodes")
    if num_senders < 1 or num_flows < 1:
        raise ValueError("need at least one sender and one flow")
    if len(node_ids) < 2:
        raise ValueError("need at least two nodes for traffic")
    senders = rng.sample(list(node_ids), num_senders)
    index_of = {nid: i for i, nid in enumerate(node_ids)}
    near: Dict[int, List[int]] = {}  # src -> candidate dest indices
    if locality is not None:
        if positions is None or len(positions) != len(node_ids):
            raise ValueError("locality needs one position per node id")
        if not (math.isfinite(locality) and locality > 0):
            raise ValueError(f"locality must be a positive finite distance, got {locality!r}")
        near = _near_candidates(node_ids, positions, senders, index_of, locality)
    flows: List[CbrFlow] = []
    for i in range(num_flows):
        src = senders[i % num_senders]
        if locality is not None:
            cands = near[src]
            if cands:
                dest_index = cands[rng.randrange(len(cands))]
            else:
                dest_index = (index_of[src] + 1) % len(node_ids)
        else:
            dest_index = rng.randrange(len(node_ids))
            while node_ids[dest_index] == src:
                dest_index = rng.randrange(len(node_ids))
        flows.append(
            CbrFlow(
                src_node_id=src,
                dest_identity=identities[dest_index],
                rate_pps=rate_pps,
                payload_bytes=payload_bytes,
                start_time=rng.uniform(*start_window),
                stop_time=stop_time,
            )
        )
    return flows


def _near_candidates(
    node_ids: Sequence[int],
    positions: Sequence[Tuple[float, float]],
    senders: Sequence[int],
    index_of: Dict[int, int],
    locality: float,
) -> Dict[int, List[int]]:
    """Ascending indices of the nodes within ``locality`` of each sender.

    Cells are ``2 * locality`` wide, so every node the distance test
    accepts lies in the sender's cell or one of its eight neighbours
    with a full ``locality`` of slack: rounding in the cell index cannot
    push an accepted node out of that ring while ``|coordinate| / cell``
    stays below ``2**51``.  The gathered indices are
    sorted and filtered by the same scalar test a scan of every node
    applies, so each list equals that scan's list exactly.
    """
    cell = 2.0 * locality
    grid: Dict[Tuple[int, int], List[int]] = {}
    for j, (x, y) in enumerate(positions):
        grid.setdefault((math.floor(x / cell), math.floor(y / cell)), []).append(j)
    reach = locality * locality
    near: Dict[int, List[int]] = {}
    for src in senders:
        sx, sy = positions[index_of[src]]
        cx, cy = math.floor(sx / cell), math.floor(sy / cell)
        ring = sorted(
            j
            for gx in (cx - 1, cx, cx + 1)
            for gy in (cy - 1, cy, cy + 1)
            for j in grid.get((gx, gy), ())
        )
        hits: List[int] = []
        near[src] = hits
        for j in ring:
            x, y = positions[j]
            if node_ids[j] != src and (x - sx) ** 2 + (y - sy) ** 2 <= reach:
                hits.append(j)
    return near


def make_paper_flows(
    node_ids: Sequence[int],
    identities: Sequence[str],
    rng: random.Random,
    start_window: tuple[float, float] = (5.0, 30.0),
    stop_time: float | None = None,
) -> List[CbrFlow]:
    """The evaluation workload: 30 flows from 20 senders, 64 B @ 4 pps."""
    return make_flows(
        node_ids,
        identities,
        num_flows=30,
        num_senders=20,
        rng=rng,
        rate_pps=4.0,
        payload_bytes=64,
        start_window=start_window,
        stop_time=stop_time,
    )
