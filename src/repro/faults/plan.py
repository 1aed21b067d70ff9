"""Seeded node-lifecycle fault plans: crash / recover / pause / churn.

A :class:`FaultPlan` is a declarative, immutable, *picklable* schedule of
node up/down transitions.  It is data, not behaviour: plans live in
``ScenarioConfig`` and ship through ``--jobs`` worker pools unchanged, so
the same plan applied to the same seed reproduces the same run anywhere.

Unlike the legacy teleport hack (move a node 100 km away so its links
break), a crash here takes the node *genuinely* down:

* the radio stops delivering and transmitting (``PhyRadio.down``),
* the MAC drops its queue, in-flight op, and every pending timer,
* the router loses volatile state (neighbor tables / ANT entries,
  pending ACK watches) via the ``on_fault_down`` hook,
* beacons stop — neighbors age the node out for real,
* the medium's fan-out memo and spatial gather cache are
  invalidated so reachability recomputes.

Recovery restarts beaconing from empty state, exactly like a reboot.

Determinism contract
--------------------
* Plans are explicit event lists; :meth:`FaultPlan.churn` *generates*
  one from a seed using per-node derived streams
  (``derive_seed(seed, f"faults.churn:{node_id}")``), so adding or
  removing one node from the churn set never perturbs another node's
  schedule.
* :class:`FaultInjector` schedules the plan's events in a canonical
  sorted order ``(time, node_id, action)`` so engine sequence numbers —
  and therefore every trace byte — are a pure function of the plan.
* With no plan the injector is never constructed: the pre-faults code
  path runs unchanged and traces stay byte-identical to the seed
  behaviour.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.domains import (
    Domain,
    Integer,
    InstanceOf,
    OneOf,
    Real,
    Rule,
    TupleOf,
    check_fields,
    checked,
)
from repro.metrics.faults import FaultMetrics
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.sim.trace import TraceRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector"]

FAULT_ACTIONS = ("crash", "recover")

#: Canonical same-instant ordering: a crash sorts before a recover so a
#: zero-length pause is a well-defined down/up blip, never up/down.
_ACTION_ORDER = {"crash": 0, "recover": 1}


@checked({
    "time": Real(">= 0 and finite", low=0.0),
    "node_id": Integer(0),
    "action": OneOf(FAULT_ACTIONS),
})
@dataclass(frozen=True)
class FaultEvent:
    """One lifecycle transition: take ``node_id`` down or bring it back."""

    time: float
    node_id: int
    action: str  # "crash" | "recover"

    DOMAINS: ClassVar[Dict[str, Domain]]  # set by @checked
    RULES: ClassVar[Tuple[Rule, ...]]
    __post_init__ = check_fields


@checked({"events": TupleOf(InstanceOf(FaultEvent))})
@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultEvent` transitions.

    Builders are chainable and return *new* plans (the dataclass is
    frozen), so a scenario literal reads declaratively::

        plan = (FaultPlan()
                .crash(2, at=1.0)
                .recover(2, at=3.0)
                .pause(5, at=2.0, duration=0.5))

    or is generated wholesale by :meth:`churn`.
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    DOMAINS: ClassVar[Dict[str, Domain]]  # set by @checked
    RULES: ClassVar[Tuple[Rule, ...]]
    __post_init__ = check_fields

    # ------------------------------------------------------------- builders
    def crash(self, node_id: int, at: float) -> "FaultPlan":
        """Take ``node_id`` down at time ``at`` (down until recovered)."""
        return FaultPlan(self.events + (FaultEvent(at, node_id, "crash"),))

    def recover(self, node_id: int, at: float) -> "FaultPlan":
        """Bring ``node_id`` back up at time ``at`` (reboot: empty state)."""
        return FaultPlan(self.events + (FaultEvent(at, node_id, "recover"),))

    def pause(self, node_id: int, at: float, duration: float) -> "FaultPlan":
        """Down at ``at``, back up ``duration`` seconds later."""
        if duration < 0:
            raise ValueError(f"pause duration must be >= 0, got {duration}")
        return self.crash(node_id, at).recover(node_id, at + duration)

    @classmethod
    def churn(
        cls,
        node_ids: Iterable[int],
        sim_time: float,
        seed: int,
        rate: float = 1.0,
        mean_downtime: float = 1.0,
        start: float = 0.0,
    ) -> "FaultPlan":
        """Generate a seeded random churn schedule.

        Each node independently alternates exponential up-times (mean
        ``sim_time / rate`` — so ``rate`` is the expected number of
        crashes per node over the run) and exponential down-times (mean
        ``mean_downtime`` seconds), starting up at ``start``.  A node
        whose recovery would land past ``sim_time`` simply stays down.

        Per-node derived RNG streams keep each node's schedule a pure
        function of ``(seed, node_id)``: churn sets compose without
        perturbing one another.
        """
        # Bare sign checks would let NaN through (``nan < 0`` is False).
        if not 0 < sim_time < math.inf:
            raise ValueError(f"sim_time must be positive and finite, got {sim_time}")
        if not 0 <= rate < math.inf:
            raise ValueError(f"churn rate must be >= 0 and finite, got {rate}")
        if not 0 < mean_downtime < math.inf:
            raise ValueError(f"mean_downtime must be positive and finite, got {mean_downtime}")
        events: List[FaultEvent] = []
        if rate == 0:
            return cls(tuple(events))
        mean_uptime = sim_time / rate
        for node_id in sorted(set(node_ids)):
            rng = random.Random(derive_seed(seed, f"faults.churn:{node_id}"))
            t = start + rng.expovariate(1.0 / mean_uptime)
            while t < sim_time:
                events.append(FaultEvent(t, node_id, "crash"))
                up_at = t + rng.expovariate(1.0 / mean_downtime)
                if up_at >= sim_time:
                    break  # stays down through the end of the run
                events.append(FaultEvent(up_at, node_id, "recover"))
                t = up_at + rng.expovariate(1.0 / mean_uptime)
        return cls(tuple(events))

    # -------------------------------------------------------------- queries
    def sorted_events(self) -> Tuple[FaultEvent, ...]:
        """Events in canonical apply order ``(time, node_id, action)``."""
        return tuple(
            sorted(
                self.events,
                key=lambda e: (e.time, e.node_id, _ACTION_ORDER[e.action]),
            )
        )

    def node_ids(self) -> Tuple[int, ...]:
        """Sorted ids of every node the plan touches."""
        return tuple(sorted({e.node_id for e in self.events}))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a built scenario and keeps score.

    The injector owns the downtime ledger: per-node down-since stamps,
    total node-seconds of downtime, and — via a ``app.recv`` trace
    subscription — the count of end-to-end deliveries that completed
    while at least one node was down (deliveries *despite* faults).

    Call :meth:`arm` once after construction (schedules every plan event
    against the simulator) and :meth:`finalize` once after the run
    (closes still-open downtime intervals at the final clock).
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence["Node"],
        plan: FaultPlan,
        metrics: FaultMetrics,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.metrics = metrics
        self.tracer = tracer
        self._nodes: Dict[int, "Node"] = {n.node_id: n for n in nodes}
        unknown = sorted(set(plan.node_ids()) - set(self._nodes))
        if unknown:
            raise ValueError(f"fault plan targets unknown node ids: {unknown}")
        self._down_since: Dict[int, float] = {}
        self._armed = False
        self._finalized = False
        if tracer is not None:
            tracer.subscribe("app.recv", self._on_delivery)

    # ------------------------------------------------------------ lifecycle
    def arm(self) -> None:
        """Schedule every plan event (idempotent; canonical order)."""
        if self._armed:
            return
        self._armed = True
        for event in self.plan.sorted_events():
            self.sim.schedule_at(
                event.time,
                (lambda e=event: self._apply(e)),
                name=f"fault.{event.action}",
            )

    def _apply(self, event: FaultEvent) -> None:
        node = self._nodes[event.node_id]
        now = self.sim.now
        if event.action == "crash":
            if not node.fail():
                return  # already down: idempotent
            self.metrics.crashes += 1
            self._down_since[event.node_id] = now
            if self.tracer is not None:
                self.tracer.emit(now, "fault.crash", node=event.node_id)
        else:
            if not node.recover():
                return  # already up: idempotent
            self.metrics.recoveries += 1
            since = self._down_since.pop(event.node_id, now)
            self.metrics.downtime_s += now - since
            if self.tracer is not None:
                self.tracer.emit(now, "fault.recover", node=event.node_id)

    def finalize(self, now: float) -> None:
        """Close downtime intervals still open at the end of the run."""
        if self._finalized:
            return
        self._finalized = True
        for node_id in sorted(self._down_since):
            self.metrics.downtime_s += now - self._down_since[node_id]
        self._down_since.clear()

    # -------------------------------------------------------------- queries
    @property
    def any_down(self) -> bool:
        """True while at least one plan-managed node is down."""
        return bool(self._down_since)

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down_since

    # ------------------------------------------------------------ observers
    def _on_delivery(self, record: TraceRecord) -> None:
        if self._down_since:
            self.metrics.deliveries_during_downtime += 1
