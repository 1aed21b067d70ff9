"""Structured event tracing.

A :class:`Tracer` collects typed trace records emitted by any simulation
component.  Traces power the metric collectors, the adversary modules (a
sniffer is just a consumer of PHY traces within radio range), and debugging.

Hot-path design
---------------
``emit`` runs once per simulated event across the whole stack (every
frame, every MAC timer decision, every routing hop), so its constant
factor is engine-level:

* **Interned categories.**  Every category string is ``sys.intern``-ed on
  first sight, so the per-category dispatch dict below resolves by
  pointer comparison and retained records share one string object per
  category.
* **Per-category dispatch cache.**  Subscribers are bucketed by the
  first dotted segment of their prefix (``"mac."`` subscriptions are
  never scanned for a ``phy.tx`` record); the matching callback tuple
  per category — or a muted marker — is computed once and memoized, so
  a hot ``emit`` is one dict lookup, not a prefix scan.  The cache is
  instance-held (it dies with the tracer) and is invalidated by
  ``subscribe``/``mute``/``unmute``.
* **Zero-allocation drop path.**  When retention is off (``keep=False``)
  and no subscriber matches, ``emit`` returns before the
  :class:`TraceRecord` is ever constructed — benchmark-style runs used
  to allocate (and immediately drop) a frozen dataclass per event.
* **`enabled_for` guard.**  Emitters with expensive payloads ask
  ``tracer.enabled_for(category)`` first and skip building the payload
  dict entirely when nobody is listening (see the MAC and medium hot
  paths).

``mute`` uses the same *prefix* semantics as ``subscribe``/``filter``:
``mute("mac.")`` drops ``mac.drop`` too (it used to match only the exact
category, a long-standing asymmetry).

Two runs trace *the same* when their records agree one by one on
``(repr(time), category, node)`` — packet and frame uids are module
counters and deliberately exempt (DET-006).  :func:`trace_divergence`
is the one definition of that contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern as _intern
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["TraceRecord", "Tracer", "trace_divergence"]

#: Dispatch-cache marker for "this category is muted".  Distinct from the
#: empty tuple (= live but subscriber-less, still retained when keep=True).
_MUTED = False

_Subscriber = Tuple[str, Callable[["TraceRecord"], None]]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    ``category`` is a short dotted tag (``"phy.tx"``, ``"mac.drop"``,
    ``"route.forward"``, ``"app.recv"``); ``node`` is the emitting node id
    (or ``None`` for global records); ``data`` carries event-specific fields.
    """

    time: float
    category: str
    node: Optional[int]
    data: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`TraceRecord` objects and dispatches to subscribers.

    Subscribers (e.g. metric collectors, adversary sniffers) register a
    callback per category prefix and receive records as they are emitted,
    so online analyses never need the full in-memory log.  Retention of the
    full log is optional (``keep=False`` for long benchmark runs).
    """

    def __init__(self, keep: bool = True) -> None:
        self.keep = keep
        self.records: List[TraceRecord] = []
        #: All subscriptions in registration order (the dispatch order).
        self._subscribers: List[_Subscriber] = []
        #: Dotted prefixes bucketed by their first segment; prefixes that
        #: cannot pin a first segment (no ``"."``) go to the global list.
        self._buckets: Dict[str, List[Tuple[int, str, Callable[[TraceRecord], None]]]] = {}
        self._unbucketed: List[Tuple[int, str, Callable[[TraceRecord], None]]] = []
        self._muted: List[str] = []
        #: interned category -> tuple of matching callbacks, or ``_MUTED``.
        self._dispatch: Dict[str, Any] = {}

    # ------------------------------------------------------------- resolution
    def _resolve(self, category: str) -> Any:
        """Compute (and memoize) the dispatch entry for ``category``."""
        category = _intern(category)
        entry: Any
        if any(category.startswith(m) for m in self._muted):
            entry = _MUTED
        else:
            head, _, _ = category.partition(".")
            matches = [
                (order, callback)
                for order, prefix, callback in self._unbucketed
                if category.startswith(prefix)
            ]
            matches += [
                (order, callback)
                for order, prefix, callback in self._buckets.get(head, ())
                if category.startswith(prefix)
            ]
            matches.sort()  # registration order across both pools
            entry = tuple(callback for _, callback in matches)
        self._dispatch[category] = entry
        return entry

    def enabled_for(self, category: str) -> bool:
        """Would emitting ``category`` have any effect right now?

        ``False`` when the category is muted, or when it is neither
        retained (``keep=False``) nor matched by any subscriber — hot
        emitters use this to skip building payload dicts entirely.
        """
        callbacks = self._dispatch.get(category)
        if callbacks is None:
            callbacks = self._resolve(category)
        if callbacks is _MUTED:
            return False
        return self.keep or bool(callbacks)

    # ----------------------------------------------------------------- emit
    def emit(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **data: Any,
    ) -> None:
        """Record an event. ``data`` keys are event-specific payload fields."""
        callbacks = self._dispatch.get(category)
        if callbacks is None:
            callbacks = self._resolve(category)
            category = _intern(category)
        if callbacks is _MUTED:
            return
        if not callbacks and not self.keep:
            return  # zero-allocation drop path: no TraceRecord at all
        record = TraceRecord(time=time, category=category, node=node, data=data)
        if self.keep:
            self.records.append(record)
        for callback in callbacks:
            callback(record)

    # ------------------------------------------------------------ subscribe
    def subscribe(self, prefix: str, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for every future record whose category starts with ``prefix``."""
        order = len(self._subscribers)
        self._subscribers.append((prefix, callback))
        head, dot, _ = prefix.partition(".")
        if dot:
            # A dotted prefix pins the record's first segment exactly.
            self._buckets.setdefault(head, []).append((order, prefix, callback))
        else:
            # ``""`` or a partial head ("ma" matches both "mac.*" and
            # "mavericks.*"): consult for every category.
            self._unbucketed.append((order, prefix, callback))
        self._dispatch.clear()

    def mute(self, prefix: str) -> None:
        """Drop records whose category starts with ``prefix`` (hot-path
        suppression; same prefix semantics as :meth:`subscribe`)."""
        if prefix not in self._muted:
            self._muted.append(prefix)
        self._dispatch.clear()

    def unmute(self, prefix: str) -> None:
        if prefix in self._muted:
            self._muted.remove(prefix)
        self._dispatch.clear()

    # -------------------------------------------------------------- queries
    def filter(self, prefix: str) -> Iterator[TraceRecord]:
        """Yield retained records whose category starts with ``prefix``."""
        return (r for r in self.records if r.category.startswith(prefix))

    def count(self, prefix: str) -> int:
        """Number of retained records under ``prefix``."""
        return sum(1 for _ in self.filter(prefix))

    def clear(self) -> None:
        self.records.clear()

    def categories(self) -> Dict[str, int]:
        """Histogram of retained record categories."""
        hist: Dict[str, int] = {}
        for record in self.records:
            hist[record.category] = hist.get(record.category, 0) + 1
        return hist

    def dispatch_stats(self) -> Dict[str, int]:
        """Fast-path telemetry: cached categories, subscriber count,
        bucketed vs global subscriptions, mute prefixes, retained records."""
        return {
            "cached_categories": len(self._dispatch),
            "subscribers": len(self._subscribers),
            "bucketed": sum(len(v) for v in self._buckets.values()),
            "unbucketed": len(self._unbucketed),
            "muted_prefixes": len(self._muted),
            "retained_records": len(self.records),
        }

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)


def trace_divergence(
    expected: Sequence[Any], got: Sequence[Any], expected_name: str, got_name: str
) -> Optional[str]:
    """Where ``got`` first departs from ``expected``, or ``None`` when the
    two traces are the same (see the module docstring).

    Records are anything with ``time``, ``category`` and ``node``
    attributes; the message names the first divergent record, or the
    length mismatch after an identical prefix.
    """
    limit = min(len(expected), len(got))
    for i in range(limit):
        want, have = expected[i], got[i]
        if (repr(want.time), want.category, want.node) != (
            repr(have.time),
            have.category,
            have.node,
        ):
            return (
                f"trace divergence at record {i}: {expected_name} "
                f"({want.time!r}, {want.category!r}, node={want.node!r}) vs "
                f"{got_name} ({have.time!r}, {have.category!r}, node={have.node!r})"
            )
    if len(expected) != len(got):
        return (
            f"trace length mismatch: {expected_name} {len(expected)} records, "
            f"{got_name} {len(got)} (first {limit} identical)"
        )
    return None
