"""IEEE 802.11 DCF (Distributed Coordination Function) model.

Models the parts of DCF the paper's evaluation hinges on:

* **Unicast** (GPSR data): DIFS + slotted binary-exponential backoff,
  RTS/CTS virtual carrier sensing, SIFS-separated DATA and MAC-level ACK,
  retry with contention-window doubling, retry-limit drops.  The RTS/CTS
  handshake and its retries are exactly what makes GPSR-Greedy's latency
  climb at high density in Figure 1(b).
* **Broadcast** (all hellos; *all* AGFW transmissions): CSMA/CA only —
  DIFS + backoff then fire-and-forget.  No RTS/CTS, no MAC ACK, no
  retries; hidden-terminal collisions are the dominant loss source,
  which drives AGFW-noACK's poor delivery in Figure 1(a).
* **NAV**: stations overhearing RTS/CTS defer for the advertised
  duration.
* **EIFS** after corrupted receptions.

The implementation is a freeze/resume backoff machine driven by channel
busy/idle callbacks from :class:`~repro.net.phy.PhyRadio`.  Busy only
matters while a DIFS or backoff-slot timer is armed (it freezes them),
and idle only in ``CONTEND`` (it resumes contention), so the MAC keeps
its PHY's ``carrier_listen`` level in step with exactly those two
conditions and the PHY skips every other callback.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.net.addresses import MacAddress
from repro.net.mac.constants import DEFAULT_DOT11, Dot11Params
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.packet import Packet
from repro.net.phy import LISTEN_ALL, LISTEN_IDLE, LISTEN_NONE
from repro.sim.engine import Event, Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.phy import PhyRadio

__all__ = ["DcfMac", "MacState", "TxOp"]

ReceiveCallback = Callable[[Packet, MacFrame], None]
CompleteCallback = Callable[[bool], None]


class MacState(Enum):
    IDLE = "idle"
    CONTEND = "contend"
    WAIT_CTS = "wait_cts"
    WAIT_ACK = "wait_ack"


@dataclass
class TxOp:
    """One queued network-layer packet and its transmission bookkeeping."""

    packet: Packet
    dst: MacAddress
    on_complete: Optional[CompleteCallback]
    use_rts: bool
    attempts: int = 0
    backoff_slots: Optional[int] = None
    fresh: bool = True
    enqueue_time: float = 0.0

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast


@dataclass
class MacStats:
    """Counters the benchmarks read out after a run."""

    data_tx: int = 0
    rts_tx: int = 0
    cts_tx: int = 0
    ack_tx: int = 0
    retries: int = 0
    retry_drops: int = 0
    queue_drops: int = 0
    down_drops: int = 0
    delivered_up: int = 0
    bytes_tx: int = 0


class DcfMac:
    """The MAC entity of one node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        address: MacAddress,
        phy: "PhyRadio",
        rng: random.Random,
        params: Dot11Params = DEFAULT_DOT11,
        tracer: Optional[Tracer] = None,
        queue_limit: int = 50,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.address = address
        #: The source address of every frame this station sends.  AGFW
        #: routers set it to ``ANONYMOUS`` so that no frame names the
        #: station; ``address`` still matches frames sent to it.
        self.source = address
        self.phy = phy
        self.rng = rng
        self.params = params
        self.tracer = tracer
        self.queue_limit = queue_limit
        self.receive_callback: Optional[ReceiveCallback] = None
        self.stats = MacStats()
        #: Lifecycle fault flag — set via :meth:`on_node_down`.
        self.down = False

        self._queue: Deque[TxOp] = deque()
        self._op: Optional[TxOp] = None
        self._state = MacState.IDLE
        self._cw = params.cw_min
        self._nav_until = 0.0

        self._difs_timer: Optional[Event] = None
        self._slot_timer: Optional[Event] = None
        self._wait_timer: Optional[Event] = None
        self._nav_timer: Optional[Event] = None

        phy.mac = self

    def _make_frame(
        self,
        kind: FrameKind,
        dst: MacAddress,
        packet: Optional[Packet] = None,
        nav: float = 0.0,
    ) -> MacFrame:
        """A fresh frame from this station; it draws the next frame uid."""
        return MacFrame(kind, self.source, dst, packet=packet, nav=nav)

    # =============================================================== sending
    def send(
        self,
        packet: Packet,
        dst: MacAddress,
        on_complete: Optional[CompleteCallback] = None,
    ) -> None:
        """Queue ``packet`` for transmission to ``dst``.

        ``on_complete(True)`` fires when a unicast is MAC-acknowledged or a
        broadcast leaves the antenna; ``on_complete(False)`` on retry-limit
        or queue overflow.  While the node is *down* (lifecycle fault)
        the send vanishes silently — a crashed station invokes nobody's
        callbacks.
        """
        if self.down:
            self.stats.down_drops += 1
            return
        if len(self._queue) >= self.queue_limit:
            self.stats.queue_drops += 1
            self._trace("mac.ifq_drop", packet_uid=packet.uid, packet_kind=packet.kind)
            if on_complete is not None:
                on_complete(False)
            return
        use_rts = (not dst.is_broadcast) and packet.size_bytes() >= self.params.rts_threshold_bytes
        op = TxOp(
            packet=packet,
            dst=dst,
            on_complete=on_complete,
            use_rts=use_rts,
            enqueue_time=self.sim.now,
        )
        self._queue.append(op)
        if self._op is None and self._state is MacState.IDLE:
            self._start_next()

    def _start_next(self) -> None:
        if self.down:
            return
        if self._op is not None or self._state is not MacState.IDLE:
            return
        if not self._queue:
            return
        self._op = self._queue.popleft()
        self._state = MacState.CONTEND
        op = self._op
        if op.fresh and not self._medium_blocked():
            op.backoff_slots = 0  # idle medium: transmit right after DIFS
        else:
            op.backoff_slots = self.rng.randint(0, self._cw)
        self._try_contend()

    # ============================================================ contention
    def _medium_blocked(self) -> bool:
        return self.phy.carrier_busy or self.sim.now < self._nav_until

    def _try_contend(self) -> None:
        """(Re)enter the DIFS-then-backoff sequence if the channel allows."""
        self._cancel_contention()
        phy = self.phy
        if self._state is not MacState.CONTEND or self._op is None:
            phy.carrier_listen = (
                LISTEN_IDLE if self._state is MacState.CONTEND else LISTEN_NONE
            )
            return
        if phy.carrier_busy:
            phy.carrier_listen = LISTEN_IDLE  # on_channel_idle will call us again
            return
        if self.sim.now < self._nav_until:
            if self._nav_timer is None or self._nav_timer.cancelled:
                self._nav_timer = self.sim.schedule(
                    self._nav_until - self.sim.now, self._on_nav_expired, name="mac.nav"
                )
            phy.carrier_listen = LISTEN_IDLE
            return
        gap = self.params.eifs if phy.last_reception_corrupted else self.params.difs
        self._difs_timer = self.sim.schedule(gap, self._on_difs_done, name="mac.difs")
        phy.carrier_listen = LISTEN_ALL

    def _on_nav_expired(self) -> None:
        self._nav_timer = None
        self._try_contend()

    def _on_difs_done(self) -> None:
        self._difs_timer = None
        if self._op is None or self._state is not MacState.CONTEND:
            return
        if self._op.backoff_slots == 0:
            self._transmit_current()
        else:
            self._schedule_slot()

    def _schedule_slot(self) -> None:
        # The DIFS or slot timer that just fired set LISTEN_ALL; it stays.
        self._slot_timer = self.sim.schedule(
            self.params.slot_time, self._on_slot, name="mac.slot"
        )

    def _on_slot(self) -> None:
        self._slot_timer = None
        op = self._op
        if op is None or self._state is not MacState.CONTEND:
            return
        assert op.backoff_slots is not None and op.backoff_slots > 0
        op.backoff_slots -= 1
        if op.backoff_slots == 0:
            self._transmit_current()
        else:
            self._schedule_slot()

    def on_channel_busy(self) -> None:
        """PHY callback: freeze DIFS/backoff timers."""
        self._cancel_contention()
        if self._state is MacState.CONTEND:
            self.phy.carrier_listen = LISTEN_IDLE

    def on_channel_idle(self) -> None:
        """PHY callback: resume contention (also fires after own TX ends)."""
        if self._state is MacState.CONTEND:
            self._try_contend()

    # ======================================================= lifecycle faults
    def on_node_down(self) -> None:
        """Node crashed: volatile MAC state is gone.

        The interface queue, the in-flight op, every timer, the
        contention window, and the NAV are wiped — none of it survives a
        power cycle.  Dropped ops do *not* get completion callbacks: the
        router that registered them is crashing too (its volatile state
        is cleared by ``on_fault_down``), so nobody is alive to react.
        """
        self.down = True
        self._cancel_contention()
        self._cancel_wait()
        if self._nav_timer is not None:
            self._nav_timer.cancel()
            self._nav_timer = None
        self.phy.carrier_listen = LISTEN_NONE
        dropped = len(self._queue) + (1 if self._op is not None else 0)
        if dropped:
            self.stats.down_drops += dropped
        self._queue.clear()
        self._op = None
        self._state = MacState.IDLE
        self._cw = self.params.cw_min
        self._nav_until = 0.0

    def on_node_up(self) -> None:
        """Node rebooted: resume from pristine (empty) MAC state.

        :meth:`on_node_down` already reset everything; carrier state is
        re-learned from the PHY's live energy bookkeeping on the next
        busy/idle transition.
        """
        self.down = False

    # ========================================================== transmission
    def _transmit_current(self) -> None:
        op = self._op
        assert op is not None
        self._cancel_contention()
        # Every branch below leaves CONTEND (WAIT_CTS, WAIT_ACK or IDLE).
        self.phy.carrier_listen = LISTEN_NONE
        if op.use_rts:
            self._send_rts(op)
        else:
            self._send_data(op)

    def _send_rts(self, op: TxOp) -> None:
        nav = self.params.nav_for_rts(op.packet.size_bytes())
        frame = self._make_frame(FrameKind.RTS, op.dst, nav=nav)
        duration = frame.duration(self.params)
        self.phy.transmit(frame, duration)
        self.stats.rts_tx += 1
        self.stats.bytes_tx += self.params.rts_bytes
        self._state = MacState.WAIT_CTS
        self._wait_timer = self.sim.schedule(
            duration + self.params.cts_timeout, self._on_cts_timeout, name="mac.cts_to"
        )

    def _send_data(self, op: TxOp) -> None:
        nav = 0.0
        if not op.is_broadcast:
            nav = self.params.sifs + self.params.control_duration(self.params.ack_bytes)
        frame = self._make_frame(FrameKind.DATA, op.dst, packet=op.packet, nav=nav)
        duration = frame.duration(self.params)
        self.phy.transmit(frame, duration)
        self.stats.data_tx += 1
        self.stats.bytes_tx += self.params.mac_header_bytes + op.packet.size_bytes()
        tracer = self.tracer
        if tracer is not None and tracer.enabled_for("mac.tx"):
            # Guarded: mac.tx fires once per data frame — skip building the
            # payload dict entirely when nobody is listening.
            tracer.emit(
                self.sim.now,
                "mac.tx",
                node=self.node_id,
                packet_uid=op.packet.uid,
                packet_kind=op.packet.kind,
                dst=op.dst.value,
                broadcast=op.is_broadcast,
            )
        if op.is_broadcast:
            # Fire-and-forget: done when the frame leaves the antenna.
            self._state = MacState.IDLE
            self.sim.schedule(duration, lambda: self._complete(op, True), name="mac.bcast_done")
            self._op = None
        else:
            self._state = MacState.WAIT_ACK
            self._wait_timer = self.sim.schedule(
                duration + self.params.ack_timeout, self._on_ack_timeout, name="mac.ack_to"
            )

    def _send_data_after_cts(self) -> None:
        op = self._op
        if op is None:
            return
        self._send_data(op)

    # ============================================================== timeouts
    def _on_cts_timeout(self) -> None:
        self._wait_timer = None
        self._retry(limit=self.params.short_retry_limit)

    def _on_ack_timeout(self) -> None:
        self._wait_timer = None
        self._retry(limit=self.params.long_retry_limit + self.params.short_retry_limit)

    def _retry(self, limit: int) -> None:
        op = self._op
        if op is None:
            return
        op.attempts += 1
        self.stats.retries += 1
        if op.attempts >= limit:
            self.stats.retry_drops += 1
            self._trace(
                "mac.retry_drop", packet_uid=op.packet.uid, packet_kind=op.packet.kind
            )
            self._finish_op(op, False)
            return
        self._cw = min((self._cw + 1) * 2 - 1, self.params.cw_max)
        op.fresh = False
        op.backoff_slots = self.rng.randint(0, self._cw)
        self._state = MacState.CONTEND
        self._try_contend()

    # ============================================================= reception
    def on_frame(self, frame: MacFrame, tx) -> None:
        """PHY delivered an uncorrupted frame that was in radio range."""
        kind = frame.kind
        if kind is FrameKind.RTS:
            if frame.dst == self.address:
                cts_nav = max(
                    0.0,
                    frame.nav
                    - self.params.sifs
                    - self.params.control_duration(self.params.cts_bytes),
                )
                self._respond(self._make_frame(FrameKind.CTS, frame.src, nav=cts_nav))
            else:
                self._set_nav(frame.nav)
        elif kind is FrameKind.CTS:
            if frame.dst == self.address and self._state is MacState.WAIT_CTS:
                self._cancel_wait()
                self.sim.schedule(self.params.sifs, self._send_data_after_cts, name="mac.sifs_data")
            elif frame.dst != self.address:
                self._set_nav(frame.nav)
        elif kind is FrameKind.DATA:
            if frame.dst == self.address:
                self._respond(self._make_frame(FrameKind.ACK, frame.src))
                self._deliver_up(frame)
            elif frame.dst.is_broadcast:
                self._deliver_up(frame)
            else:
                self._set_nav(frame.nav)
        elif kind is FrameKind.ACK:
            if frame.dst == self.address and self._state is MacState.WAIT_ACK:
                self._cancel_wait()
                op = self._op
                assert op is not None
                self._finish_op(op, True)

    def _deliver_up(self, frame: MacFrame) -> None:
        if frame.packet is None:
            return
        self.stats.delivered_up += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled_for("mac.rx"):
            tracer.emit(
                self.sim.now,
                "mac.rx",
                node=self.node_id,
                packet_uid=frame.packet.uid,
                packet_kind=frame.packet.kind,
                src=frame.src.value,
            )
        if self.receive_callback is not None:
            self.receive_callback(frame.packet, frame)

    def _respond(self, frame: MacFrame) -> None:
        """Send a SIFS-spaced response (CTS or ACK) without carrier sensing."""

        def _fire() -> None:
            if self.down:  # crashed between reception and the SIFS response
                return
            if self.phy._own_tx is not None:  # half-duplex clash; response lost
                return
            duration = frame.duration(self.params)
            self.phy.transmit(frame, duration)
            if frame.kind is FrameKind.CTS:
                self.stats.cts_tx += 1
                self.stats.bytes_tx += self.params.cts_bytes
            else:
                self.stats.ack_tx += 1
                self.stats.bytes_tx += self.params.ack_bytes

        self.sim.schedule(self.params.sifs, _fire, priority=-2, name="mac.sifs_resp")

    def _set_nav(self, nav: float) -> None:
        if nav <= 0:
            return
        until = self.sim.now + nav
        if until > self._nav_until:
            self._nav_until = until
        self._cancel_contention()
        if self._state is MacState.CONTEND:
            self.phy.carrier_listen = LISTEN_IDLE

    # ============================================================ completion
    def _finish_op(self, op: TxOp, success: bool) -> None:
        self._op = None
        self._state = MacState.IDLE
        self._cw = self.params.cw_min
        self._complete(op, success)
        self._start_next()

    def _complete(self, op: TxOp, success: bool) -> None:
        if self.down:  # crashed mid-flight: nobody is alive to notify
            return
        if op.on_complete is not None:
            op.on_complete(success)
        if self._op is None and self._state is MacState.IDLE:
            self._start_next()

    # ================================================================= misc
    def _cancel_contention(self) -> None:
        """Disarm the DIFS and backoff-slot timers."""
        timer = self._difs_timer
        if timer is not None:
            timer.cancel()
            self._difs_timer = None
        timer = self._slot_timer
        if timer is not None:
            timer.cancel()
            self._slot_timer = None

    def _cancel_wait(self) -> None:
        """Disarm the CTS/ACK timeout."""
        timer = self._wait_timer
        if timer is not None:
            timer.cancel()
            self._wait_timer = None

    def _trace(self, category: str, **data) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, category, node=self.node_id, **data)

    @property
    def queue_length(self) -> int:
        return len(self._queue) + (1 if self._op is not None else 0)
