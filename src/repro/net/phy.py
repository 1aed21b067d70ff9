"""Per-node radio (PHY layer).

Tracks which transmissions currently impinge on this node, decides
reception outcomes (delivered / collided / out of range), and exposes
carrier-sense state to the MAC.

Half-duplex: a radio that transmits cannot receive, and starting a
transmission corrupts anything it was in the middle of receiving.

Reception is one operation per fan-out
--------------------------------------
Every transmission reaches every radio within interference range (93
per frame on the paper's 150-node arena), so reception is the hottest
path in the simulator.  The medium hands each fan-out to two static
methods, :meth:`PhyRadio.on_tx_start` and :meth:`PhyRadio.on_tx_end`,
called through the class.  Each runs one loop over the affected radios
in registration order and keeps every radio's state exactly as a
per-radio call would: capture, half-duplex corruption, carrier
callbacks, the loss draw, the EIFS flag and the frame counters.  A
delivered frame goes up through the handler its MAC class chose once
for the frame (:meth:`repro.net.mac.dcf.DcfMac.receiver_for`).

Fault hooks (both absent by default — the seed code path is unchanged):

* an optional per-receiver **channel loss process**
  (:mod:`repro.faults.loss`) judges every deliverable reception once,
  in event order, and can eat it — modelling fading/shadowing losses
  the unit-disk collision model cannot produce;
* a **down** flag (set by :meth:`repro.net.node.Node.fail`) makes the
  radio genuinely deaf and mute: nothing is delivered and the MAC gets
  no carrier callbacks, while impinging-energy bookkeeping still runs
  so carrier state is correct the instant the node recovers.

Carrier-listener contract
-------------------------
Most MACs ignore most carrier transitions: an idle station has nothing
to freeze or resume.  So the MAC keeps :attr:`PhyRadio.carrier_listen`
at one of the ``LISTEN_*`` levels at its own state transitions, and the
PHY makes a carrier callback only when the level asks for it.  The MAC
may listen to more than it needs (extra callbacks are no-ops) but never
to less.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.geo.vec import Position
from repro.net.mobility import MobilityModel
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.loss import LossProcess
    from repro.net.mac.dcf import DcfMac, Receiver
    from repro.net.medium import RadioMedium, Transmission

__all__ = ["PhyRadio", "LISTEN_NONE", "LISTEN_IDLE", "LISTEN_ALL"]

#: ``carrier_listen`` levels: no carrier callbacks; ``on_channel_idle``
#: only; both ``on_channel_busy`` and ``on_channel_idle``.
LISTEN_NONE = 0
LISTEN_IDLE = 1
LISTEN_ALL = 2


#: Signal-to-interference capture: a reception survives an overlapping
#: interferer when the desired signal is >= 10 dB stronger.  With the
#: two-ray path-loss exponent of 4 that means the interferer must be at
#: least 10**(1/4) ~ 1.778x farther away than the desired transmitter
#: (the classic NS-2 550 m / 250 m relationship).
CAPTURE_DISTANCE_RATIO = 10.0 ** 0.25


class Reception:
    """One transmission impinging on one radio: the receiver-to-sender
    distance (for capture and loss draws) and the corrupted verdict."""

    __slots__ = ("distance", "corrupted")

    def __init__(self, distance: float, corrupted: bool) -> None:
        self.distance = distance
        self.corrupted = corrupted


class PhyRadio:
    """The radio of one node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        medium: "RadioMedium",
        mobility: MobilityModel,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.medium = medium
        self.mobility = mobility
        self.tracer = tracer
        self.mac: Optional["DcfMac"] = None
        #: Which carrier callbacks the MAC wants (a ``LISTEN_*`` level);
        #: written only by the MAC, see the module docstring.
        self.carrier_listen = LISTEN_NONE

        #: Transmission uid -> its reception record, for everything
        #: currently impinging on this radio.
        self._impinging: Dict[int, Reception] = {}
        self._own_tx: Optional[Transmission] = None
        self._last_ended_corrupted = False
        #: Channel loss process (``None`` = the unimpaired seed channel).
        self._loss: Optional["LossProcess"] = None
        #: Lifecycle fault flag — managed by :meth:`repro.net.node.Node.fail`.
        self.down = False

        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_impaired = 0
        medium.register(self)

    # ---------------------------------------------------------------- faults
    def set_loss_process(self, process: Optional["LossProcess"]) -> None:
        """Install this receiver's channel-loss process (``None`` = none).

        With no process the reception path below runs exactly the
        pre-faults instructions — traces stay byte-identical to the
        unimpaired simulator.
        """
        self._loss = process

    # -------------------------------------------------------------- position
    @property
    def position(self) -> Position:
        return self.mobility.position_at(self.sim.now)

    # --------------------------------------------------------- carrier sense
    @property
    def carrier_busy(self) -> bool:
        """Physical carrier sense: any impinging energy or own transmission."""
        return bool(self._impinging) or self._own_tx is not None

    @property
    def last_reception_corrupted(self) -> bool:
        """True when the most recent channel-release followed a collision.

        The MAC uses EIFS instead of DIFS after corrupted receptions.
        """
        return self._last_ended_corrupted

    # ------------------------------------------------------------ transmit
    def transmit(self, frame, duration: float) -> "Transmission":
        """Send a frame; the MAC has already won contention."""
        return self.medium.transmit(self, frame, duration)

    def begin_transmit(self, tx: "Transmission") -> None:
        self._own_tx = tx
        # Half-duplex: anything being received right now is lost.
        for rec in self._impinging.values():
            rec.corrupted = True

    def end_transmit(self, tx: "Transmission") -> None:
        self._own_tx = None
        if self.carrier_listen and not self._impinging and not self.down:
            mac = self.mac
            if mac is not None:
                mac.on_channel_idle()

    # ------------------------------------------------------------ reception
    @staticmethod
    def on_tx_start(
        tx: "Transmission", radios: Sequence["PhyRadio"], distances: Sequence[float]
    ) -> None:
        """``tx`` starts impinging on every radio of its fan-out.

        ``radios`` are the affected radios in registration order and
        ``distances[i]`` is ``radios[i]``'s receiver-to-sender distance,
        bitwise what ``radio.position.distance_to(tx.sender_pos)``
        computes.  One loop keeps each radio's reception state: pairwise
        capture against everything already impinging, half-duplex
        corruption, and the busy callback of a listening MAC whose
        channel was idle.
        """
        uid = tx.uid
        ratio = CAPTURE_DISTANCE_RATIO
        for radio, new_distance in zip(radios, distances):
            impinging = radio._impinging
            own_tx = radio._own_tx
            was_idle = not impinging and own_tx is None  # carrier_busy inlined
            # Half-duplex: nothing arriving during our own TX is decodable.
            new_corrupted = own_tx is not None
            if impinging:
                for rec in impinging.values():
                    other_distance = rec.distance
                    # Pairwise capture: a reception is ruined only by an
                    # interferer whose signal is within 10 dB of (or
                    # stronger than) it.
                    if new_distance < other_distance * ratio:
                        rec.corrupted = True
                    if other_distance < new_distance * ratio:
                        new_corrupted = True
            impinging[uid] = Reception(new_distance, new_corrupted)
            if was_idle and radio.carrier_listen == LISTEN_ALL and not radio.down:
                mac = radio.mac
                if mac is not None:
                    mac.on_channel_busy()

    @staticmethod
    def on_tx_end(
        tx: "Transmission", radios: Sequence["PhyRadio"], receive: Optional["Receiver"]
    ) -> None:
        """``tx`` stops impinging on every radio of its fan-out.

        For each radio in registration order: its reception record goes;
        a down radio stops there.  A deliverable reception draws from the
        radio's loss process, then counts as impaired, collided or
        delivered; a delivered one is handed to the radio's MAC as
        ``receive(mac, tx)``, the handler the MAC chose for this frame
        (``None``: the frame needs none).  Then, if the channel went
        idle, the EIFS flag is set and a listening MAC hears it.
        """
        uid = tx.uid
        deliverable_to = tx.deliverable_to
        for radio in radios:
            impinging = radio._impinging
            rec = impinging.pop(uid)
            if radio.down:
                # A dead radio decodes nothing and owes the MAC no carrier
                # callbacks.  The energy bookkeeping above still ran, so
                # carrier_busy is correct the instant the node recovers —
                # and the loss process is *not* consulted: its stream
                # position is a pure function of receptions judged while
                # alive.
                continue
            collided = False
            if radio.node_id in deliverable_to:
                corrupted = rec.corrupted
                loss = radio._loss
                # The channel-state draw happens for *every* deliverable
                # reception — independent of interference outcomes — so
                # the RNG stream position depends only on the traffic
                # pattern.
                if loss is not None and loss.should_drop(rec.distance) and not corrupted:
                    # The observable damage: a reception that would have
                    # been delivered.  Collided receptions were already
                    # lost.  A faded frame is neither delivered nor a CRC
                    # failure, so the EIFS decision below treats it like
                    # plain channel noise.
                    loss.metrics.deliveries_suppressed += 1
                    radio.frames_impaired += 1
                    tracer = radio.tracer
                    if tracer is not None and tracer.enabled_for("phy.fault_drop"):
                        tracer.emit(
                            radio.sim.now,
                            "phy.fault_drop",
                            node=radio.node_id,
                            frame_uid=tx.frame.uid,
                            frame_kind=tx.frame.kind.value,
                            distance=rec.distance,
                        )
                elif corrupted:
                    collided = True
                    radio.frames_collided += 1
                    tracer = radio.tracer
                    if tracer is not None and tracer.enabled_for("phy.collision"):
                        tracer.emit(
                            radio.sim.now,
                            "phy.collision",
                            node=radio.node_id,
                            frame_uid=tx.frame.uid,
                            frame_kind=tx.frame.kind.value,
                        )
                else:
                    radio.frames_delivered += 1
                    if receive is not None:
                        mac = radio.mac
                        if mac is not None:
                            receive(mac, tx)
            if not impinging and radio._own_tx is None:  # carrier_busy inlined
                # EIFS applies only after a decodable frame failed its
                # CRC; a transmission that was merely sensed (out of radio
                # range) is plain channel noise and releases with a
                # normal DIFS.
                radio._last_ended_corrupted = collided
                # Read after the MAC upcall above, which may have changed
                # the level.
                if radio.carrier_listen:
                    mac = radio.mac
                    if mac is not None:
                        mac.on_channel_idle()
