"""The IEEE 802.11 Distributed Coordination Function.

:class:`DcfMac` is a complete CSMA/CA MAC on top of a
:class:`~repro.phy.transceiver.Radio`:

* physical + virtual carrier sense (CCA + NAV),
* DIFS/EIFS waits and binary-exponential backoff that freezes while
  the medium is busy — counted down as a *single batched event* at
  ``remaining_slots x slot_time`` (re-anchored on every CCA edge) with
  slot-boundary float arithmetic and tie-break ordering identical to a
  slot-by-slot countdown, so idle backoff costs O(1) events instead of
  O(slots),
* ACK-protected unicast with short/long retry limits and contention
  window doubling,
* optional RTS/CTS reservation above the RTS threshold,
* MSDU fragmentation into SIFS-separated, individually-ACKed bursts,
* per-destination sequence numbering, receiver-side duplicate
  rejection and fragment reassembly,
* per-destination rate adaptation (ARF/AARF/fixed/ideal) for data
  frames, control responses at the basic rate,
* management-frame transmission (beacons broadcast un-ACKed; unicast
  management ACKed like data) for the association layer above.

The implementation is callback-driven on the simulation kernel; all
timing uses the PHY standard's slot/SIFS/DIFS constants, so the MAC's
behaviour under contention matches the analytic (Bianchi) saturation
model — which is exactly what benchmark E10 checks.

``_maybe_start_ifs``, ``_cancel_access_timers``, ``_ifs_expired`` and
``phy_rx_end`` are the *reference* for compiled twins in
``repro.core._ckernel``, which a plain :class:`DcfMac` on a plain radio
of a C-kernel simulator binds (:data:`MAC`) into its radio's upcalls,
its NAV, its IFS timer and its own call sites
(``tests/test_slot_differential.py`` holds each twin to its method, slot
by slot, schedule by schedule and failure by failure).  The
``phy_rx_end`` twin answers
the corrupt and the overheard frame itself — both read the per-frame
:attr:`~repro.mac.frames.Dot11Frame.rx_verdict` — and is this method for
every frame addressed to the station: Python owns the frames addressed
to it.  Every frame the MAC sends goes through its radio's served
``transmit`` (``radio._transmit``): on the compiled kernel a plain
radio puts it on the air in C.  The busy verdict is :meth:`Radio.cca_busy
<repro.phy.transceiver.Radio.cca_busy>`: its ``sum(arrivals.values())``
is what the twins' C fold is held to (``_ckernel.table_fold``).  The transmit
path sizes every fragment of an MSDU once, by arithmetic, as its context
is prepared (``_TxContext.sizes`` feeds the RTS decision, the duration
fields, the byte counter and the bits transmitted) and builds a frame
only to send it; what the frozen standard fixes is computed at
construction, and each peer is acknowledged with one frozen ACK, built
on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.binding import Table, bind
from ..core.engine import Simulator, Timer
from ..core.errors import ConfigurationError, FrameError
from ..core.stats import Counter
from ..phy.standards import PhyMode
from ..phy.transceiver import Radio, RadioState
from .addresses import MacAddress
from .backoff import BackoffWindow
from .dedup import DuplicateCache
from .fragmentation import Fragment, Reassembler, fragment_payload
from .frames import (
    ACK_SIZE_BYTES,
    CTS_SIZE_BYTES,
    ControlSubtype,
    DataSubtype,
    Dot11Frame,
    FrameType,
    ManagementSubtype,
    RTS_SIZE_BYTES,
    SEQUENCE_MODULO,
    frame_size_bytes,
    make_ack,
    make_cts,
    make_data,
    make_management,
    make_null,
    make_ps_poll,
    make_rts,
)
from .nav import Nav
from .queueing import DropTailQueue, Msdu
from .rate_adapt import Arf, RateController, RateControllerFactory


#: The no-op a rate controller inherits unless it listens to SNR, as
#: defined: the one upcall the compiled ``phy_rx_end`` may leave out.
_UNFED_SNR = RateController.on_snr_measurement


@dataclass
class DcfConfig:
    """MAC-level knobs (defaults follow the standard's usual values)."""

    #: Frames whose on-air size exceeds this many bytes use RTS/CTS.
    rts_threshold_bytes: int = 2347  # default: RTS off
    #: MSDU payloads longer than this are fragmented.
    fragmentation_threshold_bytes: int = 2346  # default: fragmentation off
    short_retry_limit: int = 7
    long_retry_limit: int = 4
    queue_capacity: int = 128
    #: Extra slack added to response timeouts (processing delay).
    timeout_margin: float = 10e-6

    def __post_init__(self) -> None:
        if self.rts_threshold_bytes < 0:
            raise ConfigurationError("rts_threshold_bytes must be >= 0")
        if self.fragmentation_threshold_bytes < 256:
            raise ConfigurationError(
                "fragmentation_threshold_bytes must be >= 256")
        if self.short_retry_limit < 1 or self.long_retry_limit < 1:
            raise ConfigurationError("retry limits must be >= 1")


class MacListener:
    """Upcall interface for the layer above the MAC.  No-op defaults."""

    def mac_receive(self, source: MacAddress, destination: MacAddress,
                    payload: bytes, meta: Dict[str, Any]) -> None:
        """A (reassembled, deduplicated) data MSDU arrived."""

    def mac_management(self, frame: Dot11Frame, snr_db: float) -> None:
        """A management frame addressed to us (or broadcast) arrived."""

    def mac_tx_complete(self, msdu: Msdu, success: bool) -> None:
        """A queued MSDU finished (delivered+ACKed, or dropped)."""

    def mac_ps_poll(self, station: MacAddress, aid: int) -> None:
        """A PS-Poll arrived (APs release one buffered frame)."""

    def mac_power_state(self, station: MacAddress,
                        power_save: bool) -> None:
        """A data/null frame announced the sender's PM bit state."""


class _TxContext:
    """State of the MSDU currently being transmitted."""

    __slots__ = ("msdu", "mgmt_subtype", "fragments", "sizes", "frag_index",
                 "sequence", "use_rts", "attempts", "rts_attempts",
                 "cts_received", "is_broadcast", "controller")

    def __init__(self, msdu: Msdu, mgmt_subtype: Optional[ManagementSubtype],
                 fragments: List[Fragment], sizes: List[int], sequence: int,
                 use_rts: bool, controller: RateController):
        self.msdu = msdu
        self.mgmt_subtype = mgmt_subtype
        self.fragments = fragments
        self.sizes = sizes
        self.frag_index = 0
        self.sequence = sequence
        self.use_rts = use_rts
        self.attempts = 0
        self.rts_attempts = 0
        self.cts_received = False
        # The group bit covers broadcast: all ones has it set.
        self.is_broadcast = msdu.destination.is_multicast
        self.controller = controller

    @property
    def has_more_fragments(self) -> bool:
        return self.frag_index < len(self.fragments) - 1


class DcfMac:
    """One station's DCF MAC entity.

    Contention timing rides on three reusable kernel
    :class:`~repro.core.engine.Timer` objects (DIFS/EIFS wait, batched
    backoff countdown, response timeout): they re-anchor on every CCA
    edge without allocating an event handle per arm.  The countdown is
    one event at the last slot boundary; freezing replays the elapsed
    slot boundaries arithmetically (same floats the slot-by-slot
    version produced) instead of having lived through them as events.
    """

    __slots__ = ("sim", "radio", "address", "config", "_rate_factory",
                 "listener", "sniffer", "bssid", "power_management",
                 "queue", "backoff", "nav", "dedup", "reassembler",
                 "counters", "_controllers", "_sequence", "_current",
                 "_backoff_remaining", "_ifs", "_countdown",
                 "_countdown_anchor", "_countdown_remaining", "_response",
                 "_pending_send", "_tx_continuation", "_awaiting",
                 "_use_eifs", "_basic_mode", "_slot_time", "_difs",
                 "_eifs", "_address_value", "_frame_probe", "_ack_airtime",
                 "_cts_airtime", "_ack_wait", "_cts_wait", "_ack_reserve_us",
                 "_acks", "_start_ifs", "_freeze")

    def __init__(self, sim: Simulator, radio: Radio, address: MacAddress,
                 config: Optional[DcfConfig] = None,
                 rate_factory: Optional[RateControllerFactory] = None):
        self.sim = sim
        self.radio = radio
        self.address = address
        self.config = config if config is not None else DcfConfig()
        self._rate_factory = rate_factory if rate_factory is not None else Arf
        self.listener: MacListener = MacListener()
        #: Promiscuous tap: called with every successfully decoded frame.
        self.sniffer: Optional[Callable[[Dot11Frame, float], None]] = None
        #: Frame-lifecycle telemetry hook (see repro.telemetry.spans):
        #: called with (event, msdu) at the sender's enqueue/tx/retry/
        #: delivered/dropped edges.  One `is not None` test per edge
        #: when unset.
        self._frame_probe: Optional[Callable[[str, Any], None]] = None
        #: BSSID this MAC stamps into data/management frames (set by the
        #: association layer; defaults to our own address, i.e. IBSS-style).
        self.bssid: MacAddress = address
        #: When True, outgoing data frames carry the Power Management bit.
        self.power_management = False

        slots = bind(self, MAC, sim)
        start_ifs = slots["_maybe_start_ifs"]
        cancel_timers = slots["_cancel_access_timers"]
        # The MAC's own call sites take the same side as its radio's
        # upcalls: ``self._start_ifs(self)`` / ``self._freeze(self)`` run
        # the compiled twin or the method.  Held unbound and called with
        # the MAC, so a profiler sees a plain function call (Python
        # 3.12's cProfile loses the caller's frame on a method object
        # that wraps a builtin).
        self._start_ifs = start_ifs.__func__
        self._freeze = cancel_timers.__func__
        radio.on_rx_end = slots["phy_rx_end"]
        radio.on_tx_end = self.phy_tx_end
        radio.on_cca_busy = cancel_timers
        radio.on_cca_idle = start_ifs
        standard = radio.standard
        rng = sim.rng.stream(f"mac.{address}")
        self.queue = DropTailQueue(sim, self.config.queue_capacity)
        self.backoff = BackoffWindow(standard.cw_min, standard.cw_max, rng)
        self.nav = Nav(sim, on_expire=start_ifs)
        self.dedup = DuplicateCache()
        self.reassembler = Reassembler()
        self.counters = Counter()
        #: Per-peer rate controllers, keyed by ``MacAddress.value``.
        self._controllers: Dict[int, RateController] = {}
        #: The ACK this MAC sends each peer, keyed by ``MacAddress.value``.
        self._acks: Dict[int, Dot11Frame] = {}
        self._sequence = 0
        self._current: Optional[_TxContext] = None
        self._backoff_remaining: Optional[int] = None
        self._ifs = Timer(sim, slots["_ifs_expired"])
        self._countdown = Timer(sim, self._access_won)
        self._countdown_anchor = 0.0
        self._countdown_remaining = 0
        self._response = Timer(sim, self._response_timeout)
        self._pending_send = Timer(sim, self._sifs_send_data)
        self._tx_continuation: Optional[Callable[[], None]] = None
        self._awaiting: Optional[str] = None  # "cts" | "ack" | None
        self._use_eifs = False
        self._basic_mode = standard.mode_for_rate(standard.basic_rate_bps)
        # Hot-path bindings: the contention machinery runs on every CCA
        # edge and received frame, so avoid repeated attribute chains.
        self._slot_time = standard.slot_time
        # PhyStandard is frozen, so the two derived waits are constants:
        # the cached floats are the outputs of the property expressions.
        self._difs = standard.difs
        self._eifs = standard.eifs
        # So are the control responses' airtimes at the basic mode, the
        # two response waits short of the (live) timeout margin and the
        # reservation a lone data fragment announces.
        ack = self._ack_airtime = self._airtime(ACK_SIZE_BYTES,
                                                self._basic_mode)
        cts = self._cts_airtime = self._airtime(CTS_SIZE_BYTES,
                                                self._basic_mode)
        self._ack_wait = standard.sifs + ack + standard.slot_time
        self._cts_wait = standard.sifs + cts + standard.slot_time
        self._ack_reserve_us = self._us(standard.sifs + ack)
        self._address_value = address.value

    # ------------------------------------------------------------------ API

    def send(self, destination: MacAddress, payload: bytes,
             protected: bool = False, context: Any = None,
             meta: Optional[Dict[str, Any]] = None,
             priority: bool = False) -> bool:
        """Queue a data MSDU for transmission.  Returns False on overflow.

        ``priority`` enqueues at the head of the interface queue (behind
        nothing but the MSDU already in flight) — used by the routing
        layer so control updates survive saturated relays.
        """
        msdu = Msdu(destination=destination, payload=payload,
                    protected=protected, context=context,
                    meta=dict(meta) if meta else {})
        return self._enqueue(msdu, front=priority)

    def send_management(self, subtype: ManagementSubtype,
                        destination: MacAddress, body: bytes,
                        context: Any = None) -> bool:
        """Queue a management frame (beacon, auth, assoc, ...)."""
        msdu = Msdu(destination=destination, payload=body, context=context,
                    meta={"mgmt": subtype})
        return self._enqueue(msdu)

    def send_null(self, destination: MacAddress,
                  power_management: bool) -> bool:
        """Queue a null data frame announcing a PM state change."""
        msdu = Msdu(destination=destination, payload=b"",
                    meta={"null": True, "pm": power_management})
        return self._enqueue(msdu)

    def send_ps_poll(self, aid: int) -> bool:
        """Queue a PS-Poll toward our BSSID to retrieve a buffered frame."""
        msdu = Msdu(destination=self.bssid, payload=b"",
                    meta={"ps_poll": True, "aid": aid})
        return self._enqueue(msdu)

    def rate_controller_for(self, peer: MacAddress) -> RateController:
        """The (lazily created) rate controller for a destination."""
        controller = self._controllers.get(peer.value)
        if controller is None:
            controller = self._rate_factory(self.radio.standard)
            self._controllers[peer.value] = controller
        return controller

    @property
    def idle(self) -> bool:
        """No MSDU in flight and nothing queued."""
        return self._current is None and self.queue.empty

    def crash(self) -> None:
        """Fault injection: drop all MAC state as a power loss would.

        Cancels every contention/response timer, clears the NAV, and
        discards the in-flight MSDU and the interface queue *silently*
        — a crashed node notifies nobody, so no ``mac_tx_complete``
        upcalls fire for the discarded frames.  The radio is left
        untouched; callers power it off separately (see
        :mod:`repro.faults.injectors`).
        """
        self._ifs.cancel()
        self._countdown.cancel()
        self._response.cancel()
        self._pending_send.cancel()
        self.nav.clear()
        self._awaiting = None
        self._tx_continuation = None
        self._current = None
        self._backoff_remaining = None
        self._use_eifs = False
        self.backoff.reset()
        self.queue.clear()
        self.counters.incr("crashes")

    # --------------------------------------------------------------- queueing

    def _enqueue(self, msdu: Msdu, front: bool = False) -> bool:
        accepted = self.queue.offer(msdu, front=front)
        if not accepted:
            self.counters.incr("queue_drops")
            return False
        probe = self._frame_probe
        if probe is not None:
            probe("enqueue", msdu)
        if self._current is None:
            self._begin_contention(draw_backoff=False)
        return True

    def _begin_contention(self, draw_backoff: bool) -> None:
        """Pull the next MSDU (if any) and enter channel access."""
        if self._current is None:
            msdu = self.queue.poll()
            if msdu is None:
                return
            self._current = self._prepare_context(msdu)
        if draw_backoff or self._backoff_remaining is None:
            if draw_backoff:
                self._backoff_remaining = self.backoff.draw()
            else:
                # Fresh arrival: immediate access after DIFS if the medium
                # is idle right now, otherwise contend with a full draw.
                self._backoff_remaining = 0 if self._medium_idle() \
                    else self.backoff.draw()
        self._start_ifs(self)

    def _prepare_context(self, msdu: Msdu) -> _TxContext:
        mgmt = msdu.meta.get("mgmt")
        threshold = self.config.fragmentation_threshold_bytes
        if mgmt is not None or len(msdu.payload) <= threshold:
            fragments = [Fragment(0, False, msdu.payload)]
        else:
            fragments = fragment_payload(msdu.payload, threshold)
        sequence = self._sequence
        self._sequence = (self._sequence + 1) % SEQUENCE_MODULO
        controller = self.rate_controller_for(msdu.destination)
        sizes = [self._frame_size(msdu, mgmt, fragment)
                 for fragment in fragments]
        use_rts = (mgmt is None and not msdu.destination.is_multicast
                   and sizes[0] > self.config.rts_threshold_bytes)
        return _TxContext(msdu, mgmt, fragments, sizes, sequence, use_rts,
                          controller)

    # ----------------------------------------------------------- carrier sense

    def _medium_idle(self) -> bool:
        """May this station count down: radio idle, NAV expired, no
        energy above the CCA threshold?

        A sleeping radio senses nothing but also cannot transmit, so
        for contention it is never idle; the wake-up CCA kick
        (``Radio.wake``) resumes channel access.  The NAV is read
        before the table is summed, as the compiled
        ``_maybe_start_ifs`` reads it.
        """
        radio = self.radio
        return (radio._state is RadioState.IDLE
                and self.sim._now >= self.nav._until
                and not radio.cca_busy())

    def _maybe_start_ifs(self) -> None:
        """Arm the DIFS/EIFS wait if we are contending and all is quiet.

        Runs on every CCA-idle edge, TX completion and decoded frame:
        the cheap rejects come first, then :meth:`_medium_idle`.
        """
        if self._ifs._armed or self._countdown._armed:
            return  # already contending (most common reject: checked first)
        if self._current is None or self._awaiting is not None:
            return
        if self._tx_continuation is not None or self._pending_send._armed:
            return  # mid-exchange (about to transmit / SIFS response)
        if not self._medium_idle():
            return  # NAV, TX/RX, asleep, or energy on the air
        # Unchecked arm: the DIFS/EIFS constants are positive finite
        # floats, and this runs on every idle edge at every contending
        # station.
        sim = self.sim
        sim._arm(self._ifs, sim._now + (self._eifs if self._use_eifs
                                        else self._difs))

    def _cancel_access_timers(self) -> None:
        self._ifs.cancel()
        if self._countdown.cancel():
            # Freeze: replay the slot boundaries that elapsed since the
            # anchor with the exact float fold the slot-by-slot
            # countdown performed (anchor + slot + slot + ...), so the
            # residual count and every future slot-grid timestamp are
            # bit-identical to the per-slot implementation.  A boundary
            # landing exactly on `now` has already been counted down:
            # its tick event carried an earlier sequence number than
            # the CCA-busy arrival that triggered this freeze (for
            # sub-slot propagation delays, i.e. any 802.11 geometry).
            slot = self._slot_time
            boundary = self._countdown_anchor + slot
            remaining = self._countdown_remaining
            now = self.sim._now
            while boundary <= now and remaining > 0:
                remaining -= 1
                boundary += slot
            self._backoff_remaining = remaining

    def _ifs_expired(self) -> None:
        self._use_eifs = False
        remaining = self._backoff_remaining
        if remaining is None:
            remaining = self._backoff_remaining = self.backoff.draw()
        if remaining <= 0:
            self._access_won()
            return
        # Batched countdown: one event at the final slot boundary
        # instead of one per slot.  The expiry instant is computed with
        # the same left-fold float additions the per-slot chain used,
        # and the timer's sequence number is drawn here — at the
        # anchor — which preserves the per-slot winner ordering when
        # several stations (re-)anchor on the same CCA edge and expire
        # in the same slot.
        anchor = self.sim._now
        self._countdown_anchor = anchor
        self._countdown_remaining = remaining
        slot = self._slot_time
        expiry = anchor
        for _ in range(remaining):
            expiry += slot
        self.sim._arm(self._countdown, expiry)  # expiry >= now, finite

    def _access_won(self) -> None:
        self._backoff_remaining = None
        ctx = self._current
        if ctx is None:
            return
        if ctx.use_rts and not ctx.cts_received and ctx.frag_index == 0:
            self._send_rts()
        else:
            self._send_data_fragment()

    # --------------------------------------------------------------- timings

    def _airtime(self, size_bytes: int, mode: PhyMode) -> float:
        return self.radio.standard.frame_airtime(size_bytes * 8, mode)

    @staticmethod
    def _us(seconds: float) -> int:
        return min(int(math.ceil(seconds * 1e6)), 0xFFFF)

    # --------------------------------------------------------------- transmit

    def _frame_size(self, msdu: Msdu, mgmt: Optional[ManagementSubtype],
                    fragment: Fragment) -> int:
        """``_frame_for(...).wire_size_bytes()`` of that fragment without
        the frame: a size decides RTS and fills duration fields before,
        and more often than, a frame is built to be sent."""
        meta = msdu.meta
        if meta.get("ps_poll"):
            return frame_size_bytes(FrameType.CONTROL,
                                    ControlSubtype.PS_POLL, 0)
        if meta.get("null"):
            return frame_size_bytes(FrameType.DATA, DataSubtype.NULL, 0)
        if mgmt is None and meta.get("to_ds") and meta.get("from_ds"):
            raise FrameError("wireless-DS data frames require addr4")
        # Management and data frames share the three-address header.
        return frame_size_bytes(FrameType.DATA, DataSubtype.DATA,
                                len(fragment.payload))

    def _frame_for(self, msdu: Msdu, mgmt: Optional[ManagementSubtype],
                   fragments: List[Fragment], index: int, sequence: int,
                   retry: bool, duration_us: int = 0) -> Dot11Frame:
        fragment = fragments[index]
        if msdu.meta.get("ps_poll"):
            # The duration field carries the AID, not a reservation.
            return make_ps_poll(self.address, self.bssid,
                                aid=msdu.meta.get("aid", 0), retry=retry)
        if msdu.meta.get("null"):
            return make_null(self.address, msdu.destination, self.bssid,
                             sequence,
                             power_management=bool(msdu.meta.get("pm")),
                             to_ds=msdu.destination == self.bssid,
                             duration_us=duration_us, retry=retry)
        more_data = bool(msdu.meta.get("more_data"))
        if mgmt is not None:
            return make_management(mgmt, self.address, msdu.destination,
                                   self.bssid, fragment.payload,
                                   sequence=sequence, duration_us=duration_us,
                                   retry=retry,
                                   power_management=self.power_management,
                                   more_data=more_data)
        to_ds = bool(msdu.meta.get("to_ds"))
        from_ds = bool(msdu.meta.get("from_ds"))
        if to_ds:
            receiver, addr3 = self.bssid, msdu.destination
        elif from_ds:
            receiver = msdu.destination
            addr3 = msdu.meta.get("source", self.address)
        else:
            receiver, addr3 = msdu.destination, self.bssid
        return make_data(self.address, receiver, addr3, fragment.payload,
                         sequence, fragment=fragment.index,
                         more_fragments=fragment.more_fragments,
                         to_ds=to_ds, from_ds=from_ds,
                         protected=msdu.protected, duration_us=duration_us,
                         retry=retry, power_management=self.power_management,
                         more_data=more_data)

    def _data_duration(self, ctx: _TxContext, mode: PhyMode) -> int:
        """Duration field of a data fragment: protect the ACK, and the
        next fragment + its ACK when the burst continues."""
        if ctx.is_broadcast:
            return 0
        if not ctx.has_more_fragments:
            return self._ack_reserve_us
        sifs = self.radio.standard.sifs
        next_size = ctx.sizes[ctx.frag_index + 1]
        return self._us(sifs + self._ack_airtime + (
            2 * sifs + self._airtime(next_size, mode) + self._ack_airtime))

    def _send_rts(self) -> None:
        ctx = self._current
        assert ctx is not None
        mode = ctx.controller.current_mode()
        data_size = ctx.sizes[ctx.frag_index]
        duration = 3 * self.radio.standard.sifs + self._cts_airtime + \
            self._airtime(data_size, mode) + self._ack_airtime
        rts = make_rts(self.address, ctx.msdu.destination, self._us(duration))
        self.counters.incr("tx_rts")
        self._transmit_frame(rts, RTS_SIZE_BYTES * 8, self._basic_mode,
                             continuation=self._after_rts_tx)

    def _after_rts_tx(self) -> None:
        self._awaiting = "cts"
        self._response.schedule(self._cts_wait + self.config.timeout_margin)

    def _send_data_fragment(self) -> None:
        ctx = self._current
        assert ctx is not None
        mode = ctx.controller.current_mode() if not ctx.is_broadcast \
            else self._basic_mode
        if ctx.mgmt_subtype is not None:
            mode = self._basic_mode
        frame = self._frame_for(ctx.msdu, ctx.mgmt_subtype, ctx.fragments,
                                ctx.frag_index, ctx.sequence,
                                retry=ctx.attempts > 0,
                                duration_us=self._data_duration(ctx, mode))
        size = ctx.sizes[ctx.frag_index]
        ctx.attempts += 1
        self.counters.incr("tx_data")
        self.counters.incr("tx_data_bytes", size)
        probe = self._frame_probe
        if probe is not None:
            probe("tx", ctx.msdu)
        if ctx.is_broadcast:
            self._transmit_frame(frame, size * 8, mode,
                                 continuation=self._after_broadcast_tx)
        else:
            self._transmit_frame(frame, size * 8, mode,
                                 continuation=self._after_data_tx)

    def _after_data_tx(self) -> None:
        self._awaiting = "ack"
        self._response.schedule(self._ack_wait + self.config.timeout_margin)

    def _after_broadcast_tx(self) -> None:
        self._complete_current(success=True)

    def _transmit_frame(self, frame: Dot11Frame, bits: int, mode: PhyMode,
                        continuation: Callable[[], None]) -> None:
        self._freeze(self)
        self._tx_continuation = continuation
        radio = self.radio
        radio._transmit(radio, frame, bits, mode)

    # ------------------------------------------------------- PHY upcalls

    def phy_tx_end(self) -> None:
        continuation = self._tx_continuation
        self._tx_continuation = None
        if continuation is not None:
            continuation()
        # Responses (ACK/CTS we sent) have no continuation state change;
        # resume contention if we were in the middle of it.
        self._start_ifs(self)

    def phy_rx_end(self, payload: Any, success: bool, snr_db: float,
                   mode: PhyMode) -> None:
        if not isinstance(payload, Dot11Frame):
            return  # foreign-MAC traffic sharing the band: energy only
        if not success:
            # Undecodable frame: defer with EIFS next time.
            self._use_eifs = True
            self.counters.incr("rx_corrupt")
            self._start_ifs(self)
            return
        frame = payload
        if self.sniffer is not None:
            self.sniffer(frame, snr_db)
        receiver, broadcast, nav_seconds, transmitter = frame.rx_verdict
        if transmitter is not None:
            controller = self._controllers.get(transmitter)
            if controller is None:
                controller = self._rate_factory(self.radio.standard)
                self._controllers[transmitter] = controller
            controller.on_snr_measurement(snr_db)
        if receiver != self._address_value and not broadcast:
            # Overheard frame — every third-party station, every decoded
            # frame: take the reservation its duration field announces.
            if nav_seconds > 0.0:
                self.nav.set_until(self.sim._now + nav_seconds)
                self.counters.incr("nav_updates")
            # While the NAV reservation we (may have) just set is in the
            # future, _maybe_start_ifs is a guaranteed no-op (its NAV
            # check rejects, and no earlier check has side effects), so
            # the call is skipped outright.
            if self.sim._now >= self.nav._until:
                self._start_ifs(self)
            return
        kind = frame.fc.type
        if kind == FrameType.CONTROL:
            self._receive_control(frame, snr_db)
        elif kind == FrameType.DATA:
            self._receive_data(frame, snr_db, broadcast)
        else:
            self._receive_management(frame, snr_db, broadcast)
        self._start_ifs(self)

    # ------------------------------------------------------------- control rx

    def _receive_control(self, frame: Dot11Frame, snr_db: float) -> None:
        subtype = frame.fc.subtype
        # ACK/CTS carry no transmitter address, but while we await one we
        # know who it is from: feed its SNR to the link's rate controller
        # (the "ACK RSSI" estimate real drivers use).
        if (subtype == ControlSubtype.ACK or subtype == ControlSubtype.CTS) \
                and self._current is not None:
            self._current.controller.on_snr_measurement(snr_db)
        if subtype == ControlSubtype.PS_POLL:
            self.counters.incr("rx_ps_poll")
            transmitter = frame.addr2
            if transmitter is not None:
                self._acknowledge(transmitter)
                self.listener.mac_ps_poll(transmitter, frame.duration_us)
        elif subtype == ControlSubtype.RTS:
            self.counters.incr("rx_rts")
            # Respond with CTS only if our NAV is clear (standard rule).
            if not self.nav.busy:
                duration = max(
                    frame.duration_us
                    - self._us(self.radio.standard.sifs + self._cts_airtime),
                    0)
                cts = make_cts(frame.addr2, duration)
                self._schedule_response(cts)
        elif subtype == ControlSubtype.CTS:
            if self._awaiting == "cts":
                self._cancel_response_timer()
                self._awaiting = None
                ctx = self._current
                assert ctx is not None
                ctx.cts_received = True
                ctx.rts_attempts = 0
                self.counters.incr("rx_cts")
                self._pending_send.schedule(self.radio.standard.sifs)
        elif subtype == ControlSubtype.ACK:
            if self._awaiting == "ack":
                self._cancel_response_timer()
                self._awaiting = None
                self.counters.incr("rx_ack")
                self._fragment_acked()

    def _sifs_send_data(self) -> None:
        self._send_data_fragment()

    def _schedule_response(self, frame: Dot11Frame) -> None:
        """Send a control response exactly one SIFS after reception.

        Fire-and-forget (responses are never cancelled), so the raw
        no-handle fast path applies.
        """
        self.sim.schedule_fast(self.radio.standard.sifs,
                               self._transmit_response, frame)

    def _acknowledge(self, peer: MacAddress) -> None:
        """ACK ``peer`` one SIFS from now with this MAC's one ACK to it."""
        ack = self._acks.get(peer.value)
        if ack is None:
            ack = self._acks[peer.value] = make_ack(peer)
        self._schedule_response(ack)

    def _transmit_response(self, frame: Dot11Frame) -> None:
        radio = self.radio
        state = radio._state
        if state is RadioState.TX or state is RadioState.SLEEP:
            return  # mid-transmission or dozed off: drop the response
        self._freeze(self)
        self._tx_continuation = None
        radio._transmit(radio, frame, frame.wire_size_bits(), self._basic_mode)

    # ---------------------------------------------------------------- data rx

    def _receive_data(self, frame: Dot11Frame, snr_db: float,
                      broadcast: bool) -> None:
        self.counters.incr("rx_data")
        transmitter = frame.addr2
        if not broadcast:
            self._acknowledge(transmitter)
        if transmitter is None:
            return
        fc = frame.fc
        seq = frame.seq
        # Every data frame announces its sender's power-management state.
        self.listener.mac_power_state(transmitter, fc.power_management)
        if self.dedup.is_duplicate(transmitter, seq.sequence, seq.fragment,
                                   fc.retry):
            self.counters.incr("rx_duplicates")
            return
        if fc.subtype == DataSubtype.NULL:
            self.counters.incr("rx_null")
            return  # PM signalling only; nothing to deliver
        now = self.sim._now
        msdu = self.reassembler.add_fragment(
            now, transmitter, seq.sequence, seq.fragment, fc.more_fragments,
            frame.body)
        if msdu is None:
            return  # waiting for more fragments
        if fc.to_ds:
            source, destination = transmitter, frame.addr3
        elif fc.from_ds:
            source, destination = frame.addr3, frame.addr1
        else:
            source, destination = transmitter, frame.addr1
        meta = {"snr_db": snr_db, "protected": fc.protected,
                "to_ds": fc.to_ds, "from_ds": fc.from_ds,
                "transmitter": transmitter, "rx_time": now,
                "more_data": fc.more_data}
        if source is None or destination is None:
            return
        self.listener.mac_receive(source, destination, msdu, meta)

    def _receive_management(self, frame: Dot11Frame, snr_db: float,
                            broadcast: bool) -> None:
        self.counters.incr("rx_mgmt")
        transmitter = frame.addr2
        if not broadcast and transmitter is not None:
            self._acknowledge(transmitter)
            if self.dedup.is_duplicate(transmitter, frame.seq.sequence,
                                       frame.seq.fragment, frame.fc.retry):
                self.counters.incr("rx_duplicates")
                return
        self.listener.mac_management(frame, snr_db)

    # ----------------------------------------------------------- completion

    def _cancel_response_timer(self) -> None:
        self._response.cancel()

    def _fragment_acked(self) -> None:
        ctx = self._current
        assert ctx is not None
        ctx.controller.on_success()
        ctx.attempts = 0
        self.backoff.on_success()
        if ctx.has_more_fragments:
            ctx.frag_index += 1
            self.counters.incr("fragments_sent")
            self._pending_send.schedule(self.radio.standard.sifs)
        else:
            self._complete_current(success=True)

    def _response_timeout(self) -> None:
        awaited = self._awaiting
        self._awaiting = None
        ctx = self._current
        if ctx is None:
            return
        ctx.controller.on_failure()
        self.backoff.on_failure()
        if awaited == "cts":
            ctx.rts_attempts += 1
            self.counters.incr("cts_timeouts")
            if ctx.rts_attempts >= self.config.short_retry_limit:
                self._complete_current(success=False)
                return
        else:
            self.counters.incr("ack_timeouts")
            limit = (self.config.short_retry_limit if not ctx.use_rts
                     else self.config.long_retry_limit)
            if ctx.attempts >= limit:
                self._complete_current(success=False)
                return
            # A retransmitted fragment burst re-arms RTS protection.
            ctx.cts_received = False
        probe = self._frame_probe
        if probe is not None:
            probe("retry", ctx.msdu)
        self._backoff_remaining = self.backoff.draw()
        self._start_ifs(self)

    def _complete_current(self, success: bool) -> None:
        ctx = self._current
        self._current = None
        self._backoff_remaining = None
        self.backoff.on_success() if success else self.backoff.reset()
        if ctx is not None:
            self.counters.incr("msdu_delivered" if success else "msdu_dropped")
            probe = self._frame_probe
            if probe is not None:
                probe("delivered" if success else "dropped", ctx.msdu)
            self.listener.mac_tx_complete(ctx.msdu, success)
        # Post-transmission backoff before the next queued MSDU.
        self._begin_contention(draw_backoff=True)


#: What a MAC hands its radio's CCA and reception-end upcalls, its NAV
#: and its IFS timer.
MAC = Table("DcfMac", "mac", {
    "DcfMac": DcfMac, "Dot11Frame": Dot11Frame, "Counter": Counter,
    "Nav": Nav, "_UNFED_SNR": _UNFED_SNR},
    lambda mac: (mac, mac.radio), (DcfMac, Radio),
    ("_maybe_start_ifs", "_cancel_access_timers", "_ifs_expired",
     "phy_rx_end"))
