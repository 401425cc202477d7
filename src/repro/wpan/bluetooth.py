"""Bluetooth (IEEE 802.15.1): piconets and scatternets.

A piconet (source text §2.1) is a master and up to seven active slaves
on a TDD slot structure: 625 µs slots, the master transmitting in
even-numbered slots and the addressed slave answering in the following
odd slot(s).  Multi-slot packets (DH1/DH3/DH5) trade latency for
efficiency; fully loaded, the asymmetric DH5 profile yields the
~720 kb/s the text quotes.

A scatternet (Fig 1.2) joins piconets through a **bridge** node that is
a slave in several piconets (master in at most one) and time-shares its
radio between them, relaying queued traffic across.

The model is slot-accurate but abstracts frequency hopping (each
piconet's hop sequence makes inter-piconet collisions rare; we model
piconets as interference-free, which is the standard analytical
assumption) and models range classes (1/2/3 → 100/10/1 m) as a hard
delivery limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Tuple
from collections import deque

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, ProtocolError
from ..core.stats import Counter
from ..core.topology import Position

SLOT_TIME = 625e-6
MAX_ACTIVE_SLAVES = 7


class DeviceClass(Enum):
    """Bluetooth power classes and their nominal ranges."""

    CLASS1 = 100.0  # 100 mW
    CLASS2 = 10.0   # 2.5 mW (the common one)
    CLASS3 = 1.0    # 1 mW

    @property
    def range_m(self) -> float:
        return self.value


@dataclass(frozen=True)
class PacketType:
    """An ACL data packet type: slots occupied and payload carried."""

    name: str
    slots: int
    payload_bytes: int


DH1 = PacketType("DH1", 1, 27)
DH3 = PacketType("DH3", 3, 183)
DH5 = PacketType("DH5", 5, 339)
#: The single-slot NULL/POLL exchange when a peer has nothing to send.
POLL = PacketType("POLL", 1, 0)
#: HV3 voice packet: 30 bytes every 6th slot pair-wise = a 64 kb/s
#: full-duplex voice channel (the cordless-headset payload).
HV3 = PacketType("HV3", 1, 30)
#: An HV3 SCO link reserves one slot pair out of every three.
HV3_INTERVAL_PAIRS = 3

#: Receive callback: (source_name, payload) -> None.
BtReceiveHook = Callable[[str, bytes], None]


class BluetoothDevice:
    """A Bluetooth node; roles are assigned by piconet membership."""

    def __init__(self, name: str, position: Position = Position(),
                 device_class: DeviceClass = DeviceClass.CLASS2):
        self.name = name
        self.position = position
        self.device_class = device_class
        self.counters = Counter()
        self._receive_hook: Optional[BtReceiveHook] = None
        #: Piconets this device belongs to (scatternet membership).
        self.piconets: List["Piconet"] = []
        #: The piconet currently holding the radio (scatternet switching).
        self.active_piconet: Optional["Piconet"] = None

    def on_receive(self, hook: BtReceiveHook) -> None:
        self._receive_hook = hook

    def deliver(self, source: str, payload: bytes) -> None:
        self.counters.incr("rx_packets")
        self.counters.incr("rx_bytes", len(payload))
        if self._receive_hook is not None:
            self._receive_hook(source, payload)

    def available_for(self, piconet: "Piconet") -> bool:
        """Is the radio listening in this piconet right now?"""
        if len(self.piconets) <= 1:
            return True
        return self.active_piconet is piconet


class Piconet:
    """One master and up to seven active slaves on a shared TDD clock."""

    def __init__(self, sim: Simulator, master: BluetoothDevice,
                 packet_type: PacketType = DH5):
        self.sim = sim
        self.master = master
        self.packet_type = packet_type
        self.slaves: List[BluetoothDevice] = []
        self.counters = Counter()
        # Master-side downlink queues and slave-side uplink queues.
        self._downlink: Dict[str, Deque[bytes]] = {}
        self._uplink: Dict[str, Deque[bytes]] = {}
        self._poll_index = 0
        self._pair_index = 0
        self._running = False
        #: SCO voice links: slave name -> slave (HV3, every 3rd pair).
        self._sco_links: Dict[str, BluetoothDevice] = {}
        master.piconets.append(self)
        if master.active_piconet is None:
            master.active_piconet = self

    # --- membership ------------------------------------------------------------

    def add_slave(self, slave: BluetoothDevice) -> None:
        if len(self.slaves) >= MAX_ACTIVE_SLAVES:
            raise ConfigurationError(
                f"piconet already has {MAX_ACTIVE_SLAVES} active slaves")
        if slave is self.master:
            raise ConfigurationError("master cannot be its own slave")
        for piconet in slave.piconets:
            if piconet.master is slave:
                if self.master is slave:
                    raise ConfigurationError(
                        "a device may be master of only one piconet")
        self.slaves.append(slave)
        self._downlink[slave.name] = deque()
        self._uplink[slave.name] = deque()
        slave.piconets.append(self)
        if slave.active_piconet is None:
            slave.active_piconet = self

    def _in_range(self, a: BluetoothDevice, b: BluetoothDevice) -> bool:
        limit = min(a.device_class.range_m, b.device_class.range_m)
        return a.position.distance_to(b.position) <= limit

    # --- SCO voice links ----------------------------------------------------

    def add_sco_link(self, slave: BluetoothDevice) -> None:
        """Reserve an HV3 voice channel to ``slave``: one slot pair out
        of every three carries 30 bytes each way (64 kb/s full duplex),
        and is never available to ACL data.  At most one SCO link here
        (real piconets allow up to three HV3 links, which would consume
        the entire TDD schedule)."""
        if slave not in self.slaves:
            raise ProtocolError(f"{slave.name} is not a slave here")
        if self._sco_links:
            raise ConfigurationError(
                "this model supports one SCO link per piconet")
        self._sco_links[slave.name] = slave

    def remove_sco_link(self, slave: BluetoothDevice) -> None:
        self._sco_links.pop(slave.name, None)

    @property
    def sco_rate_bps(self) -> float:
        """The voice rate of an HV3 link: 30 B per 6 slots = 64 kb/s."""
        return HV3.payload_bytes * 8 / (HV3_INTERVAL_PAIRS * 2 * SLOT_TIME)

    def _run_sco_pair(self, slave: BluetoothDevice) -> None:
        """One reserved voice slot pair: HV3 down, HV3 up."""
        voice = bytes(HV3.payload_bytes)
        if self._in_range(self.master, slave):
            if slave.available_for(self):
                self.sim.schedule(SLOT_TIME, slave.deliver,
                                  self.master.name, voice)
                slave.counters.incr("voice_bytes", HV3.payload_bytes)
            if self.master.available_for(self):
                self.sim.schedule(2 * SLOT_TIME, self.master.deliver,
                                  slave.name, voice)
                self.master.counters.incr("voice_bytes", HV3.payload_bytes)
        self.counters.incr("sco_pairs")

    # --- traffic ------------------------------------------------------------

    def send(self, source: BluetoothDevice, destination: BluetoothDevice,
             payload: bytes) -> None:
        """Queue a payload; must be master<->slave within this piconet."""
        if source is self.master:
            if destination not in self.slaves:
                raise ProtocolError(
                    f"{destination.name} is not a slave of this piconet")
            self._downlink[destination.name].append(payload)
        elif source in self.slaves:
            if destination is not self.master:
                raise ProtocolError(
                    "slaves can only talk to the master; use the master "
                    "to relay slave-to-slave traffic")
            self._uplink[source.name].append(payload)
        else:
            raise ProtocolError(f"{source.name} is not in this piconet")

    # --- the TDD engine ------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(0.0, self._slot_pair)

    def stop(self) -> None:
        self._running = False

    def _next_slave(self) -> Optional[BluetoothDevice]:
        """Round-robin over slaves (pure round-robin polling)."""
        if not self.slaves:
            return None
        slave = self.slaves[self._poll_index % len(self.slaves)]
        self._poll_index += 1
        return slave

    def _slot_pair(self) -> None:
        """Run one master->slave / slave->master exchange, re-arm."""
        if not self._running:
            return
        self._pair_index += 1
        if self._sco_links and \
                self._pair_index % HV3_INTERVAL_PAIRS == 0:
            # This pair is reserved for the voice link; ACL data waits.
            sco_slave = next(iter(self._sco_links.values()))
            self._run_sco_pair(sco_slave)
            self.sim.schedule(2 * SLOT_TIME, self._slot_pair)
            return
        slave = self._next_slave()
        if slave is None:
            self.sim.schedule(2 * SLOT_TIME, self._slot_pair)
            return
        down_queue = self._downlink[slave.name]
        up_queue = self._uplink[slave.name]
        master_available = self.master.available_for(self)
        slave_available = slave.available_for(self)
        in_range = self._in_range(self.master, slave)

        # Master slot(s): data if queued, else a POLL.
        down_type = self.packet_type if down_queue else POLL
        down_slots = down_type.slots
        if down_queue and master_available:
            chunk = down_queue.popleft()
            if slave_available and in_range:
                self.sim.schedule(down_slots * SLOT_TIME, slave.deliver,
                                  self.master.name, chunk)
                self.counters.incr("downlink_packets")
                self.counters.incr("downlink_bytes", len(chunk))
            else:
                # Absent bridge or out of range: retransmit later.
                down_queue.appendleft(chunk)
                self.counters.incr("downlink_misses")
        # Slave slot(s): data if queued, else a NULL.
        up_type = self.packet_type if up_queue else POLL
        up_slots = up_type.slots
        if up_queue and slave_available:
            chunk = up_queue.popleft()
            if master_available and in_range:
                self.sim.schedule((down_slots + up_slots) * SLOT_TIME,
                                  self.master.deliver, slave.name, chunk)
                self.counters.incr("uplink_packets")
                self.counters.incr("uplink_bytes", len(chunk))
            else:
                up_queue.appendleft(chunk)
                self.counters.incr("uplink_misses")
        self.counters.incr("slot_pairs")
        self.sim.schedule((down_slots + up_slots) * SLOT_TIME,
                          self._slot_pair)

    # --- capacity helpers -------------------------------------------------------

    def max_asymmetric_rate_bps(self) -> float:
        """Peak one-direction rate with this packet type (single slave)."""
        pair_time = (self.packet_type.slots + POLL.slots) * SLOT_TIME
        return self.packet_type.payload_bytes * 8 / pair_time

    def queue_payload(self, destination: BluetoothDevice,
                      payload: bytes, chunk: Optional[int] = None) -> int:
        """Fragment a large payload into packet-type-sized chunks from the
        master; returns the number of chunks queued."""
        size = chunk if chunk is not None else self.packet_type.payload_bytes
        count = 0
        for offset in range(0, len(payload), size):
            self.send(self.master, destination, payload[offset:offset + size])
            count += 1
        return count


class ScatternetBridge:
    """Time-shares a device between two piconets and relays traffic.

    The bridge listens ``dwell`` seconds in each piconet alternately
    (its radio can only follow one hop sequence at a time).  Payloads it
    receives in one piconet destined beyond it are re-queued into the
    other — slave->master or master->slave as its role there dictates.
    """

    def __init__(self, sim: Simulator, device: BluetoothDevice,
                 piconet_a: Piconet, piconet_b: Piconet,
                 dwell: float = 20 * SLOT_TIME):
        if piconet_a not in device.piconets or \
                piconet_b not in device.piconets:
            raise ConfigurationError(
                f"{device.name} must belong to both piconets")
        self.sim = sim
        self.device = device
        self.piconet_a = piconet_a
        self.piconet_b = piconet_b
        self.dwell = dwell
        self.relayed = 0
        self._forward: Dict[str, Tuple[Piconet, BluetoothDevice]] = {}
        device.on_receive(self._bridge_receive)
        device.active_piconet = piconet_a
        sim.schedule(dwell, self._switch)

    def add_route(self, source_name: str, via: Piconet,
                  destination: BluetoothDevice) -> None:
        """Traffic from ``source_name`` is forwarded into ``via`` toward
        ``destination``."""
        self._forward[source_name] = (via, destination)

    def _switch(self) -> None:
        current = self.device.active_piconet
        self.device.active_piconet = (
            self.piconet_b if current is self.piconet_a else self.piconet_a)
        self.sim.schedule(self.dwell, self._switch)

    def _bridge_receive(self, source: str, payload: bytes) -> None:
        route = self._forward.get(source)
        if route is None:
            return
        piconet, destination = route
        piconet.send(self.device, destination, payload)
        self.relayed += 1
