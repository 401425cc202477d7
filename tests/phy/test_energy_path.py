"""The medium's energy-only transmission path (adversary substrate).

Covers the contract the adversary subsystem builds on: an energy-only
arrival drives CCA and interference, no radio ever locks onto it, it
composes with the compiled fan-out plans — and a detune/retune while
an energy-only arrival is in flight leaves the arrival accounting and
the plan caches consistent.
"""

import pytest

from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.core.errors import SimulationError
from repro.adversary.emitters import EnergySource
from repro.phy.channel import ENERGY_ONLY, Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B, DOT11G
from repro.phy.transceiver import Radio, RadioState

# The drain checks run on both kernels: the compiled receive edges keep
# their own arrival-table bookkeeping.
KERNELS = ["python", pytest.param("c", marks=pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)"))]


class Collector:
    def __init__(self):
        self.received = []
        self.busy_edges = 0
        self.idle_edges = 0

    def phy_rx_end(self, payload, success, snr_db, mode):
        self.received.append((payload, success))

    def phy_cca_busy(self):
        self.busy_edges += 1

    def phy_cca_idle(self):
        self.idle_edges += 1

    def plug(self, radio):
        """Fill ``radio``'s receive and CCA upcall slots."""
        radio.on_rx_end = self.phy_rx_end
        radio.on_cca_busy, radio.on_cca_idle = (self.phy_cca_busy,
                                                self.phy_cca_idle)
        return self


def collector(radio):
    """The :class:`Collector` plugged into ``radio``."""
    return radio.on_rx_end.__self__


def build(sim, rx_count=1, channel_id=1):
    medium = Medium(sim, FixedLoss(50.0))
    tx = Radio("tx", medium, DOT11B, Position(0, 0, 0),
               channel_id=channel_id)
    receivers = []
    for index in range(rx_count):
        radio = Radio(f"rx{index}", medium, DOT11B,
                      Position(1.0 + index, 0, 0), channel_id=channel_id)
        Collector().plug(radio)
        receivers.append(radio)
    return medium, tx, receivers


class TestEnergyOnlyArrivals:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_energy_drives_cca_but_never_locks(self, kernel):
        sim = Simulator(seed=2, kernel=kernel)
        _medium, tx, (rx,) = build(sim)
        tx.transmit_energy(1e-3)
        sim.run(until=0.01)
        listener = collector(rx)
        assert listener.busy_edges == 1 and listener.idle_edges == 1
        assert listener.received == []  # no lock, no upcall, ever
        assert not rx._arrivals and rx.state is RadioState.IDLE

    def test_energy_mode_is_not_decodable_anywhere(self):
        for standard in (DOT11B, DOT11G):
            assert ENERGY_ONLY.name not in {m.name for m in standard.modes}

    def test_weak_energy_is_interference_not_cca(self, sim):
        medium, tx, (rx,) = build(sim)
        # -60 dBm at 50 dB loss -> -110... use explicit watts: below the
        # CCA threshold but above the reception floor.
        from repro.core.units import dbm_to_watts
        medium.transmit_energy(tx, 1e-3, dbm_to_watts(-90.0 + 50.0))
        sim.run(until=0.0001)
        assert rx._arrivals and not rx.cca_busy()
        sim.run(until=0.01)
        assert not rx._arrivals

    def test_energy_corrupts_overlapping_reception(self):
        # A locked data frame whose tail a strong energy burst stomps
        # must fail the error model (the jamming mechanism end-to-end).
        def run(jam: bool):
            sim = Simulator(seed=5)
            medium = Medium(sim, FixedLoss(50.0))
            sender = Radio("s", medium, DOT11B, Position(0, 0, 0))
            victim = Radio("v", medium, DOT11B, Position(1, 0, 0))
            Collector().plug(victim)
            # 25 dBm -> -25 dBm at the victim: 5 dB above the locked
            # frame, below the 10 dB capture threshold, so it stays
            # pure interference instead of stealing the lock.
            jammer = EnergySource("j", medium, Position(2, 0, 0),
                                  power_dbm=25.0)
            mode = DOT11B.modes[0]
            airtime = DOT11B.frame_airtime(8000, mode)
            sender.transmit("frame", 8000, mode)
            if jam:
                sim.schedule_at(airtime * 0.25,
                                lambda: jammer.emit(airtime))
            sim.run(until=0.1)
            return collector(victim).received

        assert run(jam=False) == [("frame", True)]
        assert run(jam=True) == [("frame", False)]

    def test_transmit_energy_is_half_duplex(self, sim):
        _medium, tx, _ = build(sim)
        tx.transmit_energy(1e-3)
        with pytest.raises(SimulationError):
            tx.transmit_energy(1e-3)
        with pytest.raises(SimulationError):
            tx.transmit("frame", 800, DOT11B.modes[0])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_overlapping_energy_drains_the_table(self, kernel):
        sim = Simulator(seed=3, kernel=kernel)
        medium, tx, (rx,) = build(sim)
        other = EnergySource("e", medium, Position(0, 1, 0), power_dbm=20.0)
        medium.transmit_energy(tx, 2e-3, tx.tx_power_watts)
        sim.schedule_at(0.5e-3, lambda: other.emit(0.5e-3))
        sim.run(until=0.01)
        assert not rx._arrivals
        assert rx.cca_busy() is False


class TestEnergySourcePlans:
    def test_plan_reuse(self, sim):
        medium, _tx, receivers = build(sim, rx_count=2)
        ch6 = Radio("ch6", medium, DOT11B, Position(0, 5, 0), channel_id=6)
        Collector().plug(ch6)
        source = EnergySource("emitter", medium, Position(0, 2, 0),
                              power_dbm=20.0)
        source.emit(1e-4)
        misses_after_first = medium.plan_misses
        source.emit(1e-4)
        assert medium.plan_misses == misses_after_first  # plan reused
        assert medium.plan_hits >= 1
        sim.run(until=0.01)
        assert collector(ch6).busy_edges == 0
        # Channel-1 victims saw the two bursts as one busy period.
        assert collector(receivers[0]).busy_edges == 1  # merged overlap

    def test_moving_source_invalidates_links(self, sim):
        medium, _tx, (rx,) = build(sim)
        source = EnergySource("emitter", medium, Position(0, 2, 0))
        source.emit(1e-4)
        assert (source, rx) in medium.links._entries
        source.position = Position(0, 3, 0)
        assert (source, rx) not in medium.links._entries
        assert source not in medium._plans


class TestRetuneMidBurstRegression:
    """PR-5 satellite: detune/retune with an energy arrival in flight.

    The contract: in-flight arrivals are physical (energy already
    launched keeps arriving and its end edge still clears the table —
    a retuned radio never ends up with a stuck CCA), while *new* bursts
    respect the retune immediately because every retune path drops the
    compiled plans.
    """

    def test_detune_away_mid_burst_then_recover(self, sim):
        medium, tx, (rx,) = build(sim)
        tx.transmit_energy(2e-3)
        sim.run(until=1e-3)
        assert rx._arrivals and rx.cca_busy()
        rx.channel_id = 6  # detune mid-burst
        # Historical semantics: the in-flight energy keeps arriving...
        assert rx._arrivals
        sim.run(until=5e-3)
        # ...but its end edge fires regardless of the retune, so the
        # table drains and CCA recovers (no stuck-busy radio).
        assert not rx._arrivals and not rx.cca_busy()
        assert collector(rx).idle_edges == collector(rx).busy_edges == 1
        # New bursts on the old channel no longer reach it: the retune
        # dropped the compiled plan and the channel member lists.
        tx.transmit_energy(1e-3)
        sim.run(until=8e-3)
        assert not rx._arrivals and collector(rx).busy_edges == 1

    def test_retune_back_mid_burst_catches_next_burst(self, sim):
        medium, tx, (rx,) = build(sim)
        rx.channel_id = 6
        tx.transmit_energy(2e-3)  # fans out to nobody
        sim.run(until=1e-3)
        assert not rx._arrivals
        rx.channel_id = 1  # retune back while the burst is in flight
        sim.run(until=5e-3)
        # Missed the begins edge: physically it heard only silence.
        assert not rx._arrivals and collector(rx).busy_edges == 0
        tx.transmit_energy(1e-3)
        sim.run(until=8e-3)
        assert collector(rx).busy_edges == 1 and collector(rx).idle_edges == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_arrival_table_survives_detune(self, kernel):
        sim = Simulator(seed=11, kernel=kernel)
        medium, tx, (rx,) = build(sim)
        tx.transmit_energy(2e-3)
        sim.run(until=1e-3)
        rx.channel_id = 6
        rx.channel_id = 1  # bounce: two plan flushes with energy in flight
        sim.run(until=5e-3)
        assert not rx._arrivals
        assert rx.cca_busy() is False

    def test_sender_radio_retune_mid_burst_recompiles_plan(self, sim):
        medium, tx, receivers = build(sim, rx_count=2)
        ch6 = Radio("ch6", medium, DOT11B, Position(0, 5, 0), channel_id=6)
        Collector().plug(ch6)
        tx.transmit_energy(2e-3)
        misses = medium.plan_misses
        sim.run(until=1e-3)
        tx.channel_id = 6  # retune the *sender* while its burst flies
        sim.run(until=2.5e-3)  # let the (half-duplex) first burst finish
        tx.transmit_energy(1e-3)
        assert medium.plan_misses == misses + 1  # recompiled, not reused
        sim.run(until=0.01)
        assert collector(ch6).busy_edges == 1
        for radio in receivers:
            # Exactly one busy period from the first burst; the second
            # landed on channel 6.
            assert collector(radio).busy_edges == 1
            assert collector(radio).idle_edges == 1
            assert not radio._arrivals
