"""Integration tests for 802.11 power-save mode (§4.2: PM bit, TIM,
PS-Poll, More Data)."""

import pytest

from repro.core import Position
from repro.core.energy import EnergyMeter
from repro.core.errors import ProtocolError
from repro.net.ap import AccessPoint
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11G


def build_ps_bss(sim):
    medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
    ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), name="ap",
                     ssid="psnet")
    sta = Station(sim, medium, DOT11G, Position(10, 0, 0), name="sta")
    ap.start_beaconing()
    sta.associate("psnet")
    sim.run(until=2.0)
    assert sta.associated
    return medium, ap, sta


class TestEnterLeave:
    def test_requires_association(self, sim):
        medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
        sta = Station(sim, medium, DOT11G, Position(0, 0, 0))
        with pytest.raises(ProtocolError):
            sta.enable_power_save()

    def test_ap_learns_the_pm_state(self, sim):
        _, ap, sta = build_ps_bss(sim)
        sta.enable_power_save()
        sim.run(until=2.5)
        assert ap.associations[sta.address].power_save
        sta.disable_power_save()
        sim.run(until=3.0)
        assert not ap.associations[sta.address].power_save

    def test_station_dozes_most_of_the_time(self, sim):
        _, ap, sta = build_ps_bss(sim)
        sta.enable_power_save()
        sim.run(until=2.5)
        meter = EnergyMeter(sim)
        meter.attach(sta.radio)
        start = sim.now
        sim.run(until=start + 2.0)
        assert meter.seconds_in("sleep") / 2.0 > 0.8

    def test_power_save_cuts_energy(self, sim):
        """The point of the whole §4.2 machinery, measured in joules."""
        _, ap, sta = build_ps_bss(sim)
        meter = EnergyMeter(sim)
        meter.attach(sta.radio)
        start = sim.now
        sim.run(until=start + 2.0)
        awake_joules = meter.joules

        sta.enable_power_save()
        sim.run(until=sim.now + 0.5)  # settle
        meter2 = EnergyMeter(sim)
        meter2.attach(sta.radio)
        start = sim.now
        sim.run(until=start + 2.0)
        assert meter2.joules < awake_joules / 3


class TestBufferedDelivery:
    def test_frames_buffered_while_dozing(self, sim):
        _, ap, sta = build_ps_bss(sim)
        sta.enable_power_save()
        sim.run(until=2.6)
        ap.send_to_station(sta.address, b"while you slept")
        assert ap.buffered_for(sta.address) == 1
        assert ap.ap_counters.get("ps_buffered") == 1

    def test_tim_triggers_ps_poll_retrieval(self, sim):
        _, ap, sta = build_ps_bss(sim)
        sta.enable_power_save()
        sim.run(until=2.6)
        inbox = []
        sta.on_receive(lambda src, p, meta: inbox.append(p))
        ap.send_to_station(sta.address, b"buffered frame")
        sim.run(until=3.5)
        assert inbox == [b"buffered frame"]
        assert sta.sta_counters.get("ps_polls") >= 1
        assert ap.ap_counters.get("ps_poll_releases") == 1
        assert ap.buffered_for(sta.address) == 0

    def test_more_data_chain_drains_the_buffer(self, sim):
        _, ap, sta = build_ps_bss(sim)
        sta.enable_power_save()
        sim.run(until=2.6)
        inbox = []
        sta.on_receive(lambda src, p, meta: inbox.append(
            (p, meta.get("more_data"))))
        for index in range(4):
            ap.send_to_station(sta.address, bytes([index]))
        sim.run(until=4.0)
        assert [payload[0] for payload, _more in inbox] == [0, 1, 2, 3]
        # All but the last carried More Data.
        assert [more for _p, more in inbox] == [True, True, True, False]

    def test_waking_flushes_without_polling(self, sim):
        _, ap, sta = build_ps_bss(sim)
        sta.enable_power_save()
        sim.run(until=2.6)
        inbox = []
        sta.on_receive(lambda src, p, meta: inbox.append(p))
        ap.send_to_station(sta.address, b"pending")
        sta.disable_power_save()
        sim.run(until=3.5)
        assert inbox == [b"pending"]
        assert ap.ap_counters.get("ps_poll_releases") == 0

    def test_buffer_limit_drops_oldest(self, sim):
        _, ap, sta = build_ps_bss(sim)
        ap.ps_buffer_limit = 2
        sta.enable_power_save()
        sim.run(until=2.6)
        for index in range(4):
            ap.send_to_station(sta.address, bytes([index]))
        assert ap.buffered_for(sta.address) == 2
        assert ap.ap_counters.get("ps_buffer_drops") == 2

    def test_dozing_station_still_transmits_uplink(self, sim):
        """A PS station wakes on its own to send; the AP hears it."""
        _, ap, sta = build_ps_bss(sim)
        sta.enable_power_save()
        sim.run(until=2.6)
        inbox = []
        ap.on_receive(lambda src, p, meta: inbox.append(p))
        sta.send(ap.address, b"uplink while in PS")
        sim.run(until=3.5)
        assert inbox == [b"uplink while in PS"]
