"""Tests for the WiMAX substrate (Fig 1.7 behaviour)."""

import pytest

from repro.core import Position
from repro.core.errors import LinkError
from repro.wman.wimax import (
    BURST_PROFILES,
    SubscriberStation,
    WimaxBand,
    WimaxBaseStation,
)


def bs_with_subscribers(sim, distances, band=WimaxBand.NLOS, los=False):
    bs = WimaxBaseStation(sim, Position(0, 0, 0), band=band)
    subscribers = []
    for index, distance in enumerate(distances):
        ss = SubscriberStation(f"ss{index}", Position(distance, 0, 0),
                               line_of_sight=los)
        bs.attach(ss)
        subscribers.append(ss)
    return bs, subscribers


class TestLinkBudget:
    def test_peak_rate_near_70mbps(self, sim):
        bs = WimaxBaseStation(sim, Position(0, 0, 0))
        assert bs.peak_rate_bps() == pytest.approx(70e6, rel=0.1)

    def test_coverage_tens_of_km(self, sim):
        bs = WimaxBaseStation(sim, Position(0, 0, 0))
        assert 20_000 < bs.max_range_m() < 80_000

    def test_profile_degrades_with_distance(self, sim):
        bs = WimaxBaseStation(sim, Position(0, 0, 0))
        efficiencies = []
        for distance in (500, 2_000, 8_000, 20_000):
            ss = SubscriberStation("probe", Position(distance, 0, 0))
            profile = bs.link_profile(ss)
            assert profile is not None
            efficiencies.append(profile[1])
        assert efficiencies == sorted(efficiencies, reverse=True)

    def test_out_of_coverage_attach_rejected(self, sim):
        bs = WimaxBaseStation(sim, Position(0, 0, 0))
        far = SubscriberStation("far", Position(500_000, 0, 0))
        with pytest.raises(LinkError):
            bs.attach(far)

    def test_los_band_requires_line_of_sight(self, sim):
        bs = WimaxBaseStation(sim, Position(0, 0, 0), band=WimaxBand.LOS)
        nlos_subscriber = SubscriberStation("indoor", Position(1_000, 0, 0),
                                            line_of_sight=False)
        with pytest.raises(LinkError, match="line of sight"):
            bs.attach(nlos_subscriber)

    def test_los_band_accepts_los_subscriber(self, sim):
        bs = WimaxBaseStation(sim, Position(0, 0, 0), band=WimaxBand.LOS)
        tower = SubscriberStation("tower", Position(2_000, 0, 0),
                                  line_of_sight=True)
        bs.attach(tower)
        assert bs.link_profile(tower) is not None


class TestScheduler:
    def test_single_subscriber_gets_full_downlink(self, sim):
        bs, (ss,) = bs_with_subscribers(sim, [1_000])
        bs.start()
        ss.offer_downlink(100_000_000)
        horizon = 2.0
        sim.run(until=horizon)
        rate = ss.delivered_bytes * 8 / horizon
        # Near subscriber at the top profile: close to the DL share of peak.
        assert rate > 0.5 * bs.peak_rate_bps()

    def test_airtime_shared_equally_among_backlogged(self, sim):
        bs, subscribers = bs_with_subscribers(sim, [1_000] * 4)
        bs.start()
        for ss in subscribers:
            ss.offer_downlink(100_000_000)
        sim.run(until=2.0)
        delivered = [ss.delivered_bytes for ss in subscribers]
        assert max(delivered) - min(delivered) <= delivered[0] * 0.05

    def test_far_subscriber_moves_fewer_bytes_per_slot(self, sim):
        """Equal airtime, worse modulation: the distance penalty."""
        bs, (near, far) = bs_with_subscribers(sim, [1_000, 30_000])
        assert bs.link_profile(near)[1] > bs.link_profile(far)[1]
        bs.start()
        near.offer_downlink(100_000_000)
        far.offer_downlink(100_000_000)
        sim.run(until=2.0)
        ratio = bs.link_profile(near)[1] / bs.link_profile(far)[1]
        assert near.delivered_bytes == pytest.approx(
            far.delivered_bytes * ratio, rel=0.05)

    def test_idle_subscribers_consume_nothing(self, sim):
        bs, (active, idle) = bs_with_subscribers(sim, [1_000, 1_000])
        bs.start()
        active.offer_downlink(10_000_000)
        sim.run(until=2.0)
        assert idle.delivered_bytes == 0
        assert active.delivered_bytes == 10_000_000

    def test_no_contention_no_loss(self, sim):
        """Scheduled MAC: every offered byte is eventually delivered."""
        bs, subscribers = bs_with_subscribers(sim, [1_000, 5_000, 10_000])
        bs.start()
        for ss in subscribers:
            ss.offer_downlink(1_000_000)
        sim.run(until=5.0)
        assert all(ss.delivered_bytes == 1_000_000 for ss in subscribers)

    def test_stop_halts_scheduling(self, sim):
        bs, (ss,) = bs_with_subscribers(sim, [1_000])
        bs.start()
        ss.offer_downlink(100_000_000)
        sim.run(until=0.5)
        bs.stop()
        delivered_at_stop = ss.delivered_bytes
        sim.run(until=1.0)
        assert ss.delivered_bytes == delivered_at_stop


class TestBurstProfiles:
    def test_ladder_ordered(self):
        efficiencies = [profile[1] for profile in BURST_PROFILES]
        snrs = [profile[2] for profile in BURST_PROFILES]
        assert efficiencies == sorted(efficiencies)
        assert snrs == sorted(snrs)
