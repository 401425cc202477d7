"""Metrics primitives: registry keys, handle memoization, histograms,
and the kernel-driven periodic sampler."""

import pytest

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.telemetry.metrics import (MetricsRegistry, PeriodicSampler,
                                     format_key, make_key)


class TestKeys:
    def test_labels_sort_and_stringify(self):
        assert make_key("mac", "drops", {"shard": 2, "ap": "a"}) \
            == ("mac", "drops", (("ap", "a"), ("shard", "2")))

    def test_format_key(self):
        assert format_key(make_key("mac", "drops", {})) == "mac/drops"
        assert format_key(make_key("mac", "drops", {"shard": 2})) \
            == "mac/drops{shard=2}"


class TestRegistry:
    def test_handles_are_memoized(self):
        registry = MetricsRegistry()
        counter = registry.counter("mac", "frames", ap="a")
        assert registry.counter("mac", "frames", ap="a") is counter
        assert registry.counter("mac", "frames", ap="b") is not counter

    def test_creation_order_is_remembered(self):
        registry = MetricsRegistry()
        registry.gauge("kernel", "heap")
        registry.counter("mac", "frames")
        registry.gauge("kernel", "heap")  # re-fetch must not reorder
        assert [m.key[1] for m in registry.metrics()] == ["heap", "frames"]

    def test_wall_flag_splits_streams(self):
        registry = MetricsRegistry()
        registry.counter("parallel", "rounds")
        registry.gauge("parallel", "busy", wall=True)
        assert [m.key[1] for m in registry.metrics(wall=False)] == ["rounds"]
        assert [m.key[1] for m in registry.metrics(wall=True)] == ["busy"]


class TestHistogram:
    def test_bucketing_is_inclusive_upper_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("medium", "fanout", bounds=(1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 5.0, 7.0):
            hist.observe(value)
        assert hist.counts == [2, 2, 1]  # <=1, <=5, +inf
        assert hist.total == 5
        assert hist.mean == pytest.approx(3.3)

    def test_unsorted_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("medium", "fanout", bounds=(5.0, 1.0))


class TestPeriodicSampler:
    def test_rejects_nonpositive_interval(self):
        sim = Simulator(seed=1)
        with pytest.raises(ConfigurationError):
            PeriodicSampler(sim, MetricsRegistry(), interval=0.0)

    def test_samples_at_sim_time_in_registration_order(self):
        sim = Simulator(seed=1)
        registry = MetricsRegistry()
        sampler = PeriodicSampler(sim, registry, interval=0.25)
        sampler.add("kernel", "heap", lambda: float(sim.heap_depth))
        sampler.add("kernel", "now", lambda: sim._now)
        sampler.install()
        assert sampler.installed
        sim.run(until=1.0)
        key = make_key("kernel", "now", {})
        times = [t for t, _v in registry.series(key)]
        assert times == [0.25, 0.5, 0.75, 1.0]
        # Registration order is the series creation order.
        assert [k[1] for k in registry.series_keys()] == ["heap", "now"]

    def test_nothing_to_sample_never_arms(self):
        sampler = PeriodicSampler(Simulator(seed=1), MetricsRegistry())
        sampler.install().sample_now()
        assert not sampler.installed and sampler.samples_taken == 0

    def test_sample_now_skips_duplicate_at_boundary(self):
        sim = Simulator(seed=1)
        registry = MetricsRegistry()
        sampler = PeriodicSampler(sim, registry, interval=0.5)
        sampler.add("kernel", "now", lambda: sim._now)
        sampler.install()
        sim.run(until=1.0)  # horizon lands exactly on a sampling edge
        sampler.sample_now()
        key = make_key("kernel", "now", {})
        assert [t for t, _v in registry.series(key)] == [0.5, 1.0]

    def test_sample_now_takes_final_offgrid_edge(self):
        sim = Simulator(seed=1)
        registry = MetricsRegistry()
        sampler = PeriodicSampler(sim, registry, interval=0.4)
        sampler.add("kernel", "now", lambda: sim._now)
        sampler.install()
        sim.run(until=1.0)
        sampler.sample_now()
        key = make_key("kernel", "now", {})
        assert [t for t, _v in registry.series(key)] == [0.4, 0.8, 1.0]

    def test_series_capacity_bounds_retention(self, monkeypatch):
        monkeypatch.setattr(MetricsRegistry, "SERIES_CAPACITY", 3)
        sim = Simulator(seed=1)
        registry = MetricsRegistry()
        sampler = PeriodicSampler(sim, registry, interval=0.1)
        sampler.add("kernel", "now", lambda: sim._now)
        sampler.install()
        sim.run(until=1.0)
        key = make_key("kernel", "now", {})
        assert len(registry.series(key)) == 3
        assert registry.samples_dropped == 7
