"""The telemetry determinism contract.

Two seeded runs must produce byte-identical sim-time JSONL streams —
single-process (a committed spec's job) and sharded (workers=2, merged streams in
pinned shard order).  And arming telemetry must leave every seeded
protocol outcome untouched: same stats modulo the kernel event count
(the sampler's own events are real heap events) and, for sharded runs,
the arrival-log fingerprint (fence records embed event counts).

CI runs this module via ``-k SeededDeterminism`` like the other
subsystem determinism gates.
"""

from repro.campaign import run_job
from repro.parallel import run_sharded
from repro.scenarios import build_city_cells, city_propagation
from repro.telemetry.export import parse_jsonl

#: Stats keys legitimately perturbed by the sampler's own heap events.
INSTRUMENTATION_KEYS = ("events", "arrival_log_sha1")


def _strip(stats):
    return {key: value for key, value in stats.items()
            if key not in INSTRUMENTATION_KEYS
            and not key.startswith(("link_cache", "fanout_", "telemetry"))}


def _sharded_city(seed, telemetry):
    cells = build_city_cells(bss_count=4, stations_per_bss=2,
                             payload_size=200)
    return run_sharded(cells, seed=seed, horizon=0.02, workers=2,
                       propagation_factory=city_propagation,
                       telemetry=telemetry)


def _saturation(spec_job, telemetry):
    """``dcf_saturation`` over 0.45 s: ``(stats, streams)``."""
    streams = {}
    stats = run_job(spec_job("dcf_saturation", {
        "scenario.horizon": 0.45, "mode.telemetry": telemetry}), streams)
    return stats, streams


class TestSeededDeterminismSingle:
    def test_two_spec_runs_byte_identical(self, spec_job):
        first_stats, first = _saturation(spec_job, telemetry=True)
        # The second run sees another heap (half of these stay allocated):
        # an export keyed by a recycled id() would differ.
        ballast = [[index] for index in range(5000)]
        del ballast[::2]
        second_stats, second = _saturation(spec_job, telemetry=True)
        assert first["telemetry_jsonl"] == second["telemetry_jsonl"]
        assert first_stats == second_stats
        # The stream is non-trivial: samples AND frame spans present.
        types = {record["type"]
                 for record in parse_jsonl(first["telemetry_jsonl"])}
        assert {"header", "metric", "sample", "span"} <= types

    def test_spec_stats_inert_under_telemetry(self, spec_job):
        plain_stats, plain = _saturation(spec_job, telemetry=False)
        armed_stats, _ = _saturation(spec_job, telemetry=True)
        assert "telemetry_jsonl" not in plain
        assert _strip(plain_stats) == _strip(armed_stats)

    def test_wall_stream_is_separate(self, spec_job):
        _, streams = _saturation(spec_job, telemetry=True)
        sim_records = parse_jsonl(streams["telemetry_jsonl"])
        wall_records = parse_jsonl(streams["telemetry_wall_jsonl"])
        assert sim_records[0]["stream"] == "sim"
        assert wall_records[0]["stream"] == "wall"


class TestSeededDeterminismSharded:
    def test_two_sharded_runs_byte_identical(self):
        first = _sharded_city(seed=41, telemetry=True)
        second = _sharded_city(seed=41, telemetry=True)
        assert first["telemetry_jsonl"] == second["telemetry_jsonl"]
        assert first["telemetry_wall_jsonl"] \
            != ""  # wall stream exists but is never byte-compared
        assert first["cells"] == second["cells"]
        assert first["arrival_log"] == second["arrival_log"]

    def test_merged_stream_pins_shard_order(self):
        result = _sharded_city(seed=41, telemetry=True)
        records = parse_jsonl(result["telemetry_jsonl"])
        assert records[0] == {"type": "merged", "stream": "sim",
                              "shards": 2}
        sources = [record for record in records
                   if record["type"] == "source"]
        assert sources[0] == {"type": "source", "source": "coordinator"}
        assert [record.get("shard") for record in sources[1:]] == [0, 1]

    def test_sharded_outcomes_inert_under_telemetry(self):
        plain = _sharded_city(seed=41, telemetry=False)
        armed = _sharded_city(seed=41, telemetry=True)
        assert "telemetry_jsonl" not in plain
        # Protocol outcomes must match exactly; only the kernel event
        # counts (which include sampler events) may differ.
        assert plain["cells"] == armed["cells"]
