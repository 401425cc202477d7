"""What importing ``repro`` costs, and what it still exposes.

Packages re-export lazily (``repro._lazy``), so three things need
pinning: the import *budget* (which ``repro.*`` modules an import
loads — a deterministic, machine-independent cost counter), that no
import is left for the *run* phase to pay, and that the public surface
is exactly what it was when every ``__init__`` imported its whole
family.  The first two need a fresh interpreter: this process has
already imported everything.
"""

import ast
import importlib
import json
import os
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
REPO_ROOT = SRC.parent

_REPORT = """
import json, sys
print(json.dumps({
    "repro": sorted(m for m in sys.modules
                    if m == "repro" or m.startswith("repro.")),
    "networkx": "networkx" in sys.modules}))
"""


def fresh_interpreter(program: str) -> dict:
    """Run ``program`` in a new interpreter; return the JSON object its
    last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by(statements: str) -> dict:
    return fresh_interpreter(statements + _REPORT)


# --- the import budget -------------------------------------------------------

#: What a scenario build or a campaign job must never pay for.
FORBIDDEN = ("repro.wman", "repro.wwan", "repro.analysis",
             "repro.adversary.attacks", "repro.wpan.zigbee")

#: Every ``repro.*`` module loaded by the ``repro`` imports of
#: ``bench/workloads.py`` — all five benchmark workloads.  It was all
#: 104 modules (plus networkx) while packages imported their families.
#: A new name here is a new eager import edge: either the workloads
#: really use the module (add it), or a leaf module or ``__init__``
#: started importing something it should not.
WORKLOAD_MODULES = set("""
    repro repro._lazy repro.adversary repro.adversary.emitters
    repro.campaign repro.campaign.executor repro.campaign.grid
    repro.campaign.manifest repro.campaign.pool repro.campaign.runner
    repro.campaign.spec repro.campaign.store repro.core
    repro.core.engine repro.core.errors repro.core.rng repro.core.stats
    repro.core.topology repro.core.trace repro.core.units repro.faults
    repro.faults.invariants repro.mac repro.mac.addresses
    repro.mac.backoff repro.mac.dcf repro.mac.dedup repro.mac.fcs
    repro.mac.fragmentation repro.mac.frames repro.mac.nav
    repro.mac.queueing repro.mac.rate_adapt repro.mobility
    repro.mobility.models repro.net repro.net.ap repro.net.bss
    repro.net.device repro.net.ds repro.net.elements repro.net.roaming
    repro.net.station repro.parallel repro.parallel.channel
    repro.parallel.executor repro.parallel.partition
    repro.parallel.shard repro.phy repro.phy.channel
    repro.phy.error_models repro.phy.interference repro.phy.modulation
    repro.phy.propagation repro.phy.standards repro.phy.transceiver
    repro.routing repro.routing.dsdv repro.routing.node
    repro.routing.packet repro.routing.protocol repro.scenarios
    repro.security repro.security.michael repro.security.rc4
    repro.security.shared_key_auth repro.security.wep repro.telemetry
    repro.telemetry.export repro.telemetry.metrics
    repro.telemetry.probes repro.telemetry.spans repro.traffic
    repro.traffic.generators repro.traffic.sink repro.wpan
    repro.wpan.bluetooth
""".split())


def forbidden_in(modules):
    return [m for m in modules
            if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]


class TestImportBudget:
    def test_import_repro_loads_no_subpackage(self):
        loaded = loaded_by("import repro")
        assert loaded["repro"] == ["repro", "repro._lazy"]
        assert not loaded["networkx"]

    @pytest.mark.parametrize("statement, count", [
        ("import repro.scenarios", 54),
        ("from repro.campaign import run_job", 57),
    ])
    def test_build_paths_skip_the_unused_families(self, statement, count):
        loaded = loaded_by(statement)
        assert not loaded["networkx"]
        assert forbidden_in(loaded["repro"]) == []
        # Both are part of what the workloads import, so a newcomer is
        # named here before the count below reports that there is one.
        assert sorted(set(loaded["repro"]) - WORKLOAD_MODULES) == []
        assert len(loaded["repro"]) == count

    def test_benchmark_workloads_load_a_pinned_module_set(self):
        tree = ast.parse((REPO_ROOT / "bench" / "workloads.py").read_text())
        imports = [ast.unparse(node) for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 0
                   and node.module.split(".")[0] == "repro"]
        assert imports
        loaded = loaded_by("\n".join(imports))
        assert not loaded["networkx"]
        assert sorted(set(loaded["repro"]) - WORKLOAD_MODULES) == []
        assert sorted(WORKLOAD_MODULES - set(loaded["repro"])) == []

    def test_the_documented_spellings_work_in_a_fresh_interpreter(self):
        fresh_interpreter("""
import repro
assert repro.phy.__name__ == "repro.phy"
assert repro.Simulator(seed=1).now == 0.0
from repro.adversary import PeriodicJammer
assert PeriodicJammer.__module__ == "repro.adversary.emitters"
# security.michael names a function and its submodule; the function
# must win whichever is imported first.
import repro.security.tkip
from repro.security import michael
assert callable(michael)
print("{}")
""")


# --- nothing is imported during a run ----------------------------------------

_RUN_PHASES = """
import json, sys
from repro import scenarios
from repro.campaign import expand_grid, run_job, validate_spec
from repro.core.engine import Simulator
from repro.parallel import run_single

imported_while_running = set()
real_run = Simulator.run

def watched_run(self, *args, **kwargs):
    before = set(sys.modules)
    try:
        return real_run(self, *args, **kwargs)
    finally:
        imported_while_running.update(set(sys.modules) - before)

Simulator.run = watched_run

sim = Simulator(seed=1)
bss = scenarios.build_infrastructure_bss(sim, station_count=3)
for station in bss.stations:
    station.send(bss.ap.address, bytes(400))
sim.run(until=sim.now + 0.2)

for builder, params in (("mesh_chain", {"nodes": 3, "warmup": 0.5}),
                        ("hidden_terminal", {})):
    spec = validate_spec({
        "campaign": {"name": "imports"},
        "scenario": {"builder": builder, "horizon": 0.2, "seed": 2,
                     "params": params},
        "traffic": {"kind": "cbr" if builder == "mesh_chain"
                    else "saturate"}})
    assert run_job(expand_grid(spec)[0].spec)["events"] > 0

cells = scenarios.build_city_cells(bss_count=2, stations_per_bss=2)
result = run_single(cells, seed=3, horizon=0.05,
                    propagation_factory=scenarios.city_propagation)
assert result["events"] > 0
print(json.dumps(sorted(imported_while_running)))
"""


def test_running_to_the_horizon_imports_nothing():
    """The guard against moving cost from set-up into the run: every
    module a run reaches was imported by the time it was built."""
    assert fresh_interpreter(_RUN_PHASES) == []


# --- the public surface ------------------------------------------------------

#: ``__all__`` of every package at the last commit whose ``__init__``
#: files imported eagerly, plus the names added since (``repro.traffic``'s
#: saturation source and delivery counter).  Lazy re-export must not
#: change it.
PUBLIC = {package: names.split() for package, names in {
    "repro": """
        Simulator __version__ adversary analysis core mac mobility net
        parallel phy routing scenarios security traffic wman wpan wwan
    """,
    "repro.adversary": """
        BluetoothHopper CaptureLog CaptureRecord ConstantJammer
        CtsNavAttacker DeauthFlooder Emitter EnergySource FrameInjector
        MAX_DURATION_US MicrowaveOven MonitorRadio PeriodicJammer
        ReactiveJammer RogueAp SweepingJammer
    """,
    "repro.analysis": """
        AirtimeReport AttackImpact EnsembleStat Mismatch ReassociationProbe
        SourceAirtime aggregate_impact aggregate_mesh_counters
        aggregate_throughput_bps bianchi_saturation_throughput bianchi_tau
        compare_stats connectivity_graph delay_percentiles differential_gate
        duty_cycle_sweep ensemble ensemble_table format_value group_rows
        jain_fairness mesh_hop_histogram path_stretch pdr_timeline
        per_link_airtime per_link_load per_station_impact recovery_time
        render_duty_curve render_ensemble_table render_impact_table
        render_pdr_grid render_series render_sweep_curve render_table
        route_repair_time shortest_hop_count spatial_pdr_grid
        steady_state_pdr sweep_curve t_critical
    """,
    "repro.campaign": """
        BUILDERS CampaignResult Job Manifest SCHEMA_DOC SpecError
        StoreWriter canonical_json csv_text expand_grid grid_sha1 load_spec
        read_store row_line run_campaign run_job spec_sha1 validate_spec
    """,
    "repro.core": """
        AuthenticationError ConfigurationError Counter EnergyMeter
        EventHandle FrameError IntegrityError KERNELS LinkError ORIGIN
        PeriodicTask Position PowerProfile ProtocolError ReplayError
        ReproError RngRegistry SampleStat SchedulingError SecurityError
        SimulationError Simulator TimeWeightedStat TraceLog TraceRecord
        circle_layout ckernel_available default_kernel grid_layout
        hexagonal_cell_centers jain_fairness line_layout nearest
        random_disc_layout resolve_kernel units
    """,
    "repro.faults": """
        ChaosMonkey DegradedPropagation FaultLog FaultRecord FaultSchedule
        InvariantChecker LinkFader NAV_MAX_LEGAL Violation
        inject_queue_pressure
    """,
    "repro.mac": """
        ACK_SIZE_BYTES Aarf Arf BROADCAST BackoffWindow CTS_SIZE_BYTES
        ControlSubtype DataSubtype DcfConfig DcfMac Dot11Frame DropTailQueue
        DuplicateCache FixedRate Fragment FrameControl FrameType IdealSnr
        MAX_FRAGMENTS MacAddress MacListener ManagementSubtype Msdu Nav
        RTS_SIZE_BYTES RateController Reassembler SEQUENCE_MODULO
        SequenceControl allocate_address crc32 fcs_bytes fixed_rate_factory
        fragment_payload make_ack make_cts make_data make_management
        make_null make_ps_poll make_rts reset_allocator verify_fcs
    """,
    "repro.mobility": """
        LinearMobility MobilityModel RandomWaypoint StaticMobility
    """,
    "repro.net": """
        AUTH_OPEN_SYSTEM AUTH_SHARED_KEY AccessPoint AssocRequestBody
        AssocResponseBody AssociationRecord AuthBody BasicServiceSet
        BeaconBody BeaconObservation BeaconTracker CAP_ESS CAP_IBSS
        CAP_PRIVACY DEFAULT_BEACON_INTERVAL_TU DistributionSystem
        ExtendedServiceSet IndependentBss RoamingPolicy STATUS_REFUSED
        STATUS_SUCCESS Station StationState TU_SECONDS WirelessDevice
        decode_ies encode_ie find_ie generate_ibss_bssid
    """,
    "repro.parallel": """
        ArrivalLog BoundaryRecord CellBuild CellSpec Coupling ShardMedium
        ShardPlan find_couplings partition_cells run_sharded run_single
    """,
    "repro.phy": """
        BerErrorModel CaptureModel DOT11A DOT11AC DOT11B DOT11G DOT11N
        DOT11_LEGACY ENERGY_ONLY ErrorModel FixedLoss FixedPerErrorModel
        FreeSpace LogDistance Medium Modulation PhyListener PhyMode
        PhyStandard PropagationModel Radio RadioConfig RadioState
        RangePropagation STANDARDS Shadowing SinrTracker
        SnrThresholdErrorModel Transmission TwoRayGround get_standard
        max_range_for_budget q_function
    """,
    "repro.routing": """
        DsdvConfig DsdvRouting FLAG_FROM_DS INFINITE_METRIC MESH_HEADER_SIZE
        MeshConfig MeshGateway MeshHeader MeshNode RouteEntry
        RoutingProtocol StaticRouting decode_dsdv_update decode_mesh
        encode_dsdv_update
    """,
    "repro.security": """
        Aes128 AttackReport BLOCK_SIZE CCMP_OVERHEAD CHALLENGE_LEN
        CapturedExchange CcmpCipher FmsAttack FourWayHandshake
        HandshakeResult KeystreamThief LinkSecurity MIC_LEN
        MichaelCountermeasures PairwiseKeys SUITE_OVERHEAD SecuritySuite
        SharedKeyAuthenticator SharedKeyClient TKIP_OVERHEAD TkipCipher
        WEP_OVERHEAD WeakIvSample WeakIvTrafficOracle WepCipher WpsRegistrar
        audit_ccmp audit_open audit_tkip audit_wep audit_wps
        build_link_security ccm_decrypt ccm_encrypt crack_wep derive_psk
        derive_ptk expand_key first_keystream_byte forge_bitflip is_weak_iv
        ksa make_wps_pin michael phase1_mix phase2_mix prf prga
        ranking_reports rc4_crypt rc4_keystream run_legitimate_exchange
        verify_text_ranking wps_checksum_digit wps_pin_attack
    """,
    "repro.telemetry": """
        CounterMetric FrameSpanTracker GaugeMetric HistogramMetric
        KernelDispatchProbe MacFleetProbe MediumProbe MetricsRegistry
        NULL_METRIC PeriodicSampler RadioFleetProbe Span SpanLog Telemetry
        format_key make_key parse_jsonl record_fault_spans render_table
        summary_table to_jsonl to_prometheus
    """,
    "repro.traffic": """
        BulkTransferSource CbrSource DeliveryCounter FlowStats HEADER_SIZE
        OnOffSource PoissonSource SaturatingSource TrafficSink decode_packet
        encode_packet
    """,
    "repro.wman": """
        BURST_PROFILES DL_FRACTION FRAME_TIME FRAMING_EFFICIENCY
        SubscriberStation WimaxBand WimaxBaseStation
    """,
    "repro.wpan": """
        BluetoothDevice DATA_RATE_BPS DH1 DH3 DH5 DISCOVERY_RATE_BPS
        DeviceClass DeviceType EUROPE HALF_ANGLE_RAD HV3 HV3_INTERVAL_PAIRS
        IRDA_RATES_BPS IrdaDevice IrdaLink MAX_ACTIVE_SLAVES MAX_RANGE_M
        POLL PSD_LIMIT_DBM_PER_MHZ PacketType Piconet SLOT_TIME
        ScatternetBridge Topology USA UWB_RATE_LADDER UwbLink
        UwbRegulatoryDomain ZigbeeNode ZigbeePan
    """,
    "repro.wwan": """
        Cell CellularNetwork DVBS2_RATE_BPS GENERATIONS GEO_ALTITUDE_M
        Generation GeoSatellite GroundStation MobileDevice SatelliteLink
        Transponder
    """,
}.items()}


def test_every_package_is_covered():
    packages = {"repro"} | {
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg}
    assert packages == set(PUBLIC)


@pytest.mark.parametrize("package", sorted(PUBLIC))
class TestPublicSurface:
    def test_all_is_what_the_eager_init_exported(self, package):
        exported = importlib.import_module(package).__all__
        assert sorted(exported) == sorted(PUBLIC[package])

    def test_every_name_resolves_is_listed_and_is_cached(self, package):
        module = importlib.import_module(package)
        assert set(dir(module)) >= set(module.__all__)
        for name in module.__all__:
            value = getattr(module, name)
            assert vars(module)[name] is value

    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        assert not hasattr(module, "no_such_export")
        with pytest.raises(AttributeError, match="no_such_export"):
            module.no_such_export
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_export")

    def test_lazily_resolved_classes_pickle_by_reference(self, package):
        """The campaign pool and the shard workers ship these."""
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, type):
                assert pickle.loads(pickle.dumps(value)) is value
