"""Adversarial RF: jammers, coexistence interferers, capture, attacks.

The subsystem models the hostile (and merely rude) RF environment real
deployments live in, on top of the existing PHY/MAC layers:

* :mod:`~repro.adversary.emitters` — energy-only interference sources
  driven through the medium's energy path: barrage / duty-cycled /
  sweeping / reactive jammers, plus coexistence profiles (a
  Bluetooth-style frequency hopper, a broadband microwave-oven burst
  source).
* :mod:`~repro.adversary.monitor` — monitor-mode promiscuous capture:
  a receive-only radio feeding a deterministic :class:`CaptureLog`
  whose WEP traffic plugs straight into the security audit's FMS
  machinery.
* :mod:`~repro.adversary.attacks` — MAC-layer attack nodes: spoofed
  deauthentication floods, evil-twin rogue APs, CTS-to-self NAV abuse.

Impact metrics (PDR deltas, duty-cycle/goodput curves, spatial PDR
grids) live in :mod:`repro.analysis.adversary`;
``examples/jamming_study.py`` runs the full story and the
``interference_field`` macro pins the dense-emitter workload in the
perf suite.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "attacks": ("CtsNavAttacker", "DeauthFlooder", "FrameInjector",
        "MAX_DURATION_US", "RogueAp"),
    "emitters": ("BluetoothHopper", "ConstantJammer", "Emitter",
        "EnergySource", "MicrowaveOven", "PeriodicJammer", "ReactiveJammer",
        "SweepingJammer"),
    "monitor": ("CaptureLog", "CaptureRecord", "MonitorRadio"),
})
