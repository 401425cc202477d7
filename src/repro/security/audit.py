"""The security audit harness: attack effort per suite (experiment E9).

The source text ranks Wi-Fi security methods "from best to worst":

    1. WPA2 + AES   2. WPA + AES   3. WPA + TKIP/AES
    4. WPA + TKIP   5. WEP         6. Open network

This module turns that ranking into *measured or modelled numbers*:

* **Open** — zero effort by definition.
* **WEP** — measured live: the FMS attack from :mod:`.wep` runs against
  a real WEP cipher and reports how many frames a sniffer needed.
* **WPA/TKIP** — modelled: keys are not recoverable, but Michael's
  ~2^29 strength enables chopchop-style per-packet decryption, rate
  limited to one MIC probe per countermeasure blackout; we compute the
  expected wall-clock to decrypt one short packet.  Suites keeping
  TKIP only as a fallback inherit this exposure when the fallback is
  negotiable.
* **WPA2 (and WPA+AES)** — modelled: best known generic attack on the
  CCMP key is brute force, 2^127 expected AES operations.
* **WPS** (orthogonal misfeature) — measured live: the split-PIN
  search against :class:`~.handshake.WpsRegistrar`.

Effort is normalized to seconds under explicit assumptions so the
benchmark can print one comparable column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .handshake import WpsRegistrar, make_wps_pin, wps_pin_attack
from .michael import MichaelCountermeasures
from .suites import SecuritySuite
from .wep import WepCipher, crack_wep

#: Assumed sniffable traffic rate for converting frames -> wall clock.
#: WEP cracking in practice uses active ARP-replay stimulation (this is
#: how the 2005 FBI demonstration cracked keys "in minutes"), which
#: yields tens of thousands of data frames per second, not the passive
#: rate of an idle network.
DEFAULT_FRAMES_PER_SECOND = 15_000.0
#: Assumed offline AES evaluation rate for the brute-force bound.
DEFAULT_AES_PER_SECOND = 1e12
#: Assumed time per online WPS attempt (M4/M6 exchange + AP delay).
DEFAULT_WPS_ATTEMPT_SECONDS = 1.3


@dataclass(frozen=True)
class AttackReport:
    """Outcome of attacking one suite."""

    suite: SecuritySuite
    method: str
    #: What the attack yields: "key", "single packet", "network access"...
    prize: str
    #: Effort in the attack's natural unit.
    effort_amount: float
    effort_unit: str
    #: Effort converted to seconds under the stated assumptions.
    seconds: float
    measured: bool  # measured live vs. analytic model

    @property
    def breakable_in_practice(self) -> bool:
        """'Breakable' = under a month of sustained effort."""
        return self.seconds < 30 * 24 * 3600


def audit_open() -> AttackReport:
    return AttackReport(
        suite=SecuritySuite.OPEN, method="none needed",
        prize="all traffic readable", effort_amount=0.0,
        effort_unit="frames", seconds=0.0, measured=True)


def audit_wep(key: bytes = b"\x13\x37\xbe\xef\x42",
              frames_per_second: float = DEFAULT_FRAMES_PER_SECOND,
              max_frames: int = 1 << 26) -> AttackReport:
    """Run the FMS key-recovery attack live and report the cost."""
    recovered, frames = crack_wep(WepCipher(key), max_frames=max_frames)
    if recovered != key:
        # Should not happen within the default budget for 40-bit keys;
        # report the budget as a lower bound if it does.
        frames = max_frames
    return AttackReport(
        suite=SecuritySuite.WEP, method="FMS weak-IV key recovery",
        prize="full key (then all traffic)", effort_amount=float(frames),
        effort_unit="frames sniffed", seconds=frames / frames_per_second,
        measured=recovered == key)


def audit_tkip(packet_bytes: int = 40,
               countermeasures: Optional[MichaelCountermeasures] = None
               ) -> AttackReport:
    """Model chopchop-style single-packet decryption against TKIP.

    Each unknown plaintext byte is guessed via MIC-failure oracles; a
    wrong guess costs a countermeasure blackout.  Expected guesses per
    byte = 128; the last 12 bytes (MIC+ICV) come free once the body is
    known.  This reproduces the well-known "12-15 minutes per short
    packet" order of magnitude.
    """
    cm = countermeasures if countermeasures is not None \
        else MichaelCountermeasures()
    unknown_bytes = min(packet_bytes, 12)  # attacker guesses tail bytes
    expected_guesses = unknown_bytes * 128
    # One guess per blackout window (the countermeasure rate limit).
    seconds = expected_guesses * cm.blackout / 60.0
    return AttackReport(
        suite=SecuritySuite.WPA_TKIP,
        method="chopchop via Michael MIC oracle (rate-limited)",
        prize="one short packet decrypted + MIC key",
        effort_amount=float(expected_guesses), effort_unit="MIC probes",
        seconds=seconds, measured=False)


def audit_ccmp(suite: SecuritySuite = SecuritySuite.WPA2_AES,
               aes_per_second: float = DEFAULT_AES_PER_SECOND
               ) -> AttackReport:
    """Brute-force bound for AES-CCMP key recovery."""
    expected_ops = 2.0 ** 127
    return AttackReport(
        suite=suite, method="exhaustive AES-128 key search (best generic)",
        prize="full key", effort_amount=expected_ops,
        effort_unit="AES operations", seconds=expected_ops / aes_per_second,
        measured=False)


def audit_wps(pin_seed: int = 1_234_567,
              attempt_seconds: float = DEFAULT_WPS_ATTEMPT_SECONDS
              ) -> AttackReport:
    """Run the split-PIN search live against a WPS registrar."""
    registrar = WpsRegistrar(make_wps_pin(pin_seed))
    _pin, attempts = wps_pin_attack(registrar)
    return AttackReport(
        suite=SecuritySuite.WPA2_AES,  # WPS undermines even WPA2 networks
        method="WPS split-PIN online search",
        prize="network credentials despite WPA2",
        effort_amount=float(attempts), effort_unit="online attempts",
        seconds=attempts * attempt_seconds, measured=True)


def ranking_reports(wep_key: bytes = b"\x13\x37\xbe\xef\x42",
                    fast: bool = False) -> List[AttackReport]:
    """One report per suite, in the text's best-to-worst order.

    ``fast`` skips the live WEP crack (useful inside unit tests) and
    substitutes the known ~4.2M-frame figure as a modelled value.
    """
    if fast:
        wep = AttackReport(
            suite=SecuritySuite.WEP, method="FMS weak-IV key recovery",
            prize="full key (then all traffic)", effort_amount=4.2e6,
            effort_unit="frames sniffed",
            seconds=4.2e6 / DEFAULT_FRAMES_PER_SECOND, measured=False)
    else:
        wep = audit_wep(wep_key)
    tkip = audit_tkip()
    return [
        audit_ccmp(SecuritySuite.WPA2_AES),
        audit_ccmp(SecuritySuite.WPA_AES),
        AttackReport(suite=SecuritySuite.WPA_TKIP_AES, method=tkip.method,
                     prize=tkip.prize + " (TKIP fallback negotiable)",
                     effort_amount=tkip.effort_amount,
                     effort_unit=tkip.effort_unit, seconds=tkip.seconds,
                     measured=tkip.measured),
        tkip,
        wep,
        audit_open(),
    ]


def verify_text_ranking(reports: List[AttackReport]) -> bool:
    """Check the measured/modelled efforts respect the §5.2 ordering.

    Suites listed earlier (better) must cost the attacker at least as
    much as every suite listed after them.
    """
    seconds = [report.seconds for report in reports]
    return all(earlier >= later for earlier, later
               in zip(seconds, seconds[1:]))
