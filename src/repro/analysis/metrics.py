"""Evaluation metrics shared by benchmarks and tests.

Includes the Bianchi analytic model of DCF saturation throughput, used
as the reference shape for experiment E10: our simulated MAC should
track the analytic curve within simulation noise.
"""

from __future__ import annotations

from ..phy.standards import PhyStandard

__all__ = [
    "bianchi_saturation_throughput",
    "bianchi_tau",
]


def bianchi_tau(n: int, cw_min: int, retry_limit: int = 6) -> float:
    """Per-slot transmission probability from Bianchi's fixed point.

    Solves the two-equation fixed point of the 2000 JSAC model by
    bisection on the collision probability ``p``:

        tau = 2(1-2p) / ((1-2p)(W+1) + pW(1-(2p)^m))
        p   = 1 - (1 - tau)^(n-1)

    with ``W = cw_min + 1`` and ``m = retry_limit`` backoff stages.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 stations, got {n}")
    w = cw_min + 1
    m = retry_limit

    def tau_of_p(p: float) -> float:
        if p >= 0.5:
            # Degenerate branch of the closed form; evaluate directly.
            numerator = 2.0 * (1.0 - 2.0 * p)
            denominator = ((1.0 - 2.0 * p) * (w + 1)
                           + p * w * (1.0 - (2.0 * p) ** m))
            if abs(denominator) < 1e-12:
                return 2.0 / (w + 1)
            return numerator / denominator
        numerator = 2.0 * (1.0 - 2.0 * p)
        denominator = ((1.0 - 2.0 * p) * (w + 1)
                       + p * w * (1.0 - (2.0 * p) ** m))
        return numerator / denominator

    if n == 1:
        return tau_of_p(0.0)
    low, high = 0.0, 1.0 - 1e-9
    for _ in range(200):
        mid = (low + high) / 2.0
        tau = tau_of_p(mid)
        implied_p = 1.0 - (1.0 - tau) ** (n - 1)
        if implied_p > mid:
            low = mid
        else:
            high = mid
    return tau_of_p((low + high) / 2.0)


def bianchi_saturation_throughput(n: int, standard: PhyStandard,
                                  payload_bytes: int, data_rate_bps: float,
                                  mac_header_bytes: int = 28,
                                  ack_bytes: int = 14,
                                  use_rts: bool = False,
                                  rts_bytes: int = 20,
                                  cts_bytes: int = 14) -> float:
    """Analytic DCF saturation goodput (payload bits/s) for n stations.

    This is the classic Bianchi computation with the library's own
    timing constants, so the analytic curve and the simulation share
    every parameter except the model idealizations.
    """
    tau = bianchi_tau(n, standard.cw_min)
    p_tr = 1.0 - (1.0 - tau) ** n                      # some tx in a slot
    p_s = (n * tau * (1.0 - tau) ** (n - 1) / p_tr) if p_tr > 0 else 0.0
    slot = standard.slot_time
    sifs, difs = standard.sifs, standard.difs
    preamble = standard.preamble_time

    t_payload = (mac_header_bytes + payload_bytes) * 8 / data_rate_bps
    t_ack = preamble + ack_bytes * 8 / standard.basic_rate_bps
    if use_rts:
        t_rts = preamble + rts_bytes * 8 / standard.basic_rate_bps
        t_cts = preamble + cts_bytes * 8 / standard.basic_rate_bps
        t_success = (t_rts + sifs + t_cts + sifs + preamble + t_payload
                     + sifs + t_ack + difs)
        t_collision = t_rts + difs + sifs + t_cts
    else:
        t_success = preamble + t_payload + sifs + t_ack + difs
        t_collision = preamble + t_payload + difs + sifs + t_ack

    expected_payload = p_tr * p_s * payload_bytes * 8
    expected_slot = ((1.0 - p_tr) * slot
                     + p_tr * p_s * t_success
                     + p_tr * (1.0 - p_s) * t_collision)
    if expected_slot <= 0:
        return 0.0
    return expected_payload / expected_slot
