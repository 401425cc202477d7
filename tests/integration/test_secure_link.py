"""Integration: encrypted payloads over the simulated MAC.

The security suites protect MSDU payloads above the MAC; the WEP bit in
the frame control field marks protected frames on the air.  This test
wires the two layers together the way the example application does.
"""

import pytest

from repro import scenarios
from repro.core.errors import IntegrityError
from repro.security.suites import SecuritySuite, build_link_security


class TestEncryptedTraffic:
    @pytest.mark.parametrize("suite", [
        SecuritySuite.WEP,
        SecuritySuite.WPA_TKIP,
        SecuritySuite.WPA2_AES,
    ])
    def test_protected_payload_end_to_end(self, sim, suite):
        bss = scenarios.build_infrastructure_bss(sim, station_count=2,
                                                 radius_m=10.0)
        src, dst = bss.stations
        tx_side, rx_side = build_link_security(
            suite, passphrase="integration passphrase",
            ssid="repro-net", wep_key=b"\x01\x02\x03\x04\x05")
        received = []

        def on_receive(source, payload, meta):
            assert meta["protected"]
            received.append(rx_side.unprotect(payload, now=sim.now))

        dst.on_receive(on_receive)
        for index in range(5):
            plaintext = b"secret %d" % index
            src.send(dst.address, tx_side.protect(plaintext),
                     protected=True)
        sim.run(until=sim.now + 2.0)
        assert received == [b"secret %d" % i for i in range(5)]

    def test_protected_bit_travels_on_the_air(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=2,
                                                 radius_m=10.0)
        src, dst = bss.stations
        sniffed = []
        bss.ap.mac.sniffer = lambda frame, snr: sniffed.append(frame)
        src.send(dst.address, b"\x00" * 32, protected=True)
        sim.run(until=sim.now + 1.0)
        assert any(frame.is_data and frame.fc.protected
                   for frame in sniffed)

    def test_eavesdropper_sees_only_ciphertext(self, sim):
        """The §5.2 claim: without encryption anyone in range reads the
        traffic; with it, the sniffer gets ciphertext it cannot open."""
        bss = scenarios.build_infrastructure_bss(sim, station_count=2,
                                                 radius_m=10.0)
        src, dst = bss.stations
        tx_side, _rx = build_link_security(
            SecuritySuite.WPA2_AES, passphrase="the right passphrase",
            ssid="repro-net")
        captured = []
        # The AP radio doubles as our in-range eavesdropper.
        bss.ap.mac.sniffer = lambda frame, snr: captured.append(frame)
        secret = b"the plans for the mainframe"
        src.send(dst.address, tx_side.protect(secret), protected=True)
        sim.run(until=sim.now + 1.0)
        data_frames = [frame for frame in captured
                       if frame.is_data and frame.body]
        assert data_frames
        assert all(secret not in frame.body for frame in data_frames)
        # And a wrong-passphrase receiver cannot open it either.
        _tx2, wrong_rx = build_link_security(
            SecuritySuite.WPA2_AES, passphrase="a wrong guess",
            ssid="repro-net")
        with pytest.raises(IntegrityError):
            wrong_rx.unprotect(data_frames[0].body)
