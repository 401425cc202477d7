"""Virtual carrier sense against the standard's rule, not the code's.

IEEE 802.11 (2016, 10.3.2.1 and 10.3.4.3): the medium is busy whenever
*either* physical carrier sense or the NAV says so, and the DIFS/EIFS
wait and the backoff countdown run only while it is idle.  A station
that has just decoded a frame not addressed to it must therefore stay
silent until the NAV that frame set has expired — whether or not the
protected response ever appears on the air.
"""

import pytest

from repro.mac.addresses import allocate_address

from test_dcf import build_network


@pytest.mark.xfail(strict=True, reason=(
    "known defect (found while sizing ISSUE 16, not fixed there because "
    "the fix moves every seeded statistic): Radio._reception_complete "
    "fires the CCA-idle edge before on_rx_end, so DcfMac arms the DIFS "
    "wait before phy_rx_end sets the NAV of the frame just decoded, and "
    "neither _ifs_expired nor _access_won looks at the NAV again.  Only "
    "a CCA-busy edge (the protected ACK arriving) cancels the wait; when "
    "the ACK never comes the station counts down, and may transmit, "
    "inside a live NAV.  dense_cell (seed 1, scale 0.3): 31 of 20 024 "
    "IFS expiries and 3 of 770 access wins.  ROADMAP, 'specifications "
    "you can run'."))
def test_contention_waits_for_the_nav_of_the_frame_just_decoded(sim):
    _, nodes = build_network(sim, count=2)
    (sender, _), (bystander, _) = nodes
    nobody = allocate_address()         # no such station: no ACK will come
    sender.send(nobody, bytes(200))
    sim.run(until=1e-4)                 # the data frame is on the air
    assert sender.radio.state.value == "tx"
    bystander.send(sender.address, bytes(200))   # something to contend for
    while bystander.nav.until == 0.0:   # run to the end of the data frame
        sim.run(max_events=1)
    frame_end = sim.now
    nav_until = bystander.nav.until
    difs = bystander.radio.standard.difs
    assert nav_until > frame_end + 2 * difs     # the NAV protects the ACK
    sim.run(until=frame_end + difs + 1e-6)      # DIFS later: NAV still live
    assert bystander.nav.busy
    assert not bystander._ifs.armed and not bystander._countdown.armed
    assert bystander.radio.state.value != "tx"
