"""sha256 pins of the campaign scores, the seed-2015 headline and a fleet.

Every pinned campaign number lives here, once, next to the one digest
helper: a tiny two-case campaign, the default protocol on two cases, and the
full five-case campaign together with its headline detection numbers.
``test_pins.py`` asserts each of them once, under the default configuration,
together with the combined-scheme fleet's event digests, which pin the
cross-link calibration and scoring kernels.  That a backend selected
explicitly gives the default run's bytes is checked in
``test_backend_parity.py`` by comparison, not against these pins.

The pins are platform-sensitive by design (libm/LAPACK/FFT bit patterns of
the reference container); a change that moves a campaign float must re-pin
here deliberately and log the move in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import struct

#: Seed 11, a 1 x 2 grid, one 8-packet window per location, 30 calibration
#: packets, single-bounce rays, every scheme; the first two evaluation cases.
TINY_CAMPAIGN_SHA256 = "9deb02be5a0f5181183c26b2f051b27530843dabb81b0cfd8ae12faa76bf3633"

#: ``EvaluationConfig(seed=2015)`` on the first two evaluation cases.
TWO_CASE_DEFAULT_CAMPAIGN_SHA256 = (
    "5a26af8e3982ca3e2ee3c65fa24bee819a8ae6c88eff8edc3b555459f3ec73c6"
)

#: ``EvaluationConfig(seed=2015)`` on all five evaluation cases.
FULL_CAMPAIGN_SHA256 = "9894564b10f938db645e5d556a6a902136023531f03dcf6109766ee22a075770"

#: The full seed-2015 campaign's headline detection numbers.
FULL_CAMPAIGN_HEADLINE = {
    "combined": {
        "true_positive_rate": 0.9777777777777777,
        "false_positive_rate": 0.05185185185185185,
    },
    "baseline": {"true_positive_rate": 0.9629629629629629},
    "subcarrier": {"true_positive_rate": 0.9777777777777777},
}


#: Event digests, per backend, of a 40-link fleet on the combined scheme:
#: every one of the five evaluation geometries, ``FleetConfig(links=40,
#: duration_s=4.0, seed=11, batch_windows=64, pool_packets=40)`` with
#: 10-packet windows and 30 calibration packets.
COMBINED_FLEET_EVENT_SHA256 = {
    "exact": "aa3f1562ade6129de336658d60b261602e8d28171a14f313312f7baf8cf1b2d0",
    "fast": "cd92a720bd5c5c377c94b21f71c33107a3515e40f529505ced412fb47b742bdf",
}


def scores_sha256(result) -> str:
    """sha256 over every window's scheme, case, label and exact score."""
    digest = hashlib.sha256()
    for window in result.windows:
        digest.update(f"{window.scheme}|{window.case}|{window.occupied}|".encode())
        digest.update(struct.pack("<d", window.score))
    return digest.hexdigest()


def pinned_headline(result) -> dict[str, dict[str, float]]:
    """The entries of ``result.headline()`` that FULL_CAMPAIGN_HEADLINE pins."""
    headline = result.headline()
    return {
        scheme: {key: headline[scheme][key] for key in keys}
        for scheme, keys in FULL_CAMPAIGN_HEADLINE.items()
    }
