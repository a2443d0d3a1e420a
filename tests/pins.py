"""sha256 pins of the campaign scores, the seed-2015 headline and a fleet.

Every pinned campaign number lives here, once, next to the one digest
helper: a tiny two-case campaign, the default protocol on two cases, and the
full five-case campaign together with its headline detection numbers.  The
suites assert them under the default configuration
(``test_scene_parity.py``, ``test_multipath_batch_parity.py``) and with
``backend="exact"`` spelled out (``test_backend_parity.py``), so the pins
also hold the backend seam (config field, activation wrapper, kernel
indirection) to the bit.  The combined-scheme fleet's event digests
(``test_fleet.py``) pin the cross-link calibration and scoring kernels.

The pins are platform-sensitive by design (libm/LAPACK/FFT bit patterns of
the reference container); a change that moves a campaign float must re-pin
here deliberately and log the move in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import struct

#: Seed 11, a 1 x 2 grid, one 8-packet window per location, 30 calibration
#: packets, single-bounce rays, every scheme; the first two evaluation cases.
TINY_CAMPAIGN_SHA256 = "0f9213e30cb4af331580b1f4227c9ab406112485f625c29e9b47d91bdbde184c"

#: ``EvaluationConfig(seed=2015)`` on the first two evaluation cases.
TWO_CASE_DEFAULT_CAMPAIGN_SHA256 = (
    "fb61a78312714b6ca5a2ffff0c52f5cff8e688878daa9d197b3fc453b466a9cb"
)

#: ``EvaluationConfig(seed=2015)`` on all five evaluation cases.
FULL_CAMPAIGN_SHA256 = "1c8fe77c6c2e5fee8510778590e8bd45745b437dd00b371732e9e6d3a22965f2"

#: The full seed-2015 campaign's headline detection numbers.
FULL_CAMPAIGN_HEADLINE = {
    "combined": {"true_positive_rate": 0.9555555555555556, "false_positive_rate": 0.0},
    "baseline": {"true_positive_rate": 0.9333333333333333},
    "subcarrier": {"true_positive_rate": 0.9851851851851852},
}


#: Event digests, per backend, of a 40-link fleet on the combined scheme:
#: every one of the five evaluation geometries, ``FleetConfig(links=40,
#: duration_s=4.0, seed=11, batch_windows=64, pool_packets=40)`` with
#: 10-packet windows and 30 calibration packets.
COMBINED_FLEET_EVENT_SHA256 = {
    "exact": "d93c0e601b7e8108a95aee6bbf2f0c8b61678b3da49d301836f203ab2f68677b",
    "fast": "ed748635786d97e7467ac39ba769bb20e2cde627f0721c632aa9c346317ada30",
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
