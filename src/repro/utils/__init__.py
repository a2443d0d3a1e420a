"""Shared utilities: seeded randomness, statistics and unit conversions.

These helpers are deliberately small and dependency-free (NumPy only) so the
rest of the library can rely on them without pulling in plotting or I/O
machinery.
"""

from repro.utils.convert import (
    amplitude_to_db,
    db_to_amplitude,
    db_to_power,
    power_to_db,
)
from repro.utils.rng import ensure_rng
from repro.utils.stats import (
    ecdf,
    percentile_summary,
    running_mean,
    sliding_windows,
)
from repro.utils.validation import (
    check_finite,
    check_positive,
    check_probability,
    check_shape,
)

__all__ = [
    "amplitude_to_db",
    "db_to_amplitude",
    "db_to_power",
    "power_to_db",
    "ensure_rng",
    "ecdf",
    "percentile_summary",
    "running_mean",
    "sliding_windows",
    "check_finite",
    "check_positive",
    "check_probability",
    "check_shape",
]
