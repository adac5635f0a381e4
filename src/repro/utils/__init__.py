"""Small generic helpers shared by the rest of the library."""

from repro.utils.rng import SeededRNG, derive_seed
from repro.utils.stats import RunningStats, geometric_mean, mean, normalize
from repro.utils.tables import format_table

__all__ = [
    "SeededRNG",
    "derive_seed",
    "RunningStats",
    "geometric_mean",
    "mean",
    "normalize",
    "format_table",
]
