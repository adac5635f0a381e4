"""Small generic helpers shared by the rest of the library."""

from repro.utils.rng import SeededRNG, derive_seed
from repro.utils.stats import geometric_mean, mean
from repro.utils.tables import format_table

__all__ = [
    "SeededRNG",
    "derive_seed",
    "geometric_mean",
    "mean",
    "format_table",
]
