"""Shared utilities: seeded RNG management, timing, serialization, tables.

These helpers are deliberately dependency-free (NumPy only) so that every
other subpackage can rely on them without import cycles.
"""

from repro.utils.rng import RngMixin, derive_seed, new_rng, spawn_rngs
from repro.utils.timing import Stopwatch, format_duration
from repro.utils.serialization import (
    load_json,
    load_npz_dict,
    save_json,
    save_npz_dict,
)
from repro.utils.tables import ascii_bar_chart, ascii_table, format_float
from repro.utils.validation import (
    check_in,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "RngMixin",
    "Stopwatch",
    "ascii_bar_chart",
    "ascii_table",
    "check_in",
    "check_positive",
    "check_probability",
    "check_type",
    "derive_seed",
    "format_duration",
    "format_float",
    "load_json",
    "load_npz_dict",
    "new_rng",
    "save_json",
    "save_npz_dict",
    "spawn_rngs",
]
