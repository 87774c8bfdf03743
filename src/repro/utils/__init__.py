"""Shared utilities: result serialization and seed management."""

from repro.utils.serialization import (
    dataclass_to_dict,
    load_json,
    save_json,
    to_jsonable,
)
from repro.utils.seeding import spawn_seeds, stable_hash_seed

__all__ = [
    "to_jsonable",
    "dataclass_to_dict",
    "save_json",
    "load_json",
    "spawn_seeds",
    "stable_hash_seed",
]
