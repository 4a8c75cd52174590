"""Scale caps for the exhaustive-search components.

The brute-force pieces (minimal-formula search, game solving) are
exponential and deliberately fenced to a tiny scale, and the row reports
are fenced by the entries their admissible tuples store.  The defaults
below can be overridden through ``GMLU_*`` environment variables, read
once per CLI invocation.
"""

from __future__ import annotations

import os
from typing import NamedTuple


class ScaleCapError(ValueError):
    """Requested computation exceeds the configured exhaustive-search caps."""


class SearchCaps(NamedTuple):
    search_max_cells: int = 1 << 15
    game_max_symbols: int = 1
    game_max_n: int = 4
    game_max_resource: int = 7
    game_max_models: int = 4
    enumerate_max_entries: int = 1 << 22


def _env_name(field: str) -> str:
    return "GMLU_" + field.upper()


def check_cap(caps: SearchCaps, field: str, value: int, what: str) -> None:
    """Raise a ScaleCapError naming ``what``, the value, the cap and its
    override variable when ``value`` exceeds the cap ``field``.  A value
    past 2^64 is named by its power of two."""
    cap = getattr(caps, field)
    if value > cap:
        if value.bit_length() > 64:
            value = f"above 2^{value.bit_length() - 1}"
        raise ScaleCapError(
            f"{what} {value} exceeds the cap {cap}; set {_env_name(field)} to raise it"
        )


def caps_from_env() -> SearchCaps:
    """Caps with ``GMLU_<FIELDNAME>`` environment overrides applied."""
    values = {}
    for name in SearchCaps._fields:
        raw = os.environ.get(_env_name(name))
        if raw is not None:
            try:
                values[name] = int(raw)
            except ValueError:
                values[name] = -1  # refused below with the negative values
            if values[name] < 0:
                raise ValueError(f"environment override {_env_name(name)}={raw!r} "
                                 "is not an integer >= 0")
    return SearchCaps(**values)


DEFAULT_CAPS = SearchCaps()
