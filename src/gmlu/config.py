"""Scale caps for the exhaustive-search components.

The brute-force pieces (minimal-formula search, game solving, cover
search) are exponential and deliberately fenced to a tiny scale.  The
defaults below can be overridden through ``GMLU_*`` environment
variables, read once per CLI invocation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields


class ScaleCapError(ValueError):
    """Requested computation exceeds the configured exhaustive-search caps."""


@dataclass(frozen=True)
class SearchCaps:
    exact_max_symbols: int = 1
    exact_max_n: int = 6
    exact_max_d: int = 3
    game_max_symbols: int = 1
    game_max_n: int = 4
    game_max_resource: int = 7
    game_max_models: int = 4
    cover_max_support: int = 16


_ENV_PREFIX = "GMLU_"


def caps_from_env() -> SearchCaps:
    """Caps with ``GMLU_<FIELDNAME>`` environment overrides applied."""
    values = {}
    for f in fields(SearchCaps):
        raw = os.environ.get(_ENV_PREFIX + f.name.upper())
        if raw is not None:
            try:
                values[f.name] = int(raw)
            except ValueError:
                raise ValueError(
                    f"environment override {_ENV_PREFIX + f.name.upper()}={raw!r} "
                    "is not an integer"
                ) from None
    return SearchCaps(**values)


DEFAULT_CAPS = SearchCaps()
