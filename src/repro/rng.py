"""Checkpointing a seeded random generator.

A component that draws from a :class:`numpy.random.Generator` saves
``generator.bit_generator.state`` in its ``state_dict`` (for PCG64, a
dict of plain integers that JSON holds exactly) and reinstalls it with
:func:`load_rng_state`, so a restored component draws the same numbers
the original would have drawn next.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError


def load_rng_state(rng: np.random.Generator, state: Any) -> None:
    """Install a ``rng.bit_generator.state`` captured earlier.

    Raises
    ------
    ConfigurationError
        If the state names another bit generator or is malformed.
    """
    name = type(rng.bit_generator).__name__
    if not isinstance(state, dict) or state.get("bit_generator") != name:
        raise ConfigurationError(f"RNG state must be for a {name} bit generator")
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed RNG state: {exc}") from exc
