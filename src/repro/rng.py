"""Checkpointing a seeded random generator.

A component that draws from a :class:`numpy.random.Generator` saves
``generator.bit_generator.state`` in its ``state_dict`` (for PCG64, the
bit generator of every ``default_rng``, a dict of plain integers that
JSON holds exactly) and reinstalls it with :func:`load_rng_state`, so a
restored component draws the same numbers the original would have drawn
next.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.persistence import Field, check
from repro.errors import ConfigurationError

#: The fields of a PCG64 state: numpy would read ``true`` as 1, and
#: accept any ``has_uint32``.
_STATE_FIELDS = {"state": Field(dict), "has_uint32": Field(int, lo=0, hi=1),
                 "uinteger": Field(int, lo=0, hi=2**32 - 1)}
_PCG64_FIELDS = dict.fromkeys(("state", "inc"), Field(int, lo=0, hi=2**128 - 1))


def load_rng_state(rng: np.random.Generator, state: Any) -> None:
    """Install a ``rng.bit_generator.state`` captured earlier.

    The state is checked against the PCG64 fields and then installed on
    a fresh bit generator, so ``rng`` is untouched unless it is valid.

    Raises
    ------
    ConfigurationError
        If the state names another bit generator or is malformed.
    """
    name = type(rng.bit_generator).__name__
    if not isinstance(state, dict) or state.get("bit_generator") != name:
        raise ConfigurationError(f"RNG state must be for a {name} bit generator")
    check(check(state, _STATE_FIELDS)["state"], _PCG64_FIELDS, "state")
    try:
        type(rng.bit_generator)(0).state = state
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed RNG state: {exc}") from exc
    rng.bit_generator.state = state
