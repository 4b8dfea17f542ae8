"""The one rule for every seed the package takes: a non-negative integer, echoed as an `int`."""
from __future__ import annotations

import numbers


def check_seed(seed, error: type[Exception]) -> int:
    """The seed as an `int`; raise `error` for a bool, a non-integer or a negative seed.

    A bool would pass for 0 or 1 (and share their memo key), a float or a
    string would fail inside numpy with a `TypeError`, and a numpy integer
    would be echoed into results that `json` cannot write.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise error(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise error(f"seed must be >= 0, got {seed}")
    return int(seed)
