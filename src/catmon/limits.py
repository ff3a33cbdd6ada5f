"""Size limits: how large a construction may get.

Each construction is priced before it is built.  Its guard counts what it
would make, exactly and without making it, and hands the count to
``require``, which raises ``SizeLimitExceeded`` past the limit.  A
congruence class and a Tietze collapse are the exceptions: their sizes
are known only once they are built, so a closure counts its words, and a
collapse its relator letters, as they grow, and calls ``require`` once
they pass the limit.  There are two limits:

- ``MAX_COUNT``: the most elements, classes, words of a class, chains,
  faces, group dimensions or relator letters one construction may list or
  hold, and the most composites plus associativity triples that
  ``FiniteCategory(...)`` may check.  ``require`` reads it when a guard
  runs, and a closure when it starts, so setting it moves every count
  guard.
- ``max_arrows()``: the most arrows a category may have, read from the
  environment variable ``CATMON_MAX_ARROWS`` on every call (default
  10 000).  It bounds Cat(P) before its pasting table is walked,
  Cat(P,u,v) after its edit, and ``FiniteCategory(...)`` on tables from
  outside.

A length bound has a floor instead: ``require_bound``, the one judge of a
bound (the CLI only parses one), refuses a non-``int``, a check up to
length 0, which would check nothing, and a search below length 0.
"""
from __future__ import annotations

import os

from .errors import InvalidStructure, SizeLimitExceeded

MAX_COUNT = 1_000_000

MAX_ARROWS_ENV = "CATMON_MAX_ARROWS"
DEFAULT_MAX_ARROWS = 10_000


def max_arrows():
    """The arrow limit: ``CATMON_MAX_ARROWS`` if set, else 10 000."""
    raw = os.environ.get(MAX_ARROWS_ENV)
    if raw is None:
        return DEFAULT_MAX_ARROWS
    try:
        return int(raw)
    except ValueError:
        raise SizeLimitExceeded(
            f"{MAX_ARROWS_ENV}={raw!r} is not an integer") from None


def require(count, what, limit=None):
    """Raise SizeLimitExceeded, naming the count, what it counts and the
    limit, when count is over the limit (``MAX_COUNT`` unless given).

    count is an int, or a pair (base, exponent) that stands for
    base ** exponent.  With a base of 2 or more, an exponent past the
    limit's bit length is over it, so the power is never taken there.
    """
    if limit is None:
        limit = MAX_COUNT
    if isinstance(count, tuple):
        base, exponent = count
        over = base > 1 and (exponent > limit.bit_length()
                             or base ** exponent > limit)
        count = f"{base}**{exponent}"
    else:
        over = count > limit
    if over:
        raise SizeLimitExceeded(f"{count} {what}, over the limit of {limit}")


def require_bound(max_len, least):
    """Raise InvalidStructure when the length bound max_len is not an int
    (a bool is not one) or is below ``least``: 1 for a check, 0 for a
    search."""
    if type(max_len) is not int:
        raise InvalidStructure(f"max_len {max_len!r} is not an int")
    if max_len < least:
        raise InvalidStructure(f"max_len {max_len} is below {least}")
