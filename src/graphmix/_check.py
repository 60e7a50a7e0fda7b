"""The checks of the public API's scalar arguments: one for counts, one for ranges.

Every public count and bounded parameter is checked here, so what a valid
value is gets decided once, and every refusal reads ``<name> must ..., got
<value>``.  The module is a leaf, importing nothing from the package:
:mod:`graphmix.rng` checks its seeds here and every other module imports
``rng``, so the checks could live in no other module without an import cycle.
"""

from numbers import Integral


def count(name: str, value, low: int = 0, high: int | None = None) -> int:
    """``value`` as an ``int``, refused unless it is an integer in [low, high].

    ``bool`` is refused, though it subclasses ``int``; numpy's integers pass.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")
    return int(interval(name, value, low, high))


def interval(name: str, value, low, high=None, open_low: bool = False, open_high: bool = False):
    """``value``, refused unless it lies between low and high, each end open or closed; NaN lies in none."""
    above = low < value if open_low else low <= value
    if above and (high is None or (value < high if open_high else value <= high)):
        return value
    if high is None:
        raise ValueError(f"{name} must be {'>' if open_low else '>='} {low}, got {value}")
    ends = ("(" if open_low else "[", ")" if open_high else "]")
    raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value}")
