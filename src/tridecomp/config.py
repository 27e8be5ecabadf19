"""Numerical tolerances, capacity limits and the JSON view of report
dataclasses.

All arithmetic is IEEE-754 binary64 complex.  The defaults sit well above
machine noise and well below every gap the verified bounds rely on; each one
can be overridden per call or through CLI flags.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

from .errors import InvalidStateError


def check_tolerance(name: str, value) -> None:
    """Raise InvalidStateError unless ``value`` is finite and > 0: a NaN,
    infinite or non-positive tolerance would silently flip a comparison."""
    if not (math.isfinite(value) and value > 0):
        raise InvalidStateError(
            f"tolerance {name} must be finite and > 0, got {value!r}")


def check_integer(name: str, value, minimum: int = None) -> int:
    """``value`` as an ``int``, refused unless it is an integer (``int`` or
    ``np.integer``, not ``bool``) >= ``minimum`` if given; 2.0 is refused."""
    if (type(value) is int or not isinstance(value, bool)
            and isinstance(value, numbers.Integral)) and (
            minimum is None or value >= minimum):
        return int(value)
    bound = "" if minimum is None else f" >= {minimum}"
    raise InvalidStateError(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-9        # unit-norm slack for wavefunctions and components
    herm: float = 1e-9        # Hermiticity slack for density matrices
    psd: float = 1e-10        # eigenvalue dust below zero clamped up to here
    li: float = 1e-8          # linear-independence certificate floor
    orth: float = 1e-8        # orthonormality slack
    deg: float = 1e-7         # degeneracy grouping width for spectra/coefficients
    recon: float = 1e-8       # decomposition reconstruction ceiling
    zero_coeff: float = 1e-12  # coefficients at or below this count as zero

    def __post_init__(self):
        for f in fields(self):
            check_tolerance(f.name, getattr(self, f.name))

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOLERANCES = Tolerances()

# Most entries one array may hold: a dense state, a core buffer, a pair factor.
DENSIFY_CEILING = 1 << 22


def json_fields(report) -> dict:
    """A report dataclass as a JSON object: its fields in declaration order,
    nested dataclasses as objects and tuples as lists."""
    def lists(value):
        if isinstance(value, (tuple, list)):
            return [lists(v) for v in value]
        if isinstance(value, dict):
            return {k: lists(v) for k, v in value.items()}
        return value
    return lists(asdict(report))
