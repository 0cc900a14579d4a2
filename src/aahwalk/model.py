"""Model parameters and bond coefficients for the modulated hopping chain.

The chain has L sites (0-based, sites 0..L-1) and L-1 open-boundary bonds.
Bond b connects sites b and b+1; its hopping amplitude carries a cosine
modulation evaluated at the 1-based bond index (b+1), so that for
T_period=2 and phi_J=0 the profile starts with a *weak* bond at b=0.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

FLAVOR_PAPER_LITERAL = "paper-literal"
FLAVOR_EXACT_JW = "exact-jw"
FLAVORS = (FLAVOR_PAPER_LITERAL, FLAVOR_EXACT_JW)

# Basis indices are int64 with bit i = site i: bit L-1 stays below the sign bit.
MAX_INDEX_SITES = 63


@dataclass(frozen=True)
class ModelParams:
    """Hamiltonian parameters.

    J scales the hoppings only: every bond coefficient is proportional to
    it.  V, the nearest-neighbor interaction, and time are absolute, not in
    units of J or 1/J (J = 0 with V != 0 is a hop-free chain).  lambda_J is
    the dimensionless hopping-modulation strength, T_period the integer
    modulation period and phi_J the modulation phase in radians.  flavor
    selects between the ZZ-only spin Hamiltonian ("paper-literal") and the
    faithful number-operator interaction ("exact-jw").
    """

    J: float = 1.0
    lambda_J: float = 0.0
    T_period: int = 2
    phi_J: float = 0.0
    V: float = 0.0
    L: int = 2
    flavor: str = field(default=FLAVOR_PAPER_LITERAL)

    def __post_init__(self) -> None:
        for name in ("L", "T_period"):
            if not is_number(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (2 <= self.L <= MAX_INDEX_SITES):
            raise ValueError(f"L must be in [2, {MAX_INDEX_SITES}], got {self.L}")
        if self.T_period < 1:
            raise ValueError(f"T_period must be a positive integer, got {self.T_period}")
        for name in ("J", "lambda_J", "phi_J", "V", "T_period"):
            if not is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")


def is_number(x, kind=numbers.Real) -> bool:
    """An instance of kind that is not a bool; numpy numbers count, numpy bools do not."""
    return isinstance(x, kind) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """A number (is_number) that is finite as a float: not NaN, not +-inf, and not an
    int beyond the float range (math.isfinite raises OverflowError on those)."""
    return is_number(x) and abs(x) <= sys.float_info.max


def bond_coefficient(params: ModelParams, b: int) -> float:
    """Hopping amplitude of bond b (connecting sites b and b+1).

    Evaluates J * [1 + lambda_J * cos(2*pi*(b+1)/T_period + phi_J)]; the
    cosine argument uses the 1-based bond index.
    """
    if not 0 <= b <= params.L - 2:
        raise IndexError(f"bond index {b} out of range [0, {params.L - 2}]")
    arg = 2.0 * math.pi * (b + 1) / params.T_period + params.phi_J
    return params.J * (1.0 + params.lambda_J * math.cos(arg))


def bond_profile(params: ModelParams) -> list[float]:
    """All L-1 bond coefficients, in site order."""
    return [bond_coefficient(params, b) for b in range(params.L - 1)]
