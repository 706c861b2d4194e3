"""Angles modulo 2*pi, exact when possible.

A phase is either an exact rational multiple of pi (kept as a
``Fraction`` of pi, normalised into [0, 2)) or a plain radian value in
[0, 2*pi).  Exact phases keep the Clifford+T fragment closed under
addition; radian phases appear once a rewrite produces an angle with no
rational form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

TWO_PI = 2.0 * math.pi

#: absolute tolerance (mod 2*pi) for comparing radian-valued phases
DEFAULT_PHASE_TOL = 1e-9


@dataclass(frozen=True)
class Phase:
    """An angle, exact (``frac`` * pi) or approximate (``rad`` radians).

    Exactly one of ``frac`` and ``rad`` is set.  Use :meth:`exact` and
    :meth:`approx` rather than the raw constructor.
    """

    frac: Fraction | None = None
    rad: float | None = None

    def __post_init__(self) -> None:
        if (self.frac is None) == (self.rad is None):
            raise ValueError("phase needs exactly one of frac or rad")
        if self.frac is not None:
            object.__setattr__(self, "frac", self.frac % 2)
        else:
            try:
                r = float(self.rad)
            except OverflowError:  # an integer too large for a float
                r = math.inf
            if not math.isfinite(r):
                raise ValueError(f"radian phase must be finite, got {r!r}")
            r %= TWO_PI
            if r >= TWO_PI:  # float modulo can land on the boundary
                r = 0.0
            object.__setattr__(self, "rad", r)

    @classmethod
    @functools.lru_cache(maxsize=1024, typed=True)
    def exact(cls, num: int, den: int = 1) -> "Phase":
        """The phase (num/den) * pi.  Phases are frozen, so equal arguments
        share one instance from a bounded cache; an error is not cached."""
        return cls(frac=Fraction(num, den))

    @classmethod
    def approx(cls, radians: float) -> "Phase":
        """A plain radian phase, normalised into [0, 2*pi)."""
        return cls(rad=radians)

    @classmethod
    def zero(cls) -> "Phase":
        return cls.exact(0)

    @classmethod
    def pi(cls) -> "Phase":
        return cls.exact(1)

    @property
    def is_exact(self) -> bool:
        return self.frac is not None

    @property
    def numerator(self) -> int:
        assert self.frac is not None, "approximate phase has no numerator"
        return self.frac.numerator

    @property
    def denominator(self) -> int:
        assert self.frac is not None, "approximate phase has no denominator"
        return self.frac.denominator

    @property
    def radians(self) -> float:
        if self.frac is not None:
            return float(self.frac) * math.pi
        assert self.rad is not None
        return self.rad

    @property
    def is_clifford_t(self) -> bool:
        """True for exact multiples of pi/4."""
        return self.frac is not None and 4 % self.frac.denominator == 0

    def equals_exact(self, num: int, den: int = 1) -> bool:
        """True iff this is the exact phase (num/den) * pi.

        ``frac`` = p/q is already reduced mod 2, so this asks whether
        p/q - num/den is an even integer, in integers only.
        """
        if self.frac is None:
            return False
        p, q = self.frac.numerator, self.frac.denominator
        return (p * den - num * q) % (2 * q * den) == 0

    @property
    def is_zero(self) -> bool:
        return self.frac is not None and self.frac == 0

    @property
    def is_pi(self) -> bool:
        return self.frac is not None and self.frac == 1

    def __add__(self, other: "Phase") -> "Phase":
        if self.frac is not None and other.frac is not None:
            return Phase(frac=self.frac + other.frac)
        return Phase(rad=self.radians + other.radians)

    def __neg__(self) -> "Phase":
        if self.frac is not None:
            return Phase(frac=-self.frac)
        return Phase(rad=-self.radians)

    def __sub__(self, other: "Phase") -> "Phase":
        return self + (-other)

    def close_to(self, other: "Phase", tol: float = DEFAULT_PHASE_TOL) -> bool:
        """Circular distance at most ``tol`` (species-agnostic)."""
        return circular_distance(self.radians, other.radians) <= tol

    def __repr__(self) -> str:
        if self.frac is not None:
            return f"Phase.exact({self.frac.numerator}, {self.frac.denominator})"
        return f"Phase.approx({self.rad!r})"


def parse_phase(text: str) -> Phase:
    """Parse ``p/d`` ((p/d)*pi, d > 0) or ``f:<float>`` (plain radians).

    Raises ``ValueError`` on anything else, on a denominator that is not
    positive and on a non-finite radian value.
    """
    if text.startswith("f:"):
        try:
            rad = float(text[2:])
        except ValueError:
            raise ValueError(f"bad float phase {text!r}") from None
        return Phase.approx(rad)
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        try:
            num, den = int(num_s), int(den_s)
        except ValueError:
            raise ValueError(f"bad rational phase {text!r}") from None
        if den <= 0:
            raise ValueError("phase denominator must be positive")
        return Phase.exact(num, den)
    raise ValueError(f"bad phase {text!r} (want p/d or f:<float>)")


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)
