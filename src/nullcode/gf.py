"""GF(2^s) arithmetic with explicit modulus polynomials.

Field elements are plain integers in [0, 2^s): bit i holds the coefficient
of x^i in the polynomial basis.  Addition is XOR; multiplication reduces
modulo a configured irreducible polynomial, encoded as an (s+1)-bit integer
mask with the x^0 coefficient at the least-significant bit, and is read
from exp/log tables built once per field.

A :class:`FieldCtx` is immutable after construction and all operations are
pure, so contexts can be shared freely between workers.  The package's
exact parameter readers live here too: `json_int` and `exact`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainMismatch, InvOfZero

# Default irreducible polynomials, one per supported extension degree.
# Bit i of the mask is the coefficient of x^i (bit s is always set).
DEFAULT_MODULI = {
    1: 0b11,              # x + 1
    2: 0b111,             # x^2 + x + 1
    4: 0b10011,           # x^4 + x + 1
    6: 0b1000011,         # x^6 + x + 1
    8: 0b100011101,       # x^8 + x^4 + x^3 + x^2 + 1
    12: 0b1000001010011,  # x^12 + x^6 + x^4 + x + 1
}

_FIELD_LIMIT = 1 << 16  # largest field size; its exp/log tables hold 5 * 2^16 entries


def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_deg(m)
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _poly_mulmod(a: int, b: int, m: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a = _poly_mod(a << 1, m)
    return out


def _is_irreducible(m: int) -> bool:
    """Trial division over F_2: no polynomial of degree 1 to s/2 divides
    the degree-s mask m."""
    s = _poly_deg(m)
    return s >= 1 and all(_poly_mod(m, d) for d in range(2, 1 << (s // 2 + 1)))


class FieldCtx:
    """Arithmetic context for GF(2^s), q = 2^s <= 2^16.

    The exp/log tables of the smallest generator are the arithmetic:
    products, inverses and orders are table reads.

    Parameters
    ----------
    s : int
        Extension degree; the field has q = 2^s elements.
    modulus : int or None
        Irreducible polynomial mask.  Bit i is the coefficient of x^i and
        bit s must be the highest set bit; any other integer raises
        ValueError.  ``None`` selects the shipped default for
        s in {1, 2, 4, 6, 8, 12}.
    """

    def __init__(self, s: int, modulus: int | None = None):
        if s < 1:
            raise ValueError(f"extension degree must be >= 1, got {s}")
        if s > _FIELD_LIMIT.bit_length() - 1:  # before 1 << s, which a huge s cannot build
            raise ValueError(f"GF(2^{s}) has more than {_FIELD_LIMIT} elements")
        if modulus is None:
            if s not in DEFAULT_MODULI:
                raise ValueError(
                    f"no default modulus for s={s}; supply one explicitly "
                    f"(defaults exist for {sorted(DEFAULT_MODULI)})"
                )
            modulus = DEFAULT_MODULI[s]
        if modulus >> s != 1:  # bit s is the highest set bit, so modulus > 0
            raise ValueError(f"modulus {modulus:#b} does not have degree {s}")
        if not _is_irreducible(modulus):
            raise ValueError(f"modulus 0b{modulus:b} is reducible over F_2")
        self.s = s
        self.modulus = modulus
        self.q = 1 << s
        self._build_tables()

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.s, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(s={self.s}, modulus=0b{self.modulus:b})"

    # -- core arithmetic ---------------------------------------------------

    def check_element(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise DomainMismatch(f"{a!r} is not an element of GF(2^{self.s})")
        return int(a)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return int(self.exp_np[self.log_np[a] + self.log_np[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise InvOfZero("zero has no multiplicative inverse")
        return int(self.exp_np[self.q - 1 - self.log_np[a]])

    def trace(self, x: int) -> int:
        """Absolute trace to F_2: x + x^2 + x^4 + ... + x^(2^(s-1))."""
        t = 0
        acc = x
        for _ in range(self.s):
            t ^= acc
            acc = self.mul(acc, acc)
        if t not in (0, 1):
            raise AssertionError("trace left the prime field")
        return t

    def element_order(self, a: int) -> int:
        if a == 0:
            raise InvOfZero("zero has no multiplicative order")
        return (self.q - 1) // math.gcd(int(self.log_np[a]), self.q - 1)

    # -- generator and tables ----------------------------------------------

    def generator(self) -> int:
        """Smallest-valued element of multiplicative order q-1."""
        return int(self.exp_np[1])

    def _build_tables(self) -> None:
        """Walk the powers of g = 1, 2, 3, ... until one returns to 1 only
        after q-1 steps: that g is the smallest generator and its powers
        are the exp table.

        The exp table holds two periods, so exp[log[a] + log[b]] needs no
        reduction.  log[0] is a sentinel pointing into the zero-padded
        tail of the exp table, so the same read gives 0 when a or b is 0.
        """
        period = self.q - 1
        for g in range(1, self.q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = _poly_mulmod(x, g, self.modulus)
            if len(powers) == period:
                break
        exp = np.zeros(4 * self.q, dtype=np.int64)
        exp[:period] = exp[period : 2 * period] = powers
        log = np.full(self.q, 2 * period, dtype=np.int64)
        log[powers] = np.arange(period)
        self.exp_np = exp
        self.log_np = log

    def to_json(self) -> dict:
        return {"s": self.s, "modulus": self.modulus}

    @classmethod
    def from_json(cls, data: dict) -> "FieldCtx":
        return cls(json_int(data["s"], "s"), json_int(data["modulus"], "modulus"))


def json_int(value, name: str) -> int:
    """The integer value of the JSON field name; a float, string or bool
    raises TypeError, where int() would truncate or parse it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def exact(value) -> Fraction:
    """value as an exact rational: a Python or numpy float is the decimal its
    repr prints (0.1 is 1/10, not 3602879701896397/2^55), a Fraction itself,
    a numpy integer its int, and anything else Fraction(value) ("1/3")."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, np.floating)):
        return _decimal(value)
    if isinstance(value, np.integer):
        value = int(value)
    return Fraction(value)


@lru_cache(maxsize=256)
def _decimal(value) -> Fraction:
    # keyed on the value: a numpy float equals the float it converts to
    return Fraction(repr(float(value)))


# -- functional surface ------------------------------------------------------


def trace(ctx: FieldCtx, x: int) -> int:
    return ctx.trace(ctx.check_element(x))
