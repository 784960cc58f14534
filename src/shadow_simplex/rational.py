"""Small exact-arithmetic helpers shared across the package.

Everything here works on `fractions.Fraction` / Python ints so downstream
code can rely on zero rounding.  The helpers read each entry once as its
integer ratio and compute on ints: `dot` forms one integer sum and one
`Fraction` of it, and `fraction` takes small integral values from the
shared `SMALL_INTEGRAL`.  Square roots are irrational in general; where a
near-unit or upper/lower rational stand-in is good enough we round an
integer square root at `SQRT_BITS` of precision (relative error below
2**-60, far inside every tolerance in the test suite).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

SQRT_BITS = 64

# Fraction(k) for the integers k in [-256, 256], built once and shared, as
# Python shares its small ints: Fractions are immutable, and the vertices of
# totally unimodular LPs are integral, so a caller that keeps many answers
# keeps no copy of these coordinates
SMALL_INTEGRAL = tuple(Fraction(k) for k in range(-256, 257))
ONE = SMALL_INTEGRAL[257]  # the factor of every primitive integral row


def norm_sq(vec: Sequence[Fraction]) -> Fraction:
    return dot(vec, vec)


def dot(u: Sequence, v: Sequence) -> Fraction:
    """sum_i u_i v_i, the entries Fractions or ints, as one integer sum:
    each entry is read once as its integer ratio, zero products are
    skipped, and the terms are put over the lcm of their denominators,
    which is 1 for integral vectors; one `fraction` reduces the sum."""
    num, den = 0, 1
    for a, b in zip(u, v):
        p, q = a.as_integer_ratio()
        if not p:
            continue
        r, t = b.as_integer_ratio()
        if not r:
            continue
        q *= t
        if den % q:
            k = q // gcd(den, q)
            num, den = num * k, den * k
        num += p * r * (den // q)
    return fraction(num, den)


def unit_scale(vec: Sequence[Fraction]) -> Fraction:
    """Rational t ~ 1/||vec|| with ||t*vec|| <= 1 (floor rounding).

    The floor direction is deliberate: scaled rows never exceed unit norm,
    which keeps perturbed objectives inside [-1,1]^n and bounding boxes
    strict.  Inexact norms produce power-of-two denominators so scale
    factors from different rows and columns share structure instead of
    compounding through lcm clearing.
    """
    s = norm_sq(vec)
    if s == 0:
        raise ValueError("cannot scale a zero vector")
    return Fraction(*unit_scale_pq(s.numerator, s.denominator))


def unit_scale_pq(p: int, q: int) -> tuple[int, int]:
    """unit_scale for a squared norm given as p/q (p, q positive ints), as
    its (numerator, denominator) in lowest terms."""
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        a, b = rq, rp
    else:
        # precision scaled to the magnitude of the norm keeps the relative
        # error near 2**-SQRT_BITS for vectors of any size; power-of-two
        # denominators share structure instead of compounding through lcm
        e = max((p.bit_length() - q.bit_length()) // 2 + 1, 0)
        k = SQRT_BITS + e
        a, b = isqrt((q << (2 * k)) // p), 1 << k
    g = gcd(a, b)
    return a // g, b // g


def primitive_int_row(row: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """Scale a rational row by a positive factor into coprime integers.

    Returns (integer row, factor) with int_row == factor * row.  Each entry
    is read once, as its integer ratio.  An integral row, the common case,
    is its numerators, with one gcd, and a primitive one gets the shared
    factor `ONE`; any other is put over the lcm of its denominators, as
    `common_denominator` puts it.
    """
    nums, dens = zip(*[x.as_integer_ratio() for x in row])
    if max(dens) == 1:
        ints, den = list(nums), 1
    else:
        den = lcm(*dens)
        ints = [p * (den // q) for p, q in zip(nums, dens)]
    g = gcd(*ints)
    if g > 1:
        return [a // g for a in ints], Fraction(den, g)
    return ints, ONE if den == 1 else Fraction(den)


def common_denominator(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """Represent a rational vector as (integer numerators, shared den > 0)."""
    den = 1
    for x in vec:
        d = x.denominator
        if den % d:
            den = den * d // gcd(den, d)
    return [x.numerator * (den // x.denominator) for x in vec], den


def fraction(p: int, q: int) -> Fraction:
    """Fraction(p, q), q > 0, from `SMALL_INTEGRAL` when it is one of them."""
    k, r = divmod(p, q)
    if not r and -256 <= k <= 256:
        return SMALL_INTEGRAL[k + 256]
    return Fraction(p, q)


def lowest_terms(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """The rational vector nums / den (den > 0) with the common gcd of its
    numerators and den stripped: the pair `common_denominator` gives."""
    g = gcd(den, *nums)
    if g > 1:
        return [x // g for x in nums], den // g
    return list(nums), den


def format_fraction(x: Fraction) -> str:
    """Canonical reduced text form: 'p' or 'p/q'."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def as_fractions(vec: Iterable) -> list[Fraction]:
    return [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
