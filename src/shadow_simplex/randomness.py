"""Random draws: objective perturbation, cone weights, and dyadic bit mode.

Every draw is a dyadic rational j/2^k built from one fresh 1024-bit
underlying uniform integer x.  A draw of k <= 1024 bits truncates x (the map
x -> floor(x*2^k)/2^k), so runs with different bit counts but the same seed
see bitwise-matching prefixes as long as every draw is that narrow: the
i-th draws of two such runs agree in their first min(k, k') bits.  A draw
of k > 1024 bits, which the dyadic bit budget asks for on large faces, is
x followed by k - 1024 further low-order bits from the same generator.  Its
first 1024 bits are still the x of that draw, but it takes more of the
generator than a narrow draw does, so every later draw of the run sees
other underlying integers.  "Continuous" mode is the k = 53 case, which
makes it reproducible across platforms and exactly representable, so all
downstream arithmetic stays rational.

The stream hands out the integer numerator j of each draw, and the round
loop stays in integers: `perturb_objective` and `draw_lambda` take the bit
count k of their draws and return numerators over one common denominator,
which the driver lifts and the walk's `Tableau.aim` takes as they are.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .rational import SQRT_BITS, as_fractions, norm_sq

UNDERLYING_BITS = 1024
CONTINUOUS_BITS = 53

MODE_FLOAT = "float"
MODE_DYADIC = "dyadic"


class RandomnessError(ValueError):
    pass


@dataclass(frozen=True)
class RngConfig:
    seed: int
    mode: str = MODE_FLOAT
    bits_per_draw: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in (MODE_FLOAT, MODE_DYADIC):
            raise RandomnessError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_DYADIC and self.bits_per_draw is not None:
            if self.bits_per_draw < 1:
                raise RandomnessError("bits_per_draw must be >= 1")


@dataclass(frozen=True)
class PerturbedObjective:
    """The perturbed objective c and the interval each coordinate was drawn
    in, as numerators over the one denominator den > 0."""

    c: tuple[int, ...]
    intervals: tuple[tuple[int, int], ...]
    den: int


class DrawStream:
    """Single-owner stream of dyadic unit draws with bit accounting."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.bits_consumed = 0
        self.draws = 0

    def numerator(self, bits: int) -> int:
        """The numerator j of a uniform draw j/2^bits on [0, 1), exact: the
        top bits of one underlying draw, extended by further low-order bits
        past `UNDERLYING_BITS`."""
        if bits < 1:
            raise RandomnessError("bits must be >= 1")
        x = self._rng.getrandbits(UNDERLYING_BITS)
        self.bits_consumed += bits
        self.draws += 1
        extra = bits - UNDERLYING_BITS
        if extra > 0:
            return x << extra | self._rng.getrandbits(extra)
        return x >> -extra


def bit_budget(m: int, n: int, phi, delta) -> int:
    """Bits per draw sufficient for the discrete mode to track continuous walks."""
    if m < 1 or n < 1:
        raise RandomnessError("m and n must be positive")
    phi = float(phi)
    delta = float(delta)
    if phi <= 0 or not 0 < delta <= 1:
        raise RandomnessError("need phi > 0 and delta in (0, 1]")
    return math.ceil(
        6 * n * math.log2(m) + 6 * math.log2(n) + 3 * math.log2(phi) + 3 * math.log2(1 / delta) + 12
    )


def delta_hat(n: int, phi: Fraction) -> float:
    """Schedule-driven stand-in for delta when it is unknown: min(1, 2 n^{3/2}/phi),
    sqrt(n) rounded up at SQRT_BITS bits as `ratsqrt_ceil` of
    tests/reference.py rounds it, as the float nearest to that rational.  It
    is formed from integers: int true division rounds correctly, as float()
    of the Fraction does."""
    p = 2 * n * (math.isqrt(n << 2 * SQRT_BITS) + 1) * phi.denominator
    q = phi.numerator << SQRT_BITS
    return 1.0 if p >= q else p / q


def perturb_objective(c0, phi, bits: int, stream: DrawStream) -> PerturbedObjective:
    """Componentwise uniform perturbation of a near-unit c0 inside length-1/phi
    intervals, in integers.

    c0 is an (integer numerators, denominator > 0) pair; the caller has
    checked that it is near-unit.  Interval placement: [c0_i - 1/phi, c0_i]
    when c0_i sits above 1 - 1/phi, else [c0_i, c0_i + 1/phi]; both stay
    inside [-1, 1].  With 1/phi = wn / wd and k = bits per draw, everything
    is over den = c0's denominator * wd * 2^k, where the draw j_i adds
    wn * den_c0 * j_i.
    """
    a, d0 = c0
    n = len(a)
    phi = Fraction(phi)
    if float(phi) ** 2 < n * (1 - 1e-10):
        raise RandomnessError("phi must be at least sqrt(n)")
    wn, wd = phi.denominator, phi.numerator
    step = wn * d0  # 1/phi over den, per unit of j
    width = step << bits
    top = (wd - wn) * d0  # c0_i > 1 - 1/phi exactly when a_i wd > top
    intervals = []
    c = []
    for ai in a:
        lo = (ai * wd << bits) - (width if ai * wd > top else 0)
        intervals.append((lo, lo + width))
        c.append(lo + step * stream.numerator(bits))
    return PerturbedObjective(c=tuple(c), intervals=tuple(intervals), den=d0 * wd << bits)


def draw_lambda(n: int, bits: int, stream: DrawStream) -> tuple[list[int], int]:
    """n independent uniforms on (0, 1] (1 minus a [0,1) dyadic draw of
    bits bits), as numerators over their one denominator 2^bits."""
    den = 1 << bits
    return [den - stream.numerator(bits) for _ in range(n)], den


def cone_objective(tight_rows, lam) -> list[Fraction]:
    """w = -sum lambda_k u_k: the start vertex minimizes w^T x over the polytope.

    The rows must be independent and near-unit.  This is the face-coordinate
    form of a round's cone objective, with lam as Fractions; the driver
    prices the same objective on the tableau's integer rows instead
    (`driver.lifted_cone_objective`, with each row's factor tau formed once
    per round), and the tests compare the two.
    """
    rows = [as_fractions(r) for r in tight_rows]
    lam = as_fractions(lam)
    n = len(rows)
    if len(lam) != n:
        raise RandomnessError("lambda length mismatch")
    if any(not 0 < l <= 1 for l in lam):
        raise RandomnessError("lambda coordinates must lie in (0, 1]")
    for r in rows:
        if abs(float(norm_sq(r)) - 1.0) > 3e-10:
            raise RandomnessError("tight rows must be unit norm")
    return [-sum((l * r[j] for l, r in zip(lam, rows)), Fraction(0)) for j in range(len(rows[0]))]
