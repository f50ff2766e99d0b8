"""Koszul homology over rational polynomial rings, at rational points.

Evaluating K(f_1..f_k) at a rational point p is base change to the
residue field kappa(p) = Q, the reduction the paper's parametrization
rests on.  Over a field the Koszul complex on a_1..a_k is exact as soon
as some a_i is nonzero, since every a_i annihilates Koszul homology and
a nonzero a_i is a unit; if every a_i is zero its differentials vanish.
So

    dim H_n(K(f) (x) kappa(p)) = binom(k, n) if f_1(p) = ... = f_k(p) = 0,
                                 and 0 otherwise

(Eisenbud, Commutative Algebra, section 17; Bruns-Herzog, Cohen-Macaulay
Rings, section 1.6).  Tensoring with a module over the same field multiplies
each H_n by its dimension vector, as rank(d (x) I_dv) = dv * rank(d).
`koszul_homology` evaluates the generators exactly and reads the answer
off the theorem; the symbolic complex, its differentials and their ranks
are the tests' oracle, in tests/koszul_oracle.py.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import add

from .value import Value

# The most variables, and the most generators, `koszul` accepts.  Every
# generator is a dense exponent tuple over all the variables.
MAX_KOSZUL_INPUTS = 64


class PolyRing(Value):
    """A polynomial ring over the rationals with named variables."""

    __slots__ = ("variables",)

    def __init__(self, variables: tuple[str, ...]):
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not v.isidentifier():
                raise ValueError(f"bad variable name {v!r}")
        object.__setattr__(self, "variables", variables)

    @property
    def nvars(self) -> int:
        return len(self.variables)


class Poly(Value):
    """A polynomial: sorted (exponents, coefficient) terms, extras
    stripped."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        merged: dict = {}
        for raw_exps, raw_c in terms:
            exps = tuple(int(e) for e in raw_exps)
            if len(exps) != ring.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r}")
            merged[exps] = merged.get(exps, Fraction(0)) + Fraction(raw_c)
        cleaned = tuple((e, c) for e, c in merged.items() if c != 0)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", tuple(sorted(cleaned)))

    @staticmethod
    def const(ring: PolyRing, value) -> "Poly":
        return Poly(ring, (((0,) * ring.nvars, Fraction(value)),))

    @staticmethod
    def zero(ring: PolyRing) -> "Poly":
        return Poly(ring, ())

    @staticmethod
    def variable(ring: PolyRing, name: str) -> "Poly":
        if name not in ring.variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(
            1 if v == name else 0 for v in ring.variables
        )
        return Poly(ring, ((exps, Fraction(1)),))

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")
        acc: dict = dict(self.terms)
        for exps, c in other.terms:
            acc[exps] = acc.get(exps, Fraction(0)) + sign * c
        return Poly(self.ring, tuple(acc.items()))

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return Poly(self.ring, tuple(acc.items()))

    def __pow__(self, n: int) -> "Poly":
        """self^n in one pass: each monomial of the expansion is a
        multiset of n terms, weighted by its multinomial coefficient, on
        the terms' integer numerators over their common denominator."""
        if n == 1:
            return self
        terms = self.terms
        den = lcm(*(c.denominator for _, c in terms))
        nums = [c.numerator * (den // c.denominator) for _, c in terms]
        ways = factorial(n)
        acc: dict = {}

        def pick(start, left, exps, coeff, run, repeats):
            # terms[start] was picked last, run times so far; repeats is
            # the product of the factorials of the counts of each term, so
            # ways // repeats is the multinomial coefficient at a leaf
            if not left:
                acc[exps] = acc.get(exps, 0) + ways // repeats * coeff
                return
            for j in range(start, len(terms)):
                r = run + 1 if j == start else 1
                pick(j, left - 1, tuple(map(add, exps, terms[j][0])),
                     coeff * nums[j], r, repeats * r)

        pick(0, n, (0,) * self.ring.nvars, 1, 0, 1)
        scale = den ** n
        return Poly(self.ring, tuple((e, Fraction(c, scale)) for e, c in acc.items()))

    def scale(self, value) -> "Poly":
        v = Fraction(value)
        return Poly(self.ring, tuple((e, c * v) for e, c in self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def evaluate(self, point) -> Fraction:
        coords = _point_coords(self.ring, point)
        total = Fraction(0)
        for exps, c in self.terms:
            value = c
            for x, e in zip(coords, exps):
                if e:
                    value *= x**e
            total += value
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in reversed(self.terms):
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.variables, exps)
                if e
            ]
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            chunks.append(("- " if c < 0 else "+ ") + body)
        first = chunks[0].removeprefix("+ ")
        if first.startswith("- "):
            first = "-" + first[2:]
        return " ".join([first] + chunks[1:])


class RationalPoint(Value):
    """A point with exact rational coordinates."""

    __slots__ = ("coordinates",)

    def __init__(self, coordinates: tuple):
        object.__setattr__(self, "coordinates", tuple(Fraction(x) for x in coordinates))


def _point_coords(ring: PolyRing, point):
    coords = point.coordinates if isinstance(point, RationalPoint) else tuple(point)
    coords = tuple(Fraction(x) for x in coords)
    if len(coords) != ring.nvars:
        raise ValueError(
            f"point has {len(coords)} coordinates, ring has {ring.nvars} variables"
        )
    return coords


def koszul_homology(ring: PolyRing, gens, point) -> list:
    """dim H_n of K(gens) at a rational point, for n = 0..k, by the
    theorem in the module docstring."""
    if any(f.ring != ring for f in gens):
        raise ValueError("polynomial from a different ring")
    coords = _point_coords(ring, point)
    vanish = not any(f.evaluate(coords) for f in gens)
    k = len(gens)
    return [comb(k, n) if vanish else 0 for n in range(k + 1)]
