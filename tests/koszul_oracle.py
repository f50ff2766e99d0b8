"""The symbolic Koszul complex: the slow reference for `koszul`.

The library answers Koszul homology at a rational point by the theorem
(see thicklat.koszul).  This module keeps the complex it replaced, so
the tests can compare the two: polynomial differentials, evaluation at
the point, and homology by exact rank.

Complexes are graded homologically: differentials lower the degree by
one, and the cone on a scalar f sits in degrees 1 and 0.

`koszul_complex` builds K(f_1..f_k) in one pass on the exterior basis,
e_S for each n-subset S in degree n, with d(e_S) = sum over j in S of
(-1)^pos(j, S) f_j e_{S - j}, where pos(j, S) counts the members of S
below j (Eisenbud, Commutative Algebra, 17.2).  The basis order is the
one the fold of `tensor` over the cones gives, entry for entry.  Both
d o d = 0 checks, symbolic in FreeComplex and evaluated in
EvaluatedComplex, multiply only nonzero entries: at most k per column
of a Koszul differential.  Over a field rank(d (x) I_dv) = dv * rank(d), so
module homology is dim H_n times the dimension vector; `kron` gives the
matrices to check that against.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from thicklat.koszul import Poly, PolyRing, _point_coords
from thicklat.linalg import QQ, rank
from thicklat.quiver_rep import TreeModule


def _composite_is_zero(below, above) -> bool:
    """Whether the matrix product below @ above is zero, multiplying
    only the nonzero entries of each factor.  Entries are Polys,
    Fractions or ints; each is false exactly when it is zero."""
    column_of_below = defaultdict(list)
    for i, row in enumerate(below):
        for k, x in enumerate(row):
            if x:
                column_of_below[k].append((i, x))
    acc: dict = {}
    for k, row in enumerate(above):
        for j, y in enumerate(row):
            if y:
                for i, x in column_of_below[k]:
                    key = (i, j)
                    acc[key] = acc[key] + x * y if key in acc else x * y
    return not any(acc.values())


@dataclass(frozen=True)
class FreeComplex:
    """A bounded complex of free modules with polynomial differentials.

    ranks maps degree -> rank; diffs[n] is the matrix of d_n: C_n ->
    C_{n-1}, with shape ranks[n-1] x ranks[n].  d o d = 0 is checked
    symbolically on construction, over the nonzero entries only.
    """

    ring: PolyRing
    ranks: tuple
    diffs: tuple

    def __post_init__(self):
        ranks = dict(self.ranks)
        diffs = dict(self.diffs)
        object.__setattr__(self, "ranks", tuple(sorted(ranks.items())))
        object.__setattr__(self, "diffs", tuple(sorted(diffs.items())))
        for n, mat in diffs.items():
            expect_rows = ranks.get(n - 1, 0)
            expect_cols = ranks.get(n, 0)
            if len(mat) != expect_rows or any(
                len(row) != expect_cols for row in mat
            ):
                raise ValueError(f"differential at degree {n} has wrong shape")
        for n, mat in diffs.items():
            below = diffs.get(n - 1)
            if below is not None and not _composite_is_zero(below, mat):
                raise ValueError(f"d o d != 0 between degrees {n} and {n - 2}")

    def rank_map(self) -> dict:
        return dict(self.ranks)

    def diff_map(self) -> dict:
        return dict(self.diffs)

    def degrees(self) -> tuple:
        return tuple(sorted(n for n, r in self.ranks if r))


def unit_complex(ring: PolyRing) -> FreeComplex:
    """The ring itself, concentrated in degree 0."""
    return FreeComplex(ring, ((0, 1),), ())


def cone_of_scalar(ring: PolyRing, f: Poly) -> FreeComplex:
    """The two term complex R -> R given by multiplication by f, with
    the source placed in degree 1."""
    if f.ring != ring:
        raise ValueError("polynomial from a different ring")
    return FreeComplex(ring, ((0, 1), (1, 1)), ((1, ((f,),)),))


def tensor(c: FreeComplex, d: FreeComplex) -> FreeComplex:
    """Tensor product of complexes with Koszul signs.

    Degree n collects the blocks C_i (x) D_j with i + j = n, ordered by
    ascending i; the differential is d_C (x) 1 + (-1)^i 1 (x) d_D.
    """
    if c.ring != d.ring:
        raise ValueError("complexes over different rings")
    ring = c.ring
    cr, dr = c.rank_map(), d.rank_map()
    cd, dd = c.diff_map(), d.diff_map()
    zero = Poly.zero(ring)

    def identity(size):
        return [
            [Poly.const(ring, int(a == b)) for b in range(size)]
            for a in range(size)
        ]

    def blocks(n):
        return [
            (i, n - i)
            for i in sorted(cr)
            if cr.get(i, 0) and dr.get(n - i, 0)
        ]

    degrees = sorted(
        {i + j for i in cr for j in dr if cr[i] and dr[j]}
    )
    ranks = {n: sum(cr[i] * dr[j] for i, j in blocks(n)) for n in degrees}
    diffs = {}
    for n in degrees:
        if n - 1 not in ranks:
            continue
        src = blocks(n)
        dst = blocks(n - 1)
        dst_offsets = {}
        off = 0
        for i, j in dst:
            dst_offsets[(i, j)] = off
            off += cr[i] * dr[j]
        rows = ranks[n - 1]
        cols = ranks[n]
        mat = [[zero] * cols for _ in range(rows)]

        def paste(r0, c0, block):
            for rr, row in enumerate(block):
                for cc, val in enumerate(row):
                    if val:
                        mat[r0 + rr][c0 + cc] = mat[r0 + rr][c0 + cc] + val

        col_off = 0
        for i, j in src:
            width = cr[i] * dr[j]
            if (i - 1, j) in dst_offsets and i in cd:
                paste(
                    dst_offsets[(i - 1, j)],
                    col_off,
                    _kron_poly(ring, cd[i], identity(dr[j])),
                )
            if (i, j - 1) in dst_offsets and j in dd:
                signed = [
                    [x if i % 2 == 0 else -x for x in row] for row in dd[j]
                ]
                paste(
                    dst_offsets[(i, j - 1)],
                    col_off,
                    _kron_poly(ring, identity(cr[i]), signed),
                )
            col_off += width
        diffs[n] = tuple(tuple(row) for row in mat)
    return FreeComplex(ring, tuple(ranks.items()), tuple(diffs.items()))


def _kron_poly(ring, a, b):
    """Kronecker product of polynomial matrices."""
    if not a or not b:
        return ()
    out = []
    for arow in a:
        for brow in b:
            row = []
            for x in arow:
                for y in brow:
                    row.append(x * y)
            out.append(tuple(row))
    return tuple(out)


def koszul_complex(ring: PolyRing, gens) -> FreeComplex:
    """The Koszul complex on a sequence of polynomials, built directly
    on the exterior basis (see the module docstring).

    The n-subsets are ordered as the fold of `tensor` over the cones
    orders them: subsets holding the last generator first, recursively.
    """
    gens = tuple(gens)
    if any(f.ring != ring for f in gens):
        raise ValueError("polynomial from a different ring")
    k = len(gens)
    bases = [
        sorted(
            combinations(range(k), n),
            key=lambda s: tuple(i not in s for i in reversed(range(k))),
        )
        for n in range(k + 1)
    ]
    signed = [(f, -f) for f in gens]
    zero = Poly.zero(ring)
    diffs = []
    for n in range(1, k + 1):
        row_of = {s: r for r, s in enumerate(bases[n - 1])}
        mat = [[zero] * len(bases[n]) for _ in bases[n - 1]]
        for col, s in enumerate(bases[n]):
            for pos, j in enumerate(s):
                mat[row_of[s[:pos] + s[pos + 1:]]][col] = signed[j][pos % 2]
        diffs.append((n, tuple(map(tuple, mat))))
    ranks = tuple((n, len(basis)) for n, basis in enumerate(bases))
    return FreeComplex(ring, ranks, tuple(diffs))


@dataclass(frozen=True)
class EvaluatedComplex:
    """A complex of exact rational matrices; d o d = 0 revalidated over
    the nonzero entries."""

    ranks: tuple
    diffs: tuple

    def __post_init__(self):
        ranks = dict(self.ranks)
        diffs = dict(self.diffs)
        object.__setattr__(self, "ranks", tuple(sorted(ranks.items())))
        object.__setattr__(self, "diffs", tuple(sorted(diffs.items())))
        for n, mat in diffs.items():
            below = diffs.get(n - 1)
            if below is not None and not _composite_is_zero(below, mat):
                raise ValueError("d o d != 0 after evaluation")

    def rank_map(self) -> dict:
        return dict(self.ranks)

    def diff_map(self) -> dict:
        return dict(self.diffs)


def evaluate(complex_: FreeComplex, point) -> EvaluatedComplex:
    """Evaluate every differential entry at a rational point; zero
    entries map to zero without evaluation."""
    coords = _point_coords(complex_.ring, point)
    zero = Fraction(0)
    diffs = {}
    for n, mat in complex_.diff_map().items():
        diffs[n] = tuple(
            tuple(x.evaluate(coords) if x else zero for x in row) for row in mat
        )
    return EvaluatedComplex(complex_.ranks, tuple(diffs.items()))


def homology_dims(evaluated: EvaluatedComplex) -> dict:
    """Dimension of homology at each degree with a nonzero term."""
    ranks = evaluated.rank_map()
    diffs = evaluated.diff_map()

    def matrix_rank(n):
        mat = diffs.get(n)
        if mat is None or not mat or not mat[0]:
            return 0
        return rank(QQ, mat)

    out = {}
    for n in sorted(ranks):
        if ranks[n] == 0:
            continue
        out[n] = ranks[n] - matrix_rank(n) - matrix_rank(n + 1)
        if out[n] < 0:
            raise RuntimeError("negative homology dimension")
    return out


def koszul_tensor_module(
    complex_: FreeComplex, module: TreeModule, point
) -> tuple:
    """Homology dimension vectors of the evaluated complex tensored with
    a tree module, per degree.

    Per vertex v the degree n space is C_n (x) M_v and the differential
    acts as d (x) identity, whose rank over a field is dim M_v times
    rank(d).  So each vector is dim H_n times the module's dimension
    vector, which is asserted.
    """
    homology = homology_dims(evaluate(complex_, point))
    out = tuple(
        (n, tuple(h * dv for dv in module.dim))
        for n, h in sorted(homology.items())
    )
    for n, vec in out:
        multiples = {
            value // dv
            for value, dv in zip(vec, module.dim)
            if dv
        }
        ok = len(multiples) == 1 and all(
            value == next(iter(multiples)) * dv
            for value, dv in zip(vec, module.dim)
        )
        if not ok:
            raise RuntimeError(
                f"homology vector {vec} is not a multiple of {module.dim}"
            )
    return out


def kron(a, b):
    """Kronecker product of matrices over ints / Fractions."""
    if not a or not a[0]:
        return ()
    brows = len(b)
    out = []
    for arow in a:
        for i in range(brows):
            row = []
            for x in arow:
                row.extend(x * y for y in b[i])
            out.append(tuple(row))
    return tuple(out)
