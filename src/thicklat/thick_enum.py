"""Wide subcategories of Dynkin quiver representations.

A wide subcategory is closed under kernels, cokernels, and extensions.
Since every object decomposes into indecomposables indexed by positive
roots, a subcategory is recorded as the set of dimension vectors of the
indecomposables it contains.

Closures build no module beyond the indecomposables.  Perpendicular
categories of a hereditary algebra are wide (Geigle-Lenzing,
Perpendicular categories with applications to representations and
sheaves, J. Algebra 1991).  Every wide subcategory of a Dynkin quiver is
generated by an exceptional sequence, so it is the right perpendicular
category of its own left perpendicular category (Ingalls-Thomas,
Compositio 2009).  A set S has the left perpendicular category of the
subcategory it generates, so that subcategory is the right perpendicular
of the left perpendicular of S, read off one table of vanishing Hom and
Ext1 between indecomposables.  Every wide subcategory is the closure of
its simples, which are pairwise Hom-orthogonal bricks, so the
enumeration closes only Hom-orthogonal sets of indecomposables.

Each enumerated subcategory keeps its seed, which is the set of its
simples, and is sent to the element of NC(W, c) whose moved roots are
its dimension vectors (Ingalls-Thomas), found in the lattice by that
mask.  Three sides are computed independently of each other: NC(W, c)
from the quiver's Euler form (root_system), the subcategories from the
dimensions of Hom spaces over the field (quiver_rep.hom_table, each one
a rank), and the check of the bijection from Weyl matrices.
verify_bijection multiplies the reflections of each subcategory's
simples, in an order with no backward morphisms or extensions, and
checks that the product w has the number of simples as its reflection
length, lies below c, and has the subcategory's dimension vectors as its
moved roots.
"""
from __future__ import annotations

from functools import cached_property

from .linalg import int_identity, int_mat_mul
from .quiver_rep import DimVector, Quiver, _root_system_for, euler_form, hom_table
from .root_system import (
    NcLattice,
    WeylElement,
    _bits,
    coxeter_element,
    moved_roots,
    perp_closure,
    reflection_length,
    reflection_mats,
)
from .value import Value


class WideSubcategory(Value):
    """A wide subcategory, as the set of its indecomposables' dimension
    vectors."""

    __slots__ = ("quiver", "field", "dims")

    def __init__(self, quiver: Quiver, field, dims: frozenset):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)

    def sorted_dims(self) -> tuple[DimVector, ...]:
        return tuple(sorted(self.dims))


class BijectionReport(Value):
    __slots__ = (
        "quiver", "field_char", "thick_count", "nc_count",
        "is_bijective", "is_order_isomorphism", "failures",
    )

    def __init__(
        self,
        quiver: Quiver,
        field_char: int,
        thick_count: int,
        nc_count: int,
        is_bijective: bool,
        is_order_isomorphism: bool,
        failures: tuple[str, ...],
    ):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field_char", field_char)
        object.__setattr__(self, "thick_count", thick_count)
        object.__setattr__(self, "nc_count", nc_count)
        object.__setattr__(self, "is_bijective", is_bijective)
        object.__setattr__(self, "is_order_isomorphism", is_order_isomorphism)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return self.is_bijective and self.is_order_isomorphism and not self.failures


class _RepContext:
    """The Hom table of one quiver over one finite field, the
    perpendicular masks read off it, and the wide subcategories once
    enumerated."""

    def __init__(self, quiver: Quiver, field):
        if field.char == 0:
            raise ValueError(
                "subcategory enumeration needs a finite field; use GF(p)"
            )
        self.quiver = quiver
        self.field = field
        self.table = hom_table(quiver, field)
        self.roots = self.table.roots
        self.index = {d: i for i, d in enumerate(self.roots)}
        self.wides = None
        self.seeds = None

    @cached_property
    def lattice(self) -> NcLattice:
        """NC(W, c) for the Coxeter element of the quiver's orientation.
        Its roots are self.roots in the same order, so a mask over the
        indecomposables is also a mask over the moved roots."""
        rs = _root_system_for(self.quiver.dynkin)
        return NcLattice(rs, self.quiver)

    def hom(self, i: int, j: int) -> int:
        return self.table.hom[i][j]

    def ext(self, i: int, j: int) -> int:
        """dim Ext1(root i, root j) = dim Hom - <i, j> (hereditary)."""
        return self.hom(i, j) - euler_form(self.quiver, self.roots[i], self.roots[j])

    @cached_property
    def perp(self) -> tuple[list[int], list[int], list[int]]:
        """Bitmasks over the indecomposables, from Hom and Ext1 of every
        ordered pair: left[s] = {x : Hom(x, s) = 0 = Ext1(x, s)},
        right[y] = {z : Hom(y, z) = 0 = Ext1(y, z)}, and
        orth[i] = {j : Hom(i, j) = 0 = Hom(j, i)}."""
        n = len(self.roots)
        left, right, orth = [0] * n, [0] * n, [0] * n
        for a in range(n):
            for b in range(n):
                if self.hom(a, b) == 0:
                    if self.hom(b, a) == 0:
                        orth[a] |= 1 << b
                    if self.ext(a, b) == 0:
                        left[b] |= 1 << a
                        right[a] |= 1 << b
        return left, right, orth

    def mask_of_dims(self, dims) -> int:
        mask = 0
        for d in dims:
            mask |= 1 << self.index[d]
        return mask


_CONTEXTS: dict = {}


def _context(quiver: Quiver, field) -> _RepContext:
    key = (quiver, field)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = _RepContext(quiver, field)
    return _CONTEXTS[key]


def _close_mask(ctx: _RepContext, mask: int) -> int:
    """The wide subcategory generated by a mask of indecomposables, by
    perp_closure on the perpendicular masks of the Hom table."""
    left, right, _ = ctx.perp
    return perp_closure(left, right, mask)


def wide_closure(quiver: Quiver, field, seed) -> WideSubcategory:
    """Smallest wide subcategory containing the seed indecomposables:
    the right perpendicular category of their left perpendicular one
    (Geigle-Lenzing; Ingalls-Thomas).

    seed is an iterable of dimension vectors, each a positive root.
    """
    ctx = _context(quiver, field)
    mask = 0
    for d in seed:
        d = tuple(int(x) for x in d)
        if d not in ctx.index:
            raise ValueError(f"{d!r} is not a positive root of {quiver.dynkin}")
        mask |= 1 << ctx.index[d]
    closed = _close_mask(ctx, mask)
    dims = frozenset(
        ctx.roots[i] for i in range(len(ctx.roots)) if (closed >> i) & 1
    )
    return WideSubcategory(quiver, field, dims)


def _orthogonal_seed_masks(ctx: _RepContext):
    """All subsets of indecomposables with no morphisms either way
    between distinct members, by backtracking."""
    n = len(ctx.roots)
    _, _, orth = ctx.perp
    out = []

    def extend(start: int, allowed: int, mask: int):
        out.append(mask)
        for i in range(start, n):
            if (allowed >> i) & 1:
                extend(i + 1, allowed & orth[i], mask | (1 << i))

    extend(0, (1 << n) - 1, 0)
    return out


def thick_masks(quiver: Quiver, field) -> dict[int, int]:
    """The wide subcategories as masks over the indecomposables, each
    mapped to the mask of its simples.

    Only sets of indecomposables with no morphisms between distinct
    members are seeded: this reaches every subcategory, since each one
    is the closure of its simples, and Hom-orthogonal bricks are the
    simples of exactly one wide subcategory (Ringel).  So each
    subcategory has one seed, which is kept as its simples.
    """
    ctx = _context(quiver, field)
    if ctx.seeds is None:
        seeds = {}
        for seed in _orthogonal_seed_masks(ctx):
            closed = _close_mask(ctx, seed)
            if closed in seeds:
                raise RuntimeError("two Hom-orthogonal seeds close to one subcategory")
            seeds[closed] = seed
        ctx.seeds = seeds
    return ctx.seeds


def enumerate_thick(quiver: Quiver, field) -> tuple[WideSubcategory, ...]:
    """All wide subcategories, canonically ordered: the thick_masks as
    sets of dimension vectors."""
    ctx = _context(quiver, field)
    if ctx.wides is None:
        wides = [
            WideSubcategory(quiver, field, frozenset(ctx.roots[i] for i in _bits(mask)))
            for mask in thick_masks(quiver, field)
        ]
        wides.sort(key=lambda w: (len(w.dims), w.sorted_dims()))
        ctx.wides = tuple(wides)
    return ctx.wides


def simples_of(wide: WideSubcategory) -> tuple[DimVector, ...]:
    """The simples of a wide subcategory, sorted: the Hom-orthogonal
    seed that the enumeration closed to it."""
    ctx = _context(wide.quiver, wide.field)
    seed = thick_masks(wide.quiver, wide.field).get(ctx.mask_of_dims(wide.dims))
    if seed is None:
        raise ValueError("not a wide subcategory")
    return tuple(sorted(ctx.roots[i] for i in _bits(seed)))


def nc_positions(quiver: Quiver, field) -> tuple[NcLattice, tuple]:
    """NC(W, c) for the quiver's Coxeter element, and the position in it
    of the mask of each member of enumerate_thick(quiver, field), or
    None where no element has those moved roots."""
    ctx = _context(quiver, field)
    positions = tuple(
        ctx.lattice.index.get(ctx.mask_of_dims(w.dims))
        for w in enumerate_thick(quiver, field)
    )
    return ctx.lattice, positions


def _admissible_word(wide: WideSubcategory) -> list[int]:
    """The root indices of the simples in an order with no backward
    morphisms or extensions: the order that always takes the first
    simple with nothing left that must precede it.  Every such order
    gives the same product of reflections (Ingalls-Thomas)."""
    ctx = _context(wide.quiver, wide.field)
    simples = simples_of(wide)
    idx = [ctx.index[d] for d in simples]
    # simples[a] must come before simples[b] when a morphism or an
    # extension points from b to a; as Hom and Ext1 between
    # indecomposables are never both nonzero, that is when <b, a> != 0
    preceded_by = [
        {
            a
            for a in range(len(idx))
            if a != b and euler_form(wide.quiver, simples[b], simples[a])
        }
        for b in range(len(idx))
    ]
    remaining = list(range(len(idx)))
    word = []
    while remaining:
        free = [b for b in remaining if not preceded_by[b].intersection(remaining)]
        if not free:
            raise RuntimeError("no admissible order of the simples exists")
        remaining.remove(free[0])
        word.append(idx[free[0]])
    return word


def _product(rank: int, mats) -> WeylElement:
    out = int_identity(rank)
    for mat in mats:
        out = int_mat_mul(out, mat)
    return WeylElement(out)


def verify_bijection(quiver: Quiver, field) -> BijectionReport:
    """Check that wide subcategories map bijectively and order
    isomorphically onto the noncrossing partition lattice, on the Weyl
    group side.

    For each subcategory the reflections of its simples are multiplied
    in an admissible order.  The product w must have the number of
    simples as its reflection length and lie below c, that is
    l(w) + l(w^-1 c) = l(c), with w^-1 the reversed product, and the
    lattice built from the Euler form must hold the subcategory's mask.
    Distinct subcategories must give distinct products, as many as
    NC(W, c) has elements.  Both orders are inclusion, of dimension vectors and of
    moved roots (Brady-Watt), so a bijection under which every
    subcategory's dimension vectors are the moved roots of its image is
    an order isomorphism; that equality is checked per subcategory.
    """
    wides = enumerate_thick(quiver, field)
    lattice, positions = nc_positions(quiver, field)
    ctx = _context(quiver, field)
    rs = lattice.rs
    refls = reflection_mats(rs)
    c = coxeter_element(rs, quiver)
    failures = []
    images = []
    below = None not in positions
    for wide in wides:
        word = _admissible_word(wide)
        w = _product(rs.rank, [refls[k] for k in word])
        if reflection_length(w) != len(word):
            failures.append(
                "reflection length differs from the number of simples at "
                f"{wide.sorted_dims()}"
            )
        rest = _product(rs.rank, [refls[k] for k in reversed(word)] + [c.mat])
        below &= reflection_length(w) + reflection_length(rest) == rs.rank
        images.append(w)
    injective = len(set(images)) == len(images)
    if not injective:
        failures.append("map is not injective")
    if not below:
        failures.append("an image is not below the Coxeter element")
    is_bijective = injective and below and len(wides) == len(lattice)
    if len(wides) != len(lattice):
        failures.append(
            f"count mismatch: {len(wides)} subcategories vs {len(lattice)} partitions"
        )
    # an image outside the lattice leaves no order to compare with
    is_order_iso = below
    if is_order_iso:
        for wide, w in zip(wides, images):
            if ctx.mask_of_dims(wide.dims) != moved_roots(rs, w):
                is_order_iso = False
                failures.append(
                    "moved roots differ from the dimension vectors at "
                    f"{wide.sorted_dims()}"
                )
    return BijectionReport(
        quiver=quiver,
        field_char=field.char,
        thick_count=len(wides),
        nc_count=len(lattice),
        is_bijective=is_bijective,
        is_order_isomorphism=is_order_iso,
        failures=tuple(failures[:20]),
    )
