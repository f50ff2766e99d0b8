"""Wide subcategories of Dynkin quiver representations.

A wide subcategory is closed under kernels, cokernels, and extensions.
Every object decomposes into indecomposables indexed by positive roots,
so a subcategory is the bitmask of the indecomposables it contains, in
the order of the positive roots: the moved roots of its element of
NC(W, c) (Ingalls-Thomas, Compositio 2009), which the lattice finds by
that mask.

Closures build no module beyond the indecomposables.  Perpendicular
categories of a hereditary algebra are wide (Geigle-Lenzing,
Perpendicular categories with applications to representations and
sheaves, J. Algebra 1991).  Every wide subcategory of a Dynkin quiver is
generated by an exceptional sequence, so it is the right perpendicular
category of its own left perpendicular category (Ingalls-Thomas).  A set
S has the left perpendicular category of the subcategory it generates,
so that subcategory is the right perpendicular of the left perpendicular
of S, read off one table of vanishing Hom and Ext1 between
indecomposables.  Every wide subcategory is the closure of its simples,
which are pairwise Hom-orthogonal bricks, so the enumeration closes only
Hom-orthogonal sets of indecomposables, and keeps each seed as the mask
of the subcategory's simples.

NC(W, c), the subcategories and the order of each one's simples all
read one table of the Euler pairing between indecomposables
(root_system.euler_pairing), as dim Hom = max(<a, b>, 0) over every
field (quiver_rep.hom_table), but NC(W, c) and the subcategories find
their elements apart: NC(W, c) by the walk down from c, the
subcategories by closing Hom-orthogonal seeds.  verify_bijection checks
the bijection from Weyl matrices, one product per set of simples, and
the Hom formula by ranks over its field.  Dimension vectors are read off
a mask only for output and failure messages.
"""
from __future__ import annotations

from functools import lru_cache

from .linalg import int_identity, int_mat_mul, int_rank
from .quiver_rep import (
    DimVector,
    Quiver,
    _root_system_for,
    base_change,
    hom_dim,
    hom_table,
    indecomposable_dims,
    tree_module,
)
from .root_system import (
    NcLattice,
    WeylElement,
    _bits,
    coxeter_element,
    euler_pairing,
    euler_perps,
    linear_extension,
    moved_roots,
    perp_closure,
    reflection_length,
    reflection_mats,
)
from .value import Value


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


@lru_cache(maxsize=None)
def quiver_lattice(quiver: Quiver) -> NcLattice:
    """NC(W, c) for the Coxeter element of the quiver's orientation.
    Its roots are the indecomposables in the same order, so a mask over
    the indecomposables is also a mask over the moved roots."""
    return NcLattice(_root_system_for(quiver.dynkin), quiver)


def sorted_dims(quiver: Quiver, mask: int) -> tuple[DimVector, ...]:
    """The dimension vectors of the indecomposables in a mask, sorted."""
    roots = indecomposable_dims(quiver)
    return tuple(sorted(roots[i] for i in _bits(mask)))


def _perp_rows(quiver: Quiver) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """Bitmasks over the indecomposables: the Euler form's perpendiculars
    left[s] = {x : Hom(x, s) = 0 = Ext1(x, s)} and right[y] = {z : Hom(y,
    z) = 0 = Ext1(y, z)}, and orth[i] = {j : Hom(i, j) = 0 = Hom(j, i)}."""
    left, right = euler_perps(_root_system_for(quiver.dynkin), quiver.arrows)
    hom = hom_table(quiver).hom
    n = len(hom)
    orth = [sum(1 << b for b in range(n) if not (hom[a][b] or hom[b][a])) for a in range(n)]
    return left, right, orth


def _orthogonal_seed_masks(orth):
    """All subsets of indecomposables with no morphisms either way
    between distinct members, by backtracking."""
    n = len(orth)
    out = []

    def extend(start: int, allowed: int, mask: int):
        out.append(mask)
        for i in range(start, n):
            if (allowed >> i) & 1:
                extend(i + 1, allowed & orth[i], mask | (1 << i))

    extend(0, (1 << n) - 1, 0)
    return out


@lru_cache(maxsize=None)
def thick_masks(quiver: Quiver) -> dict[int, int]:
    """The wide subcategories as masks over the indecomposables, each
    mapped to the mask of its simples, computed once per quiver.

    Only sets of indecomposables with no morphisms between distinct
    members are seeded: this reaches every subcategory, since each one
    is the closure of its simples, and Hom-orthogonal bricks are the
    simples of exactly one wide subcategory (Ringel).  So each
    subcategory has one seed, which is kept as its simples.
    """
    left, right, orth = _perp_rows(quiver)
    seeds = {}
    for seed in _orthogonal_seed_masks(orth):
        closed = perp_closure(left, right, seed)
        if closed in seeds:
            raise RuntimeError("two Hom-orthogonal seeds close to one subcategory")
        seeds[closed] = seed
    return seeds


def _admissible_word(quiver: Quiver, simples: int) -> list[int]:
    """The root indices of the simples, a mask, in an order with no
    backward morphisms or extensions: the order that always takes the
    first simple, by dimension vector, with nothing left that must
    precede it.  Every such order gives the same product of reflections
    (Ingalls-Thomas)."""
    rs = _root_system_for(quiver.dynkin)
    pairing = euler_pairing(rs, quiver.arrows)
    ordered = sorted(_bits(simples), key=rs.positive_roots.__getitem__)
    # a must come before b when a morphism or an extension points from b
    # to a; as Hom and Ext1 between indecomposables are never both
    # nonzero, that is when <b, a> != 0
    before = [
        sum(1 << p for p, a in enumerate(ordered) if a != b and pairing[b][a])
        for b in ordered
    ]
    return [ordered[p] for p in linear_extension(before)]


def _simples_product(quiver: Quiver, refls, products: dict, simples: int) -> WeylElement:
    """The product of the simples' reflections in an admissible order,
    memoized in products by simples mask: the product for the simples
    less the last letter of their admissible word, which is an
    admissible word of the rest, times the last letter's reflection."""
    if simples not in products:
        last = _admissible_word(quiver, simples)[-1]
        rest = _simples_product(quiver, refls, products, simples & ~(1 << last))
        products[simples] = WeylElement(int_mat_mul(rest.mat, refls[last]))
    return products[simples]


def verify_bijection(quiver: Quiver, field) -> BijectionReport:
    """Check that wide subcategories map bijectively and order
    isomorphically onto the noncrossing partition lattice, on the Weyl
    group side.

    For each subcategory, walked by size and then by the sorted
    dimension vectors that failures name, the reflections of its
    simples are multiplied in an admissible order, one matrix product
    per set of simples (_simples_product).  The product w must have the
    number of simples as its reflection length and lie below c, that is
    l(w) + l(w^-1 c) = l(c), where l(w^-1 c) is the rank of c - w, as
    w^-1 c - I = w^-1 (c - w); and the lattice built from the Euler form
    must hold the subcategory's mask.  Distinct subcategories must give distinct
    products, as many as NC(W, c) has elements.  Both orders are
    inclusion of masks (Brady-Watt), so a bijection under which every
    subcategory's mask is the moved roots of its image is an order
    isomorphism; that equality is checked per subcategory.  Last,
    hom_dim between the tree modules over the field must be the Hom
    table's max(<a, b>, 0), with one failure per pair that is not.
    """
    masks = thick_masks(quiver)
    lattice = quiver_lattice(quiver)
    rs = lattice.rs
    refls = reflection_mats(rs)
    c = coxeter_element(rs, quiver)
    products = {0: WeylElement(int_identity(rs.rank))}
    walk = sorted(masks, key=lambda m: (m.bit_count(), sorted_dims(quiver, m)))
    failures = []
    images = []
    below = all(mask in lattice.index for mask in masks)
    for mask in walk:
        w = _simples_product(quiver, refls, products, masks[mask])
        if reflection_length(w) != masks[mask].bit_count():
            failures.append(
                "reflection length differs from the number of simples at "
                f"{sorted_dims(quiver, mask)}"
            )
        rest = int_rank([[x - y for x, y in zip(*rows)] for rows in zip(c.mat, w.mat)])
        below &= reflection_length(w) + rest == rs.rank
        images.append(w)
    injective = len(set(images)) == len(images)
    if not injective:
        failures.append("map is not injective")
    if not below:
        failures.append("an image is not below the Coxeter element")
    is_bijective = injective and below and len(masks) == len(lattice)
    if len(masks) != len(lattice):
        failures.append(
            f"count mismatch: {len(masks)} subcategories vs {len(lattice)} partitions"
        )
    # an image outside the lattice leaves no order to compare with
    is_order_iso = below
    if is_order_iso:
        for mask, w in zip(walk, images):
            if mask != moved_roots(rs, w):
                is_order_iso = False
                failures.append(
                    "moved roots differ from the dimension vectors at "
                    f"{sorted_dims(quiver, mask)}"
                )
    table = hom_table(quiver)
    reps = [base_change(tree_module(quiver, d), field) for d in table.roots]
    failures += [
        f"dim Hom from {d} to {e} is {found} over the field, not max(<{d}, {e}>, 0) = {h}"
        for d, m, row in zip(table.roots, reps, table.hom)
        for e, n, h in zip(table.roots, reps, row)
        if (found := hom_dim(m, n)) != h
    ]
    return BijectionReport(
        quiver=quiver,
        field_char=field.char,
        thick_count=len(masks),
        nc_count=len(lattice),
        is_bijective=is_bijective,
        is_order_isomorphism=is_order_iso,
        failures=tuple(failures[:20]),
    )
