"""Wide subcategories of Dynkin quiver representations.

A wide subcategory is closed under kernels, cokernels, and extensions.
Since every object decomposes into indecomposables indexed by positive
roots, a subcategory is recorded as the set of dimension vectors of the
indecomposables it contains.  Closures are computed as a fixed point
over memoized pairwise contributions; each wide subcategory is sent to
a noncrossing partition by multiplying the reflections of its simple
objects in an order with no backward morphisms or extensions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .linalg import int_identity, int_mat_mul
from .quiver_rep import (
    DimVector,
    Quiver,
    base_change,
    decompose_dims,
    euler_form,
    ext_cocycle_basis,
    extension_middle,
    hom_basis,
    indecomposable_dims,
    kernel_rep,
    cokernel_rep,
    morphism_from_coeffs,
    tree_module,
)
from .root_system import (
    NcElement,
    NcLattice,
    WeylElement,
    coxeter_element,
    reflection,
    reflection_length,
)
from .quiver_rep import _root_system_for


@dataclass(frozen=True)
class WideSubcategory:
    """A wide subcategory, as the set of its indecomposables' dimension
    vectors."""

    quiver: Quiver
    field: object
    dims: frozenset

    def sorted_dims(self) -> tuple[DimVector, ...]:
        return tuple(sorted(self.dims))

    def __le__(self, other: "WideSubcategory") -> bool:
        return self.dims <= other.dims


@dataclass(frozen=True)
class BijectionReport:
    quiver: Quiver
    field_char: int
    thick_count: int
    nc_count: int
    is_bijective: bool
    is_order_isomorphism: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.is_bijective and self.is_order_isomorphism and not self.failures


def _lines(field, n: int):
    """One nonzero vector of F^n per line through the origin: the vectors
    whose first nonzero entry is 1."""
    for lead in range(n):
        for tail in product(field.elements(), repeat=n - lead - 1):
            yield (field.zero,) * lead + (field.one,) + tail


class _RepContext:
    """Memoized morphism data for all indecomposables of one quiver over
    one finite field, and the wide subcategories once enumerated."""

    def __init__(self, quiver: Quiver, field):
        if field.char == 0:
            raise ValueError(
                "subcategory enumeration needs a finite field; use GF(p)"
            )
        self.quiver = quiver
        self.field = field
        self.roots = indecomposable_dims(quiver)
        self.index = {d: i for i, d in enumerate(self.roots)}
        self.reps = [base_change(tree_module(quiver, d), field) for d in self.roots]
        self._hom: dict[tuple[int, int], int] = {}
        self._pair_masks: dict[tuple[int, int], int] = {}
        self._embeds: dict[tuple[int, int], bool] = {}
        self.wides = None

    @cached_property
    def coxeter(self) -> WeylElement:
        return coxeter_element(_root_system_for(self.quiver.dynkin), self.quiver.arrows)

    def hom(self, i: int, j: int) -> int:
        key = (i, j)
        if key not in self._hom:
            self._hom[key] = len(hom_basis(self.reps[i], self.reps[j]))
        return self._hom[key]

    def mask_of_dims(self, dims) -> int:
        mask = 0
        for d in dims:
            mask |= 1 << self.index[d]
        return mask

    def pair_mask(self, i: int, j: int) -> int:
        """Indecomposables generated by all morphisms and extensions
        between root i and root j."""
        key = (i, j)
        cached = self._pair_masks.get(key)
        if cached is not None:
            return cached
        field = self.field
        m, n = self.reps[i], self.reps[j]
        # m and n are the kernel and cokernel of the zero morphism and the
        # summands of the split extension.  For a unit lam, lam*phi has the
        # kernel, cokernel and injectivity of phi, and lam*psi a middle term
        # isomorphic to that of psi, so one vector per line covers the rest.
        dims = {m.dim, n.dim}
        basis = hom_basis(m, n)
        for coeffs in _lines(field, len(basis)):
            phi = morphism_from_coeffs(field, basis, coeffs)
            dims.update(decompose_dims(kernel_rep(phi, m)))
            dims.update(decompose_dims(cokernel_rep(phi, n)))
        ext_basis = ext_cocycle_basis(m, n)
        for coeffs in _lines(field, len(ext_basis)):
            psi = morphism_from_coeffs(field, ext_basis, coeffs)
            dims.update(decompose_dims(extension_middle(m, n, psi)))
        mask = self.mask_of_dims(dims)
        self._pair_masks[key] = mask
        return mask

    def embeds(self, i: int, j: int) -> bool:
        """Whether some injective morphism root i -> root j exists."""
        key = (i, j)
        cached = self._embeds.get(key)
        if cached is not None:
            return cached
        field = self.field
        m, n = self.reps[i], self.reps[j]
        found = False
        if all(a <= b for a, b in zip(m.dim, n.dim)):
            basis = hom_basis(m, n)
            found = any(
                kernel_rep(morphism_from_coeffs(field, basis, c), m).total_dim == 0
                for c in _lines(field, len(basis))
            )
        self._embeds[key] = found
        return found


_CONTEXTS: dict = {}


def _context(quiver: Quiver, field) -> _RepContext:
    key = (quiver, field)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = _RepContext(quiver, field)
    return _CONTEXTS[key]


def _close_mask(ctx: _RepContext, mask: int) -> int:
    while True:
        new = mask
        members = [i for i in range(len(ctx.roots)) if (mask >> i) & 1]
        for i in members:
            for j in members:
                new |= ctx.pair_mask(i, j)
        if new == mask:
            return mask
        mask = new


def wide_closure(quiver: Quiver, field, seed) -> WideSubcategory:
    """Smallest wide subcategory containing the seed indecomposables.

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
    out = []

    def extend(start: int, chosen: tuple[int, ...], mask: int):
        out.append(mask)
        for i in range(start, n):
            if all(
                ctx.hom(i, j) == 0 and ctx.hom(j, i) == 0 for j in chosen
            ):
                extend(i + 1, chosen + (i,), mask | (1 << i))

    extend(0, (), 0)
    return out


def enumerate_thick(quiver: Quiver, field) -> tuple[WideSubcategory, ...]:
    """All wide subcategories, canonically ordered.

    Up to 12 indecomposables every subset is used as a closure seed;
    beyond that only subsets with no morphisms between distinct members
    are seeded, which still reaches every subcategory since each one is
    the closure of its simples.
    """
    ctx = _context(quiver, field)
    if ctx.wides is not None:
        return ctx.wides
    n = len(ctx.roots)
    if n <= 12:
        seeds = range(1 << n)
    else:
        seeds = _orthogonal_seed_masks(ctx)
    closed_masks = {_close_mask(ctx, seed) for seed in seeds}
    wides = [
        WideSubcategory(
            quiver,
            field,
            frozenset(ctx.roots[i] for i in range(n) if (mask >> i) & 1),
        )
        for mask in closed_masks
    ]
    wides.sort(key=lambda w: (len(w.dims), w.sorted_dims()))
    ctx.wides = tuple(wides)
    return ctx.wides


def simples_of(wide: WideSubcategory) -> tuple[DimVector, ...]:
    """Members with no proper nonzero subobject inside the subcategory,
    found by scanning injective morphisms from the other members."""
    ctx = _context(wide.quiver, wide.field)
    members = wide.sorted_dims()
    out = []
    for d in members:
        i = ctx.index[d]
        if any(
            ctx.embeds(ctx.index[e], i) for e in members if e != d
        ):
            continue
        out.append(d)
    return tuple(out)


def _precedence_orders(simples, before):
    """All orderings of simples compatible with the precedence pairs,
    by backtracking over available minima."""
    n = len(simples)
    orders = []

    def extend(remaining: list[int], acc: tuple[int, ...]):
        if not remaining:
            orders.append(acc)
            return
        for k in remaining:
            if all(not before[j][k] for j in remaining if j != k):
                extend([x for x in remaining if x != k], acc + (k,))

    extend(list(range(n)), ())
    return orders


def wide_to_nc(wide: WideSubcategory) -> NcElement:
    """The noncrossing partition of a wide subcategory: the product of
    the reflections of its simples, taken in an order with no backward
    morphisms or extensions.

    All admissible orders are multiplied out and must agree.
    """
    ctx = _context(wide.quiver, wide.field)
    rs = _root_system_for(wide.quiver.dynkin)
    simples = simples_of(wide)
    k = len(simples)
    idx = [ctx.index[d] for d in simples]
    # simples[a] must come before simples[b] when a morphism or an
    # extension points from b to a; as dim Ext1(M_b, M_a) = hom(b, a) -
    # <b, a>, that is when hom(b, a) or the Euler form <b, a> is nonzero
    before = [
        [
            a != b
            and (
                ctx.hom(idx[b], idx[a]) != 0
                or euler_form(wide.quiver, simples[b], simples[a]) != 0
            )
            for b in range(k)
        ]
        for a in range(k)
    ]
    orders = _precedence_orders(simples, before)
    if not orders:
        raise RuntimeError("no admissible order of the simples exists")
    mats = set()
    for order in orders:
        mat = None
        for pos in order:
            t = reflection(rs, simples[pos]).mat
            mat = t if mat is None else int_mat_mul(mat, t)
        if mat is None:
            mat = int_identity(rs.rank)
        mats.add(mat)
    if len(mats) != 1:
        raise RuntimeError("product of simple reflections depends on the order")
    w = WeylElement(mats.pop())
    if reflection_length(w) != k:
        raise RuntimeError("product length differs from the number of simples")
    return NcElement(rs, w, ctx.coxeter)


def verify_bijection(quiver: Quiver, field) -> BijectionReport:
    """Check that wide subcategories map bijectively and order
    isomorphically onto the noncrossing partition lattice."""
    wides = enumerate_thick(quiver, field)
    ctx = _context(quiver, field)
    lattice = NcLattice(_root_system_for(quiver.dynkin), ctx.coxeter)
    failures = []
    images = [wide_to_nc(w) for w in wides]
    image_set = set(images)
    if len(image_set) != len(wides):
        failures.append("map is not injective")
    positions = [lattice.index.get(x) for x in images]
    if None in positions:
        failures.append("an image is not below the Coxeter element")
    is_bijective = len(image_set) == len(wides) == len(lattice)
    if not is_bijective:
        failures.append(
            f"count mismatch: {len(wides)} subcategories vs {len(lattice)} partitions"
        )
    # an image outside the lattice leaves no order to compare with
    is_order_iso = None not in positions
    if is_order_iso:
        for i, wi in enumerate(wides):
            for j, wj in enumerate(wides):
                if (wi.dims <= wj.dims) != lattice.leq(positions[i], positions[j]):
                    is_order_iso = False
                    failures.append(
                        f"order mismatch at {wi.sorted_dims()} vs {wj.sorted_dims()}"
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
