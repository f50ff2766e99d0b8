"""Quiver representations over exact fields.

A quiver here is always an orientation of a simply laced Dynkin
diagram.  Indecomposable representations are realized as tree modules:
every structure matrix has entries 0 or 1.  Each one is glued from
simples: a non-simple indecomposable is the middle term of a unit
cocycle extension of two smaller, Hom-orthogonal tree modules with a
one dimensional Ext1 between them (Ringel 1976: such a middle term is a
brick; Ringel 1998: exceptional modules are tree modules).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import linalg
from .linalg import QQ, mat_mul, nullspace, rref, solve
from . import root_system
from .root_system import DynkinType, build_root_system
from .value import Value

DimVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


class TreeModuleError(RuntimeError):
    """Raised when a root has no gluing pair giving a 0/1 tree module."""


class Quiver(Value):
    """An orientation of a Dynkin diagram.

    arrows are (source, target) vertex pairs, kept in sorted order.
    """

    __slots__ = ("dynkin", "arrows")

    def __init__(self, dynkin: DynkinType, arrows: tuple[tuple[int, int], ...]):
        arrows = tuple(sorted((int(s), int(t)) for s, t in arrows))
        edges = tuple(sorted(tuple(sorted(a)) for a in arrows))
        if edges != dynkin.diagram_edges():
            raise ValueError(f"arrows {arrows!r} do not orient the {dynkin} diagram")
        object.__setattr__(self, "dynkin", dynkin)
        object.__setattr__(self, "arrows", arrows)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    def vertices(self) -> range:
        return self.dynkin.vertices()


def default_orientation(dynkin: DynkinType) -> Quiver:
    """Each diagram edge oriented from the smaller to the larger label."""
    return Quiver(dynkin, dynkin.diagram_edges())


def euler_form(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """<d, e> = dim Hom(M, N) - dim Ext1(M, N) for representations M, N
    with these dimension vectors; see root_system.euler_form."""
    return root_system.euler_form(quiver.arrows, d, e)


@lru_cache(maxsize=None)
def _root_system_for(dynkin: DynkinType):
    return build_root_system(dynkin)


def indecomposable_dims(quiver: Quiver) -> tuple[DimVector, ...]:
    """Dimension vectors of the indecomposables: the positive roots,
    ordered by height then lexicographically."""
    return _root_system_for(quiver.dynkin).positive_roots


class TreeModule(Value):
    """An indecomposable representation with all matrix entries 0 or 1.

    maps[i] is the matrix of arrows[i], of shape dim[target] x dim[source],
    acting on column vectors.
    """

    __slots__ = ("quiver", "dim", "maps")

    def __init__(self, quiver: Quiver, dim: DimVector, maps: tuple[IntMatrix, ...]):
        if len(dim) != quiver.rank:
            raise ValueError("dimension vector has wrong length")
        if len(maps) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for (s, t), mat in zip(quiver.arrows, maps):
            if len(mat) != dim[t - 1] or any(len(row) != dim[s - 1] for row in mat):
                raise ValueError(f"matrix for arrow {(s, t)} has wrong shape")
            if any(x not in (0, 1) for row in mat for x in row):
                raise ValueError("tree module entries must be 0 or 1")
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "maps", maps)

    def map_for(self, arrow) -> IntMatrix:
        return self.maps[self.quiver.arrows.index(tuple(arrow))]


class FieldRep(Value):
    """A representation over an explicit field.

    Entries are field elements: ints for GF(p), ints or Fractions over
    the rationals.
    """

    __slots__ = ("field", "quiver", "dim", "maps")

    def __init__(self, field, quiver: Quiver, dim: DimVector, maps: tuple[tuple, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "maps", maps)

    @property
    def total_dim(self) -> int:
        return sum(self.dim)


def base_change(module: TreeModule, field) -> FieldRep:
    """Reinterpret the 0/1 matrices of a tree module over a field."""
    maps = tuple(
        tuple(tuple(field.from_int(x) for x in row) for row in mat)
        for mat in module.maps
    )
    return FieldRep(field, module.quiver, module.dim, maps)


# ---------------------------------------------------------------------------
# tree modules by gluing

@lru_cache(maxsize=None)
def tree_module(quiver: Quiver, dim: DimVector) -> TreeModule:
    """The indecomposable representation with the given dimension vector,
    presented with 0/1 matrices.

    dim must be a positive root of the quiver's type.  A simple root
    gives the module with zero arrow matrices.  Any other root is glued
    from smaller ones: the first beta in positive_roots order such that
    gamma = dim - beta is a root, M_beta and M_gamma are Hom-orthogonal,
    Ext1(M_beta, M_gamma) = 0 and dim Ext1(M_gamma, M_beta) = 1.  The
    module is the middle term of the extension of M_gamma by M_beta whose
    cocycle is a single unit entry, so every entry stays in {0, 1}.

    A nonsplit extension of two Hom-orthogonal bricks with a one
    dimensional Ext1 is again a brick (Ringel, Representations of
    K-species and bimodules, J. Algebra 1976), and every exceptional
    module has such a 0/1 tree basis (Ringel, Exceptional modules are
    tree modules, Linear Algebra Appl. 1998).  TreeModuleError is raised
    when no gluing pair exists.
    """
    dim = tuple(int(x) for x in dim)
    rs = _root_system_for(quiver.dynkin)
    roots = set(rs.positive_roots)
    if dim not in roots:
        raise ValueError(f"{dim!r} is not a positive root of {quiver.dynkin}")
    if sum(dim) == 1:
        maps = tuple(
            tuple((0,) * dim[s - 1] for _ in range(dim[t - 1]))
            for s, t in quiver.arrows
        )
        return TreeModule(quiver, dim, maps)
    for beta in rs.positive_roots:
        gamma = tuple(x - y for x, y in zip(dim, beta))
        if gamma not in roots:
            continue
        sub = base_change(tree_module(quiver, beta), QQ)
        quot = base_change(tree_module(quiver, gamma), QQ)
        if hom_dim(sub, quot) or hom_dim(quot, sub):
            continue
        if ext_dim(sub, quot) or ext_dim(quot, sub) != 1:
            continue
        cocycle = ext_cocycle_basis(quot, sub)[0]
        middle = extension_middle(quot, sub, cocycle)
        maps = tuple(
            tuple(tuple(_as_unit_int(x) for x in row) for row in mat)
            for mat in middle.maps
        )
        return TreeModule(quiver, middle.dim, maps)
    raise TreeModuleError(
        f"no gluing pair of roots found for {dim!r} over {quiver.dynkin}"
    )


def _as_unit_int(x) -> int:
    value = Fraction(x)
    if value.denominator != 1 or int(value) not in (0, 1):
        raise TreeModuleError(f"extension entry {x!r} is not 0 or 1")
    return int(value)


# ---------------------------------------------------------------------------
# Hom and Ext over a field

def _vertex_offsets(dims_m, dims_n):
    offsets = []
    total = 0
    for dm, dn in zip(dims_m, dims_n):
        offsets.append(total)
        total += dm * dn
    return offsets, total


def hom_basis(m: FieldRep, n: FieldRep):
    """Basis of Hom(m, n) as tuples of per-vertex matrices."""
    if m.quiver != n.quiver or m.field != n.field:
        raise ValueError("representations live over different data")
    field = m.field
    offsets, total = _vertex_offsets(m.dim, n.dim)
    rows = []
    for ai, (s, t) in enumerate(m.quiver.arrows):
        ma, na = m.maps[ai], n.maps[ai]
        ds, dt = m.dim[s - 1], m.dim[t - 1]
        es, et = n.dim[s - 1], n.dim[t - 1]
        for i in range(et):
            for j in range(ds):
                row = [field.zero] * total
                for k in range(dt):
                    row[offsets[t - 1] + i * m.dim[t - 1] + k] = field.add(
                        row[offsets[t - 1] + i * m.dim[t - 1] + k], ma[k][j]
                    )
                for l in range(es):
                    row[offsets[s - 1] + l * m.dim[s - 1] + j] = field.sub(
                        row[offsets[s - 1] + l * m.dim[s - 1] + j], na[i][l]
                    )
                rows.append(row)
    basis = nullspace(field, rows, ncols=total)
    out = []
    for vec in basis:
        per_vertex = []
        for v in range(m.quiver.rank):
            dm, dn = m.dim[v], n.dim[v]
            off = offsets[v]
            per_vertex.append(
                tuple(
                    tuple(vec[off + i * dm + j] for j in range(dm))
                    for i in range(dn)
                )
            )
        out.append(tuple(per_vertex))
    return out


def hom_dim(m: FieldRep, n: FieldRep) -> int:
    """dim Hom(m, n), the nullity of the intertwining system."""
    return len(hom_basis(m, n))


def ext_dim(m: FieldRep, n: FieldRep) -> int:
    """dim Ext1(m, n) = dim Hom(m, n) - <dim m, dim n>."""
    value = hom_dim(m, n) - euler_form(m.quiver, m.dim, n.dim)
    if value < 0:
        raise RuntimeError("negative Ext dimension; hereditary identity broken")
    return value


def morphism_from_coeffs(field, basis, coeffs):
    """Linear combination of basis elements that are tuples of matrices:
    hom_basis elements (one matrix per vertex) or ext_cocycle_basis
    elements (one per arrow)."""
    if not basis:
        raise ValueError("empty basis")
    nverts = len(basis[0])
    out = []
    for v in range(nverts):
        rows = len(basis[0][v])
        cols = len(basis[0][v][0]) if rows else 0
        mat = [[field.zero] * cols for _ in range(rows)]
        for c, elem in zip(coeffs, basis):
            if c == field.zero:
                continue
            bm = elem[v]
            for i in range(rows):
                for j in range(cols):
                    mat[i][j] = field.add(mat[i][j], field.mul(c, bm[i][j]))
        out.append(tuple(tuple(r) for r in mat))
    return tuple(out)


def kernel_rep(phi, m: FieldRep) -> FieldRep:
    """Kernel of a morphism phi out of m, as a subrepresentation of m."""
    field = m.field
    bases = []
    for v in range(m.quiver.rank):
        bases.append(nullspace(field, phi[v], ncols=m.dim[v]))
    return _sub_rep_on_bases(m, bases)


def cokernel_rep(phi, n: FieldRep) -> FieldRep:
    """Cokernel of phi: m -> n, presented on left-kernel coordinates."""
    field = n.field
    quotient_rows = []
    new_dim = []
    for v in range(n.quiver.rank):
        q = linalg.left_nullspace(field, phi[v], nrows=n.dim[v])
        quotient_rows.append(q)
        new_dim.append(len(q))
    maps = []
    for ai, (s, t) in enumerate(n.quiver.arrows):
        qs, qt = quotient_rows[s - 1], quotient_rows[t - 1]
        na = n.maps[ai]
        # rows of qt @ na lie in the row space of qs; solve for the matrix
        rhs = mat_mul(field, qt, na)
        if len(qs) == 0:
            maps.append(tuple(() for _ in range(len(qt))))
            continue
        sol = solve(
            field,
            list(zip(*qs)),
            list(zip(*rhs)) if rhs else [[] for _ in range(n.dim[s - 1])],
        )
        if sol is None:
            raise RuntimeError("cokernel maps are not induced; not a morphism?")
        maps.append(tuple(zip(*sol)) if sol else tuple(() for _ in qt))
    fixed = []
    for ai, (s, t) in enumerate(n.quiver.arrows):
        mat = maps[ai]
        fixed.append(
            tuple(tuple(row) for row in mat)
            if new_dim[t - 1]
            else tuple()
        )
    return FieldRep(field, n.quiver, tuple(new_dim), tuple(fixed))


def _sub_rep_on_bases(m: FieldRep, bases) -> FieldRep:
    """Representation induced on per-vertex column bases of invariant
    subspaces of m."""
    field = m.field
    new_dim = tuple(len(b) for b in bases)
    maps = []
    for ai, (s, t) in enumerate(m.quiver.arrows):
        bs, bt = bases[s - 1], bases[t - 1]
        image = mat_mul(field, m.maps[ai], list(zip(*bs)))
        if not bt:
            if any(x != field.zero for row in image for x in row):
                raise RuntimeError("subspaces are not invariant")
            maps.append(tuple())
            continue
        sol = solve(field, list(zip(*bt)), image)
        if sol is None:
            raise RuntimeError("subspaces are not invariant")
        maps.append(tuple(tuple(row) for row in sol))
    return FieldRep(field, m.quiver, new_dim, tuple(maps))


def ext_cocycle_basis(m: FieldRep, n: FieldRep):
    """Cocycles spanning Ext1(m, n): a complement of the coboundaries
    inside the per-arrow correction space.

    Returns a list of tuples of per-arrow matrices psi_a of shape
    n_dim[t] x m_dim[s].
    """
    if m.quiver != n.quiver or m.field != n.field:
        raise ValueError("representations live over different data")
    field = m.field
    quiver = m.quiver
    arrow_offsets = []
    total = 0
    for s, t in quiver.arrows:
        arrow_offsets.append(total)
        total += n.dim[t - 1] * m.dim[s - 1]
    phi_offsets, phi_total = _vertex_offsets(m.dim, n.dim)
    coboundary_cols = []
    for col in range(phi_total):
        vert = max(v for v in range(quiver.rank) if phi_offsets[v] <= col)
        local = col - phi_offsets[vert]
        dm = m.dim[vert]
        i, j = divmod(local, dm)
        out = [field.zero] * total
        for ai, (s, t) in enumerate(quiver.arrows):
            ma, na = m.maps[ai], n.maps[ai]
            base = arrow_offsets[ai]
            if t - 1 == vert:
                for jj in range(m.dim[s - 1]):
                    out[base + i * m.dim[s - 1] + jj] = field.add(
                        out[base + i * m.dim[s - 1] + jj], ma[j][jj]
                    )
            if s - 1 == vert:
                for ii in range(n.dim[t - 1]):
                    out[base + ii * m.dim[s - 1] + j] = field.sub(
                        out[base + ii * m.dim[s - 1] + j], na[ii][i]
                    )
        coboundary_cols.append(out)
    if coboundary_cols:
        _, pivot_coords = rref(field, [list(v) for v in coboundary_cols])
    else:
        pivot_coords = []
    # unit vectors at non-pivot coordinates complement the coboundary image
    pivot_set = set(pivot_coords)
    chosen = [c for c in range(total) if c not in pivot_set]
    expected = total - len(pivot_coords)
    basis = []
    for coord in chosen:
        per_arrow = []
        for ai, (s, t) in enumerate(quiver.arrows):
            rows = n.dim[t - 1]
            cols = m.dim[s - 1]
            base = arrow_offsets[ai]
            per_arrow.append(
                tuple(
                    tuple(
                        field.one
                        if base + i * cols + j == coord
                        else field.zero
                        for j in range(cols)
                    )
                    for i in range(rows)
                )
            )
        basis.append(tuple(per_arrow))
    if len(basis) != expected:
        raise RuntimeError("failed to span a complement of the coboundaries")
    return basis


def extension_middle(m: FieldRep, n: FieldRep, cocycle) -> FieldRep:
    """Middle term of the extension of m by n given by a cocycle.

    Vertex spaces are n_v (+) m_v; the arrow matrices are block upper
    triangular with the cocycle in the corner.
    """
    field = m.field
    quiver = m.quiver
    dims = tuple(nv + mv for nv, mv in zip(n.dim, m.dim))
    maps = []
    for ai, (s, t) in enumerate(quiver.arrows):
        na, ma, psi = n.maps[ai], m.maps[ai], cocycle[ai]
        es, et = n.dim[s - 1], n.dim[t - 1]
        ds, dt = m.dim[s - 1], m.dim[t - 1]
        rows = []
        for i in range(et):
            rows.append(tuple(na[i]) + tuple(psi[i]))
        for i in range(dt):
            rows.append(tuple(field.zero for _ in range(es)) + tuple(ma[i]))
        maps.append(tuple(rows))
    return FieldRep(field, quiver, dims, tuple(maps))


# ---------------------------------------------------------------------------
# Krull-Schmidt decomposition

def _mat_power(field, mat, size, exponent):
    result = tuple(
        tuple(field.one if i == j else field.zero for j in range(size))
        for i in range(size)
    )
    base = mat
    e = exponent
    while e:
        if e & 1:
            result = mat_mul(field, result, base)
        base = mat_mul(field, base, base)
        e >>= 1
    return result


def _column_space_basis(field, mat, size):
    cols = list(zip(*mat)) if mat else []
    if not cols:
        return []
    _, pivots = rref(field, mat)
    # pivots of the row-reduced matrix mark independent columns
    return [tuple(mat[r][c] for r in range(size)) for c in pivots]


def _fitting_split(rep: FieldRep, phi):
    """Try to split rep along the stable kernel/image of phi.

    Returns (kernel_rep, image_rep) or None when phi is nilpotent or
    invertible.
    """
    field = rep.field
    ker_bases = []
    im_bases = []
    ker_total = 0
    im_total = 0
    for v in range(rep.quiver.rank):
        size = rep.dim[v]
        if size == 0:
            ker_bases.append([])
            im_bases.append([])
            continue
        # by Fitting's lemma on the vertex space, phi_v^size has the
        # stable kernel and image of phi_v
        power = _mat_power(field, phi[v], size, size)
        kb = nullspace(field, power, ncols=size)
        ib = _column_space_basis(field, power, size)
        if len(kb) + len(ib) != size:
            raise RuntimeError("stable kernel and image do not fill the space")
        ker_bases.append(kb)
        im_bases.append(ib)
        ker_total += len(kb)
        im_total += len(ib)
    if ker_total == 0 or im_total == 0:
        return None
    return (
        _sub_rep_on_bases(rep, ker_bases),
        _sub_rep_on_bases(rep, im_bases),
    )


def _splitter_candidates(field, basis_size):
    """Deterministic stream of coefficient vectors to probe for a
    Fitting splitter: basis elements first, then everything."""
    for i in range(basis_size):
        vec = [field.zero] * basis_size
        vec[i] = field.one
        yield tuple(vec)
    if field.char:
        for combo in product(field.elements(), repeat=basis_size):
            yield tuple(combo)
    else:
        height = 1
        while height <= 64:
            values = [Fraction(k) for k in range(-height, height + 1)]
            for combo in product(values, repeat=basis_size):
                if max((abs(x) for x in combo), default=Fraction(0)) == height:
                    yield tuple(combo)
            height += 1


def decompose_dims(rep: FieldRep) -> tuple[DimVector, ...]:
    """Dimension vectors of the indecomposable summands, sorted, with
    multiplicity.

    Splits along Fitting decompositions of endomorphisms until every
    piece has a one dimensional endomorphism ring.
    """
    if rep.total_dim == 0:
        return ()
    basis = hom_basis(rep, rep)
    if len(basis) == 1:
        return (rep.dim,)
    field = rep.field
    for coeffs in _splitter_candidates(field, len(basis)):
        if all(c == field.zero for c in coeffs):
            continue
        phi = morphism_from_coeffs(field, basis, coeffs)
        split = _fitting_split(rep, phi)
        if split is not None:
            left, right = split
            return tuple(
                sorted(decompose_dims(left) + decompose_dims(right))
            )
    raise RuntimeError("no Fitting splitter found for a decomposable module")
