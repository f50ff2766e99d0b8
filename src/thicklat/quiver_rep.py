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

from functools import lru_cache

from . import linalg
from .linalg import QQ, mat_mul, nullspace, rank, rref, solve
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


class FieldRep(Value):
    """A representation over an explicit field.

    Entries are field elements: ints for GF(p), ints or Fractions over
    the rationals.  Tree modules and their extensions hold ints in both.
    """

    __slots__ = ("field", "quiver", "dim", "maps")

    def __init__(self, field, quiver: Quiver, dim: DimVector, maps: tuple[tuple, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "maps", maps)


def base_change(module: TreeModule, field) -> FieldRep:
    """The tree module over a field: its 0/1 matrices as they are, since
    0 and 1 are plain ints in GF(p) and in QQ."""
    return FieldRep(field, module.quiver, module.dim, module.maps)


# ---------------------------------------------------------------------------
# tree modules by gluing

@lru_cache(maxsize=None)
def tree_module(quiver: Quiver, dim: DimVector) -> TreeModule:
    """The indecomposable representation with the given dimension vector,
    presented with 0/1 matrices.

    dim must be a positive root of the quiver's type.  A simple root
    gives the module with zero arrow matrices.  Any other root is glued
    from smaller ones: the first beta in positive_roots order such that
    gamma = dim - beta is a root and <gamma, beta> = -1.  The Euler form
    symmetrizes to the Cartan form, under which beta, gamma and dim all
    have length 2, so <beta, gamma> + <gamma, beta> = -1 and then
    <beta, gamma> = 0.  Hom and Ext1 between indecomposables of a Dynkin
    quiver are never both nonzero, so M_beta and M_gamma are
    Hom-orthogonal, Ext1(M_beta, M_gamma) = 0 and dim Ext1(M_gamma,
    M_beta) = 1.  The module is the middle term of the extension of
    M_gamma by M_beta whose cocycle is a single unit entry, so every
    entry stays in {0, 1}.

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
        if gamma not in roots or euler_form(quiver, gamma, beta) != -1:
            continue
        sub = base_change(tree_module(quiver, beta), QQ)
        quot = base_change(tree_module(quiver, gamma), QQ)
        middle = extension_middle(quot, sub, ext_cocycle_basis(quot, sub)[0])
        return TreeModule(quiver, middle.dim, middle.maps)
    raise TreeModuleError(
        f"no gluing pair of roots found for {dim!r} over {quiver.dynkin}"
    )


# ---------------------------------------------------------------------------
# Hom and Ext over a field

def _hom_equations(m: FieldRep, n: FieldRep):
    """The intertwining equations f_t M_a = N_a f_s of Hom(m, n), with
    the number of unknowns.  There is one sparse {unknown: entry} row
    per arrow a: s -> t and entry (i, j) of f_t M_a, zero rows included,
    in arrow order and then row-major, so row r is coordinate r of the
    per-arrow correction space of ext_cocycle_basis.  The unknown
    f_v[i][k] is column offsets[v] + i * m.dim[v] + k.  The entries are
    the matrices' own, over every field: ints for the tree modules and
    for the inputs decompose_dims has scaled, which linalg.rank then
    eliminates without a Fraction; any other rational rep is cleared of
    denominators row by row there."""
    if m.quiver != n.quiver or m.field != n.field:
        raise ValueError("representations live over different data")
    offsets, total = [], 0
    for dm, dn in zip(m.dim, n.dim):
        offsets.append(total)
        total += dm * dn
    rows = []
    for (s, t), ma, na in zip(m.quiver.arrows, m.maps, n.maps):
        ds, dt, es = m.dim[s - 1], m.dim[t - 1], n.dim[s - 1]
        at_t, at_s = offsets[t - 1], offsets[s - 1]
        for i, nrow in enumerate(na):
            for j in range(ds):
                row = {at_t + i * dt + k: ma[k][j] for k in range(dt) if ma[k][j]}
                for l in range(es):
                    if nrow[l]:
                        row[at_s + l * ds + j] = -nrow[l]
                rows.append(row)
    return total, rows


def hom_basis(m: FieldRep, n: FieldRep):
    """Basis of Hom(m, n) as tuples of per-vertex matrices."""
    total, equations = _hom_equations(m, n)
    rows = []
    for equation in equations:
        row = [0] * total
        for c, x in equation.items():
            row[c] = x
        rows.append(row)
    out = []
    for vec in nullspace(m.field, rows, ncols=total):
        per_vertex, off = [], 0
        for dm, dn in zip(m.dim, n.dim):
            per_vertex.append(tuple(vec[off + i * dm:off + (i + 1) * dm] for i in range(dn)))
            off += dm * dn
        out.append(tuple(per_vertex))
    return out


def hom_dim(m: FieldRep, n: FieldRep) -> int:
    """dim Hom(m, n): the unknowns of the intertwining equations less
    their rank."""
    total, rows = _hom_equations(m, n)
    return total - rank(m.field, rows)


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
    return FieldRep(field, n.quiver, tuple(new_dim), tuple(maps))


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
    """Cocycles spanning Ext1(m, n): unit vectors at the coordinates of
    the per-arrow correction space that complement the coboundaries.

    The coboundary of the vertex maps f is f_t M_a - N_a f_s, so the
    intertwining equations of Hom(m, n) are the rows of its matrix, one
    per coordinate.  Returns a list of tuples of per-arrow matrices psi_a
    of shape n_dim[t] x m_dim[s], with int entries 0 and 1.
    """
    unknowns, rows = _hom_equations(m, n)
    coboundaries = [[0] * len(rows) for _ in range(unknowns)]
    for coord, row in enumerate(rows):
        for c, x in row.items():
            coboundaries[c][coord] = x
    pivots = set(rref(m.field, coboundaries)[1])
    basis = []
    for coord in range(len(rows)):
        if coord in pivots:
            continue
        per_arrow = []
        base = 0
        for s, t in m.quiver.arrows:
            cols = m.dim[s - 1]
            per_arrow.append(tuple(
                tuple(int(base + i * cols + j == coord) for j in range(cols))
                for i in range(n.dim[t - 1])
            ))
            base += n.dim[t - 1] * cols
        basis.append(tuple(per_arrow))
    return basis


def extension_middle(m: FieldRep, n: FieldRep, cocycle) -> FieldRep:
    """Middle term of the extension of m by n given by a cocycle.

    Vertex spaces are n_v (+) m_v; the arrow matrices are block upper
    triangular with the cocycle in the corner and int zeros below it.
    """
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
            rows.append((0,) * es + tuple(ma[i]))
        maps.append(tuple(rows))
    return FieldRep(m.field, quiver, dims, tuple(maps))


# ---------------------------------------------------------------------------
# the Hom table between indecomposables, and Krull-Schmidt by it

class HomTable:
    """dim Hom between the indecomposables of one quiver, over any field.

    roots are the positive roots in indecomposable_dims order, and
    hom[i][j] = max(<roots[i], roots[j]>, 0): the path algebra of a
    Dynkin quiver is representation-directed, so Hom and Ext1 between
    indecomposables, whose dimensions differ by <., .>, are never both
    nonzero (Ringel, Tame algebras and integral quadratic forms, LNM
    1099, 1984).
    order is the linear extension (root_system.linear_extension) that
    puts every j != i with Hom(M_i, M_j) != 0 before i: in it the table is
    unitriangular, since indecomposables are bricks and Hom between them
    has no cycles.
    """

    __slots__ = ("roots", "hom", "order")

    def __init__(self, quiver: Quiver):
        rs = _root_system_for(quiver.dynkin)
        self.roots = rs.positive_roots
        pairing = root_system.euler_pairing(rs, quiver.arrows)
        self.hom = hom = tuple(tuple(max(x, 0) for x in row) for row in pairing)
        n = len(hom)
        before = [sum(1 << j for j, h in enumerate(row) if h and j != i) for i, row in enumerate(hom)]
        self.order = tuple(root_system.linear_extension(before))
        if len(self.order) != n or any(hom[i][i] != 1 for i in range(n)):
            raise RuntimeError("the Hom table of the indecomposables is not unitriangular")


hom_table = lru_cache(maxsize=None)(HomTable)


def decompose_dims(rep: FieldRep) -> tuple[DimVector, ...]:
    """Dimension vectors of the indecomposable summands, sorted, with
    multiplicity.

    Every indecomposable is a tree module M_beta (Gabriel 1972), and a
    module X is determined by the numbers h(beta) = dim Hom(M_beta, X)
    (Auslander 1982).  If X is the sum of m_gamma copies of M_gamma, then
    h(beta) is the sum of m_gamma dim Hom(M_beta, M_gamma), a system that
    is unitriangular in the Hom table's order, so the multiplicities come
    by back-substitution.  Only the roots beta <= dim X can be summands,
    and only they are solved for.

    Over QQ, X is first replaced by a copy with each arrow's matrix
    multiplied by the lcm of its denominators (linalg._integer_matrix),
    so every Hom equation is on ints.  The copy is isomorphic to X: a
    Dynkin quiver is a tree, so the vertex spaces can be rescaled one by
    one outward from any vertex, each absorbing the factor of the arrow
    that reaches it.
    """
    table = hom_table(rep.quiver)
    if not rep.field.char:
        maps = tuple(linalg._integer_matrix(mat)[0] for mat in rep.maps)
        rep = FieldRep(rep.field, rep.quiver, rep.dim, maps)
    mult = {}
    for i in table.order:
        if all(x <= y for x, y in zip(table.roots[i], rep.dim)):
            hom = table.hom[i]
            m = base_change(tree_module(rep.quiver, table.roots[i]), rep.field)
            k = hom_dim(m, rep) - sum(hom[j] * c for j, c in mult.items())
            if k < 0:
                raise RuntimeError("negative multiplicity; the Hom vector is inconsistent")
            if k:
                mult[i] = k
    summands = tuple(sorted(table.roots[i] for i, k in mult.items() for _ in range(k)))
    if tuple(sum(d[v] for d in summands) for v in range(len(rep.dim))) != tuple(rep.dim):
        raise RuntimeError("the summands do not add up to the dimension vector")
    return summands
