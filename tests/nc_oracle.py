"""Slow reference paths for the mask lattice and the seeded simples.

NcOracle is NC(W, c) as the Weyl-matrix walk that the library used
before it switched to moved-root masks: walked down from c through the
products w*t with the root of t in R(w) (Carter's lemma), R(w) solved by
one nullspace per element (moved_roots), the order as pairwise mask
inclusion, covers as comparable pairs one length apart, labels by matrix
lookup and type A blocks as the cycles of the permutation that the
matrix induces.  is_noncrossing_partition checks type A blocks for
interleaving.  column_masks builds up-sets and down-sets by root
columns.  RepTable is the Hom table of a quiver over a field by rank,
by root index, and dims_of turns a mask over the indecomposables back into
dimension vectors.  oracle_simples finds the simples of a wide
subcategory by scanning for injective morphisms between its members.
"""
from itertools import product

from thicklat.linalg import QQ, int_mat_mul, rref
from thicklat.quiver_rep import (
    base_change,
    euler_form,
    hom_basis,
    hom_dim,
    indecomposable_dims,
    kernel_rep,
    tree_module,
)
from thicklat.root_system import (
    WeylElement,
    _bits,
    coxeter_element,
    moved_roots,
    nc_to_set_partition,
    reflection_length,
    reflection_mats,
)

from decompose_oracle import morphism_from_coeffs


def int_mat_inverse(mat):
    """Inverse of an integer matrix with determinant +-1.

    Raises ValueError if the matrix is singular or the inverse is not
    integral.
    """
    n = len(mat)
    red, pivots = rref(QQ, [list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = []
    for row in red:
        if any(x.denominator != 1 for x in row[n:]):
            raise ValueError("inverse is not integral")
        inv.append(tuple(int(x) for x in row[n:]))
    return tuple(inv)


def _type_a_permutation(mat) -> dict[int, int]:
    """The permutation of {1..n+1} given by a type A Weyl element."""
    n = len(mat)
    perm: dict[int, int] = {}
    for i in range(1, n + 1):
        col = tuple(mat[r][i - 1] for r in range(n))
        ambient = [0] * (n + 1)
        for k in range(n + 1):
            prev = col[k - 1] if k >= 1 else 0
            cur = col[k] if k < n else 0
            ambient[k] = cur - prev
        plus = [k + 1 for k, x in enumerate(ambient) if x == 1]
        minus = [k + 1 for k, x in enumerate(ambient) if x == -1]
        if len(plus) != 1 or len(minus) != 1:
            raise RuntimeError("matrix does not act as a permutation")
        for key, val in ((i, plus[0]), (i + 1, minus[0])):
            if perm.setdefault(key, val) != val:
                raise RuntimeError("inconsistent permutation extraction")
    return perm


def cycle_partition(mat) -> tuple[tuple[int, ...], ...]:
    """Cycle partition of {1..rank+1} of a type A Weyl matrix, blocks
    sorted ascending and listed by smallest member."""
    perm = _type_a_permutation(mat)
    seen: set[int] = set()
    blocks = []
    for start in range(1, len(mat) + 2):
        if start in seen:
            continue
        block = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            block.append(cur)
            seen.add(cur)
            cur = perm[cur]
        blocks.append(tuple(sorted(block)))
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)


def _blocks_cross(first, second) -> bool:
    return any(
        a1 < b1 < a2 < b2
        for a1 in first
        for a2 in first
        for b1 in second
        for b2 in second
    )


def is_noncrossing_partition(blocks) -> bool:
    """Whether no two blocks interleave as a < b < a' < b'."""
    for i, blk in enumerate(blocks):
        for other in blocks[i + 1 :]:
            if _blocks_cross(blk, other) or _blocks_cross(other, blk):
                return False
    return True


class NcOracle:
    """NC(W, c) by Weyl matrices, elements in lexicographic matrix order."""

    def __init__(self, rs, arrows):
        self.rs = rs
        self.c = coxeter_element(rs, arrows)
        refls = reflection_mats(rs)
        moved = {self.c.mat: moved_roots(rs, self.c)}
        level = [self.c.mat]
        while level:
            below = []
            for mat in level:
                for k in _bits(moved[mat]):
                    child = int_mat_mul(mat, refls[k])
                    if child not in moved:
                        moved[child] = moved_roots(rs, WeylElement(child))
                        below.append(child)
            level = below
        self.mats = sorted(moved)
        self.moved = [moved[m] for m in self.mats]
        self.lengths = [reflection_length(WeylElement(m)) for m in self.mats]
        self.position = {m: i for i, m in enumerate(self.mats)}
        self.mat_of = dict(zip(self.moved, self.mats))
        self.up = [
            sum(1 << j for j, s in enumerate(self.moved) if r & ~s == 0)
            for r in self.moved
        ]
        self.down = [
            sum(1 << i for i, r in enumerate(self.moved) if r & ~s == 0)
            for s in self.moved
        ]

    def covers(self):
        """Comparable pairs one reflection length apart."""
        return {
            (i, j)
            for i in range(len(self.mats))
            for j in _bits(self.up[i])
            if self.lengths[j] == self.lengths[i] + 1
        }

    def label(self, i):
        """The greedy factorization: peel the reflection of the lowest
        root of R(w) off the left, finding t*w by its matrix."""
        refls = reflection_mats(self.rs)
        word = []
        while self.moved[i]:
            k = next(_bits(self.moved[i]))
            word.append(k)
            i = self.position[int_mat_mul(refls[k], self.mats[i])]
        return tuple(word)


def assert_mask_lattice_matches_oracle(lattice):
    """Masks, lengths, covers, labels, type A blocks, up-sets and
    down-sets of a mask lattice against the matrix walk."""
    oracle = NcOracle(lattice.rs, lattice.arrows)
    assert sorted(oracle.moved) == list(lattice.elements)
    at = [lattice.index[m] for m in oracle.moved]
    assert [lattice.lengths[k] for k in at] == oracle.lengths
    assert set(lattice.covers()) == {(at[i], at[j]) for i, j in oracle.covers()}
    assert len(lattice.covers()) == len(oracle.covers())
    for i, k in enumerate(at):
        assert lattice.reflection_factorization(k) == oracle.label(i)
    if lattice.rs.dynkin.letter == "A":
        for i, k in enumerate(at):
            assert nc_to_set_partition(
                lattice.rs, lattice.elements[k]
            ) == cycle_partition(oracle.mats[i])
    up, down = lattice._masks()
    for i, k in enumerate(at):
        assert {lattice.elements[j] for j in _bits(up[k])} == {
            oracle.moved[j] for j in _bits(oracle.up[i])
        }
        assert {lattice.elements[j] for j in _bits(down[k])} == {
            oracle.moved[j] for j in _bits(oracle.down[i])
        }


def column_masks(lattice):
    """Up-sets and down-sets of a mask lattice by root columns, as the
    library built them before it built them from the covers: col[r]
    holds the elements whose mask has root r, up[i] is the AND of col[r]
    over r in R(i) and down[j] the AND of the complements of col[r] over
    r not in R(j)."""
    col = [0] * len(lattice.rs.positive_roots)
    for i, m in enumerate(lattice.elements):
        for r in _bits(m):
            col[r] |= 1 << i
    full = (1 << len(lattice.elements)) - 1
    top = (1 << len(col)) - 1
    up, down = [], []
    for m in lattice.elements:
        above = below = full
        for r in _bits(m):
            above &= col[r]
        for r in _bits(top & ~m):
            below &= ~col[r]
        up.append(above)
        down.append(below)
    return up, down


def assert_masks_match_columns(lattice):
    """The lattice's up-sets and down-sets against column_masks."""
    up, down = lattice._masks()
    assert (list(up), list(down)) == column_masks(lattice)


def lines(field, n: int):
    """One nonzero vector of F^n per line through the origin: the vectors
    whose first nonzero entry is 1."""
    for lead in range(n):
        for tail in product(field.elements(), repeat=n - lead - 1):
            yield (field.zero,) * lead + (field.one,) + tail


def dims_of(quiver, mask: int) -> frozenset:
    """The dimension vectors of the indecomposables in a mask."""
    roots = indecomposable_dims(quiver)
    return frozenset(roots[i] for i in _bits(mask))


class RepTable:
    """The Hom table of one quiver over one field by rank: the tree
    modules over the field and hom_dim between every ordered pair, by
    root index, with dim Ext1 = dim Hom - <d, e> and masks of sets of
    dimension vectors.  It never reads quiver_rep.hom_table, the Euler
    form that the oracles built on it exist to check."""

    def __init__(self, quiver, field):
        self.quiver = quiver
        self.field = field
        self.roots = indecomposable_dims(quiver)
        self.reps = [base_change(tree_module(quiver, d), field) for d in self.roots]
        self.table = [[hom_dim(m, n) for n in self.reps] for m in self.reps]
        self.index = {d: i for i, d in enumerate(self.roots)}

    def hom(self, i: int, j: int) -> int:
        return self.table[i][j]

    def ext(self, i: int, j: int) -> int:
        return self.hom(i, j) - euler_form(self.quiver, self.roots[i], self.roots[j])

    def mask_of_dims(self, dims) -> int:
        return sum(1 << self.index[d] for d in set(dims))


def embeds(ctx, i: int, j: int) -> bool:
    """Whether some injective morphism root i -> root j exists, trying
    one morphism per line of Hom, as a unit multiple has the same
    kernel."""
    field = ctx.field
    m, n = ctx.reps[i], ctx.reps[j]
    if not all(a <= b for a, b in zip(m.dim, n.dim)) or not ctx.hom(i, j):
        return False
    basis = hom_basis(m, n)
    return any(
        sum(kernel_rep(morphism_from_coeffs(field, basis, c), m).dim) == 0
        for c in lines(field, len(basis))
    )


def oracle_simples(ctx, mask: int) -> int:
    """The mask of the members of a wide subcategory, given as a mask,
    with no proper nonzero subobject inside it, found by scanning
    injective morphisms from the other members."""
    members = list(_bits(mask))
    return sum(
        1 << d
        for d in members
        if not any(embeds(ctx, e, d) for e in members if e != d)
    )
