"""Root systems, Weyl elements, and noncrossing partition lattices."""
import itertools
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest

from thicklat.linalg import int_identity, int_mat_mul
from thicklat.quiver_rep import default_orientation
from thicklat.root_system import (
    DynkinType,
    NcLattice,
    WeylElement,
    _bits,
    build_root_system,
    catalan_number,
    coxeter_element,
    enumerate_nc,
    linear_extension,
    nc_to_set_partition,
    moved_roots,
    reflection,
    reflection_length,
    reflection_mats,
    simple_reflection,
)

from nc_oracle import (
    NcOracle,
    assert_mask_lattice_matches_oracle,
    assert_masks_match_columns,
    int_mat_inverse,
    is_noncrossing_partition,
)
from test_quiver_rep import orientations
from test_thick_enum import OTHER_ORIENTATIONS

POSITIVE_ROOT_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "A4": 10,
    "D4": 12,
    "D5": 20,
    "E6": 36,
}

CATALAN = {
    "A1": 2,
    "A2": 5,
    "A3": 14,
    "A4": 42,
    "D4": 50,
    "D5": 182,
    "E6": 833,
    "E7": 4160,
    "E8": 25080,
}


def nc_lattice(name: str) -> NcLattice:
    dynkin = DynkinType.parse(name)
    return NcLattice(build_root_system(dynkin), default_orientation(dynkin))


def weyl_elements(lattice: NcLattice) -> list[WeylElement]:
    """The Weyl element of each node: the product of its label's
    reflections, leftmost factor first."""
    refls = reflection_mats(lattice.rs)
    out = []
    for i in range(len(lattice)):
        mat = int_identity(lattice.rs.rank)
        for k in lattice.reflection_factorization(i):
            mat = int_mat_mul(mat, refls[k])
        out.append(WeylElement(mat))
    return out




def assert_atoms_and_coatoms(lattice: NcLattice):
    """Every reflection t lies below c, so the atoms are the reflections
    and the coatoms the c*t, one of each per positive root."""
    rs, weyl = lattice.rs, weyl_elements(lattice)
    bottom, top = lattice.index[0], lattice.top()
    covers = lattice.covers()
    atoms = {weyl[j] for i, j in covers if i == bottom}
    coatoms = {weyl[i] for i, j in covers if j == top}
    refls = [reflection(rs, r) for r in rs.positive_roots]
    c = coxeter_element(rs, lattice.arrows)
    assert len(atoms) == len(coatoms) == len(rs.positive_roots)
    assert atoms == set(refls)
    assert coatoms == {c * t for t in refls}


def assert_order_matches_rank_oracle(lattice: NcLattice):
    """The order against its definition: u <= w iff reflection lengths
    add up along u, u^-1 w, w."""
    weyl = weyl_elements(lattice)
    for i, u in enumerate(weyl):
        inverse = int_mat_inverse(u.mat)
        for j, w in enumerate(weyl):
            rest = WeylElement(int_mat_mul(inverse, w.mat))
            expected = (
                reflection_length(u) + reflection_length(rest) == reflection_length(w)
            )
            assert lattice.leq(i, j) == expected


def test_dynkin_parsing_and_validation():
    assert str(DynkinType.parse("a3")) == "A3"
    assert DynkinType.parse("E6").rank == 6
    for bad in ("Z3", "A0", "D3", "E5", "E9", "A", "7"):
        with pytest.raises(ValueError):
            DynkinType.parse(bad)
    # a superscript is a digit to str.isdigit, but not a decimal
    with pytest.raises(ValueError, match="cannot parse Dynkin type 'A²'"):
        DynkinType.parse("A²")


def test_diagram_edges_shapes():
    assert DynkinType.parse("A4").diagram_edges() == ((1, 2), (2, 3), (3, 4))
    assert DynkinType.parse("D4").diagram_edges() == ((1, 2), (2, 3), (2, 4))
    assert DynkinType.parse("E6").diagram_edges() == (
        (1, 3),
        (2, 4),
        (3, 4),
        (4, 5),
        (5, 6),
    )


def simple_roots(rs) -> tuple[tuple[int, ...], ...]:
    """The unit vectors, in simple-root coordinates."""
    return tuple(
        tuple(1 if i == j else 0 for j in range(rs.rank)) for i in range(rs.rank)
    )


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = build_root_system(DynkinType.parse(name))
    assert len(rs.positive_roots) == count
    # roots come sorted by height then lexicographically, simples first
    heights = [sum(r) for r in rs.positive_roots]
    assert heights == sorted(heights)
    assert set(rs.positive_roots[: rs.rank]) == set(simple_roots(rs))


@pytest.mark.parametrize("name,value", sorted(CATALAN.items()))
def test_catalan_formula(name, value):
    dynkin = DynkinType.parse(name)
    assert catalan_number(dynkin) == value
    # cross-check against the defining product
    h = dynkin.coxeter_number()
    numerator = 1
    denominator = 1
    for d in dynkin.degrees():
        numerator *= h + d
        denominator *= d
    assert numerator % denominator == 0
    assert numerator // denominator == value


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_reflection_length_against_group_bfs(name):
    """Brute-force oracle: true word length over all reflections, by BFS."""
    rs = build_root_system(DynkinType.parse(name))
    refls = [reflection(rs, r) for r in rs.positive_roots]
    identity = WeylElement(
        tuple(
            tuple(1 if i == j else 0 for j in range(rs.rank))
            for i in range(rs.rank)
        )
    )
    lengths = {identity.mat: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for t in refls:
                prod = WeylElement(int_mat_mul(t.mat, w.mat))
                if prod.mat not in lengths:
                    lengths[prod.mat] = lengths[w.mat] + 1
                    nxt.append(prod)
        frontier = nxt
    # the whole group was generated and every length matches the rank formula
    for mat, length in lengths.items():
        assert reflection_length(WeylElement(mat)) == length


def apply(w: WeylElement, vector) -> tuple:
    """The image of a root-coordinate vector under w."""
    return tuple(sum(x * y for x, y in zip(row, vector)) for row in w.mat)


def is_root_permutation(rs, w: WeylElement) -> bool:
    """Whether w permutes the set of roots (positive and negative)."""
    roots = set(rs.positive_roots)
    roots.update(tuple(-x for x in r) for r in rs.positive_roots)
    return all(apply(w, r) in roots for r in roots)


def test_reflections_are_involutions_and_permute_roots():
    rs = build_root_system(DynkinType.parse("D4"))
    for root in rs.positive_roots:
        t = reflection(rs, root)
        assert reflection_length(t) == 1
        assert int_mat_mul(t.mat, t.mat) == int_identity(rs.rank)
        assert is_root_permutation(rs, t)
        # t sends its own root to the negative
        assert apply(t, root) == tuple(-x for x in root)


def test_linear_extension_takes_the_smallest_free_index():
    # 0 waits for 2 and 1 for 3; 2 and 3 start free, and taking 2 frees 0,
    # which is smaller than 3
    assert linear_extension([0b100, 0b1000, 0, 0]) == [2, 0, 3, 1]
    assert linear_extension([0, 0, 0]) == [0, 1, 2]
    assert linear_extension([]) == []
    # 1 and 2 wait for each other, so the list stops after 0 and 3
    assert linear_extension([0, 0b100, 0b010, 0b001]) == [0, 3]


def test_coxeter_element_sink_first_convention():
    dynkin = DynkinType.parse("A2")
    rs = build_root_system(dynkin)
    quiver = default_orientation(dynkin)  # arrow 1 -> 2, sink is 2
    c = coxeter_element(rs, quiver)
    s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
    assert c.mat == int_mat_mul(s2.mat, s1.mat)
    assert reflection_length(c) == 2
    # the opposite orientation gives the other Coxeter element
    from thicklat.quiver_rep import Quiver

    reversed_quiver = Quiver(dynkin, ((2, 1),))
    c_rev = coxeter_element(rs, reversed_quiver)
    assert c_rev.mat == int_mat_mul(s1.mat, s2.mat)
    assert c.mat != c_rev.mat


@pytest.mark.parametrize("name", sorted(set(CATALAN) - {"E7", "E8"}))
def test_enumerate_nc_counts(name):
    lattice = nc_lattice(name)
    assert len(lattice) == CATALAN[name]


# ---------------------------------------------------------------------------
# closed forms for the shape of NC(W, c): the rank sizes are the Narayana
# numbers, the h-vector of the generalized associahedron (Fomin-Reading,
# Root systems and generalized associahedra, 2005; Armstrong, Generalized
# noncrossing partitions and combinatorics of Coxeter groups, Mem. AMS
# 2009), and mu(e, c) = (-1)^n prod_i (h + d_i - 2) / d_i


def _binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


# published rank sizes of the exceptional types, where no closed form is used
EXCEPTIONAL_NARAYANA = {
    "E6": [1, 36, 204, 351, 204, 36, 1],
    "E8": [1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1],
}


def narayana_numbers(dynkin: DynkinType) -> list | None:
    """The number of elements of each reflection length 0..n, or None
    where neither a closed form nor a table is at hand (E7)."""
    n = dynkin.rank
    if dynkin.letter == "A":
        return [Fraction(comb(n + 1, k) * comb(n + 1, k + 1), n + 1) for k in range(n + 1)]
    if dynkin.letter == "D":
        return [
            comb(n, k) ** 2 - Fraction(n, n - 1) * comb(n - 1, k) * _binom(n - 1, k - 1)
            for k in range(n + 1)
        ]
    return EXCEPTIONAL_NARAYANA.get(str(dynkin))


def rank_sizes(lattice: NcLattice) -> list[int]:
    sizes = Counter(lattice.lengths)
    return [sizes[k] for k in range(lattice.rs.rank + 1)]


def mobius_number(dynkin: DynkinType) -> Fraction:
    """mu(e, c) = (-1)^n prod_i (h + d_i - 2) / d_i."""
    h = dynkin.coxeter_number()
    return (-1) ** dynkin.rank * prod(Fraction(h + d - 2, d) for d in dynkin.degrees())


def lattice_mobius(lattice: NcLattice) -> int:
    """mu(e, c) by its recursion over the down-sets of the covers:
    mu(e, e) = 1 and mu(e, x) = -sum of mu(e, y) over the y < x."""
    _, down = lattice._masks()
    mu = [0] * len(lattice)
    for x in sorted(range(len(lattice)), key=lattice.lengths.__getitem__):
        mu[x] = -sum(mu[y] for y in _bits(down[x] & ~(1 << x))) if lattice.lengths[x] else 1
    return mu[lattice.top()]


def assert_closed_forms(lattice: NcLattice):
    dynkin = lattice.rs.dynkin
    sizes = rank_sizes(lattice)
    assert sizes == sizes[::-1]
    assert sizes[1] == len(lattice.rs.positive_roots)
    assert sum(sizes) == catalan_number(dynkin)
    expected = narayana_numbers(dynkin)
    if expected is not None:
        assert sizes == expected
    assert lattice_mobius(lattice) == mobius_number(dynkin)


CLOSED_FORM_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7"]


@pytest.mark.parametrize("name", CLOSED_FORM_TYPES)
def test_rank_sizes_and_mobius_number_match_closed_forms(name):
    assert_closed_forms(nc_lattice(name))


def test_closed_forms_hold_in_another_orientation():
    for name, arrows in OTHER_ORIENTATIONS.items():
        dynkin = DynkinType.parse(name)
        assert_closed_forms(NcLattice(build_root_system(dynkin), arrows))


def test_closed_forms_are_the_known_values():
    """The formulas themselves, against values computed by hand."""
    assert narayana_numbers(DynkinType.parse("A3")) == [1, 6, 6, 1]
    assert narayana_numbers(DynkinType.parse("D4")) == [1, 12, 24, 12, 1]
    assert [mobius_number(DynkinType.parse(n)) for n in ("A3", "D4", "E6", "E7", "E8")] == [
        -5, 20, 418, -2431, 17342,
    ]
    assert sum(EXCEPTIONAL_NARAYANA["E8"]) == CATALAN["E8"]


def test_enumerate_nc_is_deterministic():
    a, b = nc_lattice("A3"), nc_lattice("A3")
    assert a.elements == b.elements and a.lengths == b.lengths
    dynkin = DynkinType.parse("A3")
    found = enumerate_nc(build_root_system(dynkin), default_orientation(dynkin))
    assert a.elements == tuple(sorted(found))
    assert a.lengths == tuple(found[m] for m in a.elements)


def test_nc_element_rejects_outsiders():
    """The products of two reflections that the lattice holds are those
    below c by the length identity l(w) + l(w^-1 c) = l(c)."""
    lattice = nc_lattice("A3")
    rs = lattice.rs
    c = coxeter_element(rs, lattice.arrows)
    inside = set(weyl_elements(lattice))
    refls = [reflection(rs, r) for r in rs.positive_roots]
    rejected = 0
    for t, u in itertools.product(refls, repeat=2):
        w = WeylElement(int_mat_mul(t.mat, u.mat))
        rest = WeylElement(int_mat_mul(int_mat_inverse(w.mat), c.mat))
        below = reflection_length(w) + reflection_length(rest) == rs.rank
        assert (w in inside) == below
        rejected += not below
    assert rejected > 0


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_nc_partial_order_axioms(name):
    lattice = nc_lattice(name)
    n = len(lattice)
    for i in range(n):
        assert lattice.leq(i, i)
    for i in range(n):
        for j in range(n):
            if i != j and lattice.leq(i, j):
                assert not lattice.leq(j, i)
                assert lattice.lengths[i] < lattice.lengths[j]
    for i in range(n):
        for j in range(n):
            if not lattice.leq(i, j):
                continue
            for k in range(n):
                if lattice.leq(j, k):
                    assert lattice.leq(i, k)
    assert_atoms_and_coatoms(lattice)


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_nc_lattice_laws(name):
    lattice = nc_lattice(name)
    n = len(lattice)
    join = [[lattice.join(i, j) for j in range(n)] for i in range(n)]
    meet = [[lattice.meet(i, j) for j in range(n)] for i in range(n)]
    bottom, top = lattice.index[0], lattice.top()
    for i in range(n):
        assert join[i][i] == i and meet[i][i] == i
        assert join[i][bottom] == i and meet[i][top] == i
        assert join[i][top] == top and meet[i][bottom] == bottom
        for j in range(n):
            assert join[i][j] == join[j][i]
            assert meet[i][j] == meet[j][i]
            # absorption
            assert meet[i][join[i][j]] == i
            assert join[i][meet[i][j]] == i
            # compatibility with the order
            assert lattice.leq(i, join[i][j]) and lattice.leq(meet[i][j], i)
            if lattice.leq(i, j):
                assert join[i][j] == j and meet[i][j] == i
    for i, j, k in itertools.product(range(n), repeat=3):
        assert join[join[i][j]][k] == join[i][join[j][k]]
        assert meet[meet[i][j]][k] == meet[i][meet[j][k]]


def _scan_bound(masks, i, j):
    """Oracle for join (up-set masks) or meet (down-set masks): the
    linear scan for the element whose mask holds all common bounds."""
    common = masks[i] & masks[j]
    for k in range(len(masks)):
        if (common >> k) & 1 and (common & masks[k]) == common:
            return k
    return None


@pytest.mark.parametrize(
    "name,oriented",
    [
        pytest.param(name, oriented, id=f"{name}-oriented" if oriented else name)
        for name in ("A3", "D4", "D5")
        for oriented in (False, True)
    ],
)
def test_join_and_meet_match_linear_scan(name, oriented):
    """The joins, which close root masks under the orientation's Euler
    perpendiculars, and the meets against the up-sets and down-sets that
    the covers build."""
    dynkin = DynkinType.parse(name)
    arrows = OTHER_ORIENTATIONS[name] if oriented else dynkin.diagram_edges()
    lattice = NcLattice(build_root_system(dynkin), arrows)
    up, down = lattice._masks()
    for i, j in itertools.product(range(len(lattice)), repeat=2):
        assert lattice.join(i, j) == _scan_bound(up, i, j)
        assert lattice.meet(i, j) == _scan_bound(down, i, j)


def test_join_and_meet_raise_outside_a_lattice():
    """A join or meet whose root mask indexes no element raises: here the
    index loses the join of two atoms, then the bottom."""
    lattice = nc_lattice("A3")
    a, b = [i for i in range(len(lattice)) if lattice.lengths[i] == 1][:2]
    del lattice.index[lattice.elements[lattice.join(a, b)]]
    with pytest.raises(RuntimeError, match="join does not exist"):
        lattice.join(a, b)
    assert lattice.meet(a, b) == lattice.index[0]
    del lattice.index[0]
    with pytest.raises(RuntimeError, match="meet does not exist"):
        lattice.meet(a, b)
    assert lattice.join(a, lattice.top()) == lattice.top()


@pytest.mark.parametrize("name", ["A3", "D4", "D5"])
def test_nc_order_matches_rank_oracle(name):
    assert_order_matches_rank_oracle(nc_lattice(name))


def test_covers_are_transitive_reduction():
    lattice = nc_lattice("A3")
    n = len(lattice)
    covers = set(lattice.covers())
    for i in range(n):
        for j in range(n):
            strict = i != j and lattice.leq(i, j)
            between = any(
                k != i and k != j and lattice.leq(i, k) and lattice.leq(k, j)
                for k in range(n)
            )
            assert ((i, j) in covers) == (strict and not between)
    # covers raise length by exactly one
    for i, j in covers:
        assert lattice.lengths[j] == lattice.lengths[i] + 1


@pytest.mark.parametrize("name,points", [("A1", 2), ("A2", 3), ("A3", 4)])
def test_type_a_set_partitions(name, points):
    lattice = nc_lattice(name)
    seen = set()
    for element, length in zip(lattice.elements, lattice.lengths):
        blocks = nc_to_set_partition(lattice.rs, element)
        seen.add(blocks)
        covered = sorted(x for b in blocks for x in b)
        assert covered == list(range(1, points + 1))
        assert is_noncrossing_partition(blocks)
        # block count tracks the reflection length
        assert len(blocks) == points - length
    assert len(seen) == len(lattice)


def test_type_a_order_is_refinement_order():
    lattice = nc_lattice("A3")
    parts = [nc_to_set_partition(lattice.rs, e) for e in lattice.elements]

    def refines(p, q):
        return all(any(set(b) <= set(c) for c in q) for b in p)

    n = len(lattice)
    for i in range(n):
        for j in range(n):
            assert lattice.leq(i, j) == refines(parts[i], parts[j])


def test_is_noncrossing_partition_detects_crossings():
    assert is_noncrossing_partition(((1, 3), (2, 4))) is False
    assert is_noncrossing_partition(((1, 4), (2, 3))) is True
    assert is_noncrossing_partition(((1, 2, 3, 4),)) is True


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_reflection_factorization_properties(name):
    rs = build_root_system(DynkinType.parse(name))
    lattice = nc_lattice(name)
    mats = NcOracle(rs, lattice.arrows).mat_of
    refls = [reflection(rs, r) for r in rs.positive_roots]
    for i, element in enumerate(lattice.elements):
        factors = lattice.reflection_factorization(i)
        assert len(factors) == lattice.lengths[i]
        prod = WeylElement(int_identity(rs.rank))
        # leftmost factor first: w = t_{i1} t_{i2} ... t_{ik}
        for idx in factors:
            prod = WeylElement(int_mat_mul(prod.mat, refls[idx].mat))
        assert prod.mat == mats[element]
        assert moved_roots(rs, prod) == element


def _greedy_factorization(rs, w):
    """Oracle: try the reflections in index order and keep the first one
    whose left product drops the reflection length, until e is reached."""
    refls = [reflection(rs, r) for r in rs.positive_roots]
    out = []
    cur = w
    while reflection_length(cur) > 0:
        for i, t in enumerate(refls):
            nxt = WeylElement(int_mat_mul(t.mat, cur.mat))
            if reflection_length(nxt) == reflection_length(cur) - 1:
                out.append(i)
                cur = nxt
                break
        else:
            raise AssertionError("no length-decreasing reflection found")
    return tuple(out)


@pytest.mark.parametrize("name", ["A3", "D4", "D5"])
def test_reflection_factorization_matches_greedy_oracle(name):
    rs = build_root_system(DynkinType.parse(name))
    lattice = nc_lattice(name)
    mats = NcOracle(rs, lattice.arrows).mat_of
    for i, element in enumerate(lattice.elements):
        assert lattice.reflection_factorization(i) == _greedy_factorization(
            rs, WeylElement(mats[element])
        )


def moved_roots_factorization(rs, w):
    """Oracle: the greedy factorization with R(t*w) solved afresh by
    moved_roots at every step, outside any lattice."""
    out = []
    cur = w
    while True:
        moved = moved_roots(rs, cur)
        if not moved:
            return tuple(out)
        i = (moved & -moved).bit_length() - 1
        out.append(i)
        t = reflection(rs, rs.positive_roots[i])
        cur = WeylElement(int_mat_mul(t.mat, cur.mat))


def assert_factorizations_match_moved_roots_oracle(lattice):
    mats = NcOracle(lattice.rs, lattice.arrows).mat_of
    for i, element in enumerate(lattice.elements):
        assert lattice.reflection_factorization(i) == moved_roots_factorization(
            lattice.rs, WeylElement(mats[element])
        )


@pytest.mark.parametrize("name", ["A3", "A4", "D4", "D5"])
def test_reflection_factorization_matches_moved_roots_oracle(name):
    assert_factorizations_match_moved_roots_oracle(nc_lattice(name))


def test_reflection_factorization_in_any_orientation():
    dynkin = DynkinType.parse("D5")
    rs = build_root_system(dynkin)
    arrows = ((2, 1), (3, 2), (3, 4), (5, 3))
    assert_factorizations_match_moved_roots_oracle(NcLattice(rs, arrows))


def test_reflection_factorization_is_lex_minimal():
    """Oracle: exhaustive search over all shortest reflection words."""
    rs = build_root_system(DynkinType.parse("A3"))
    lattice = nc_lattice("A3")
    mats = NcOracle(rs, lattice.arrows).mat_of
    refls = [reflection(rs, r) for r in rs.positive_roots]
    nrefl = len(refls)
    for i, element in enumerate(lattice.elements):
        k = lattice.lengths[i]
        best = None
        for word in itertools.product(range(nrefl), repeat=k):
            prod_mat = None
            for idx in word:
                prod_mat = (
                    refls[idx].mat
                    if prod_mat is None
                    else int_mat_mul(prod_mat, refls[idx].mat)
                )
            if k == 0:
                prod_mat = tuple(
                    tuple(1 if i == j else 0 for j in range(rs.rank))
                    for i in range(rs.rank)
                )
            if prod_mat == mats[element] and (best is None or word < best):
                best = word
        assert lattice.reflection_factorization(i) == best


def test_coxeter_element_rejects_wrong_diagram():
    dynkin = DynkinType.parse("A3")
    rs = build_root_system(dynkin)

    class FakeQuiver:
        arrows = ((1, 2), (1, 3))  # not the A3 diagram

    with pytest.raises(ValueError):
        coxeter_element(rs, FakeQuiver())


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5"])
def test_mask_lattice_matches_matrix_walk_in_every_orientation(name):
    rs = build_root_system(DynkinType.parse(name))
    for quiver in orientations(name):
        assert_mask_lattice_matches_oracle(NcLattice(rs, quiver))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_cover_built_masks_match_root_columns_in_every_orientation(name):
    rs = build_root_system(DynkinType.parse(name))
    for quiver in orientations(name):
        assert_masks_match_columns(NcLattice(rs, quiver))


def test_nc_lattice_rejects_wrong_diagram():
    rs = build_root_system(DynkinType.parse("A3"))
    with pytest.raises(ValueError):
        NcLattice(rs, ((1, 2), (1, 3)))


def test_set_partitions_need_type_a():
    lattice = nc_lattice("D4")
    with pytest.raises(ValueError, match="type A"):
        nc_to_set_partition(lattice.rs, lattice.elements[lattice.top()])
