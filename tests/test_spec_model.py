"""Posets, monotone function lattices, size guard."""
import itertools
import math
from fractions import Fraction

import pytest

from thicklat.quiver_rep import Quiver, default_orientation
from thicklat.root_system import DynkinType, NcLattice, build_root_system
from thicklat.spec_model import (
    MAX_POSET_POINTS,
    FinitePoset,
    SizeGuardError,
    all_functions,
    monotone_functions,
    poset_antichain,
    poset_chain,
    poset_diamond,
    poset_point,
    size_guard_limit,
    smashing_count,
)

from specfn_oracle import cover_pairs


def nc_lattice(name: str) -> NcLattice:
    dynkin = DynkinType.parse(name)
    return NcLattice(build_root_system(dynkin), default_orientation(dynkin))


def is_specialization_closed(poset, nc, values) -> bool:
    """Whether the values, aligned with poset.elements, grow along the
    poset order."""
    pos = {p: i for i, p in enumerate(poset.elements)}
    return all(
        nc.leq(values[pos[a]], values[pos[b]]) for a, b in poset.leq if a != b
    )


def brute_covers(lattice, nc):
    """Transitive reduction straight from the pairwise order."""
    members = lattice.members
    n = len(members)
    leq = [
        [all(nc.leq(a, b) for a, b in zip(members[i], members[j])) for j in range(n)]
        for i in range(n)
    ]
    out = set()
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)):
                continue
            out.add((i, j))
    return out


def reduction_covers(lattice, nc):
    """Transitive reduction of the pointwise order on bitmasks.

    Each function is one one-hot integer (bit p*n + f(p)) and one up-set
    integer (the up-set of f(p) shifted to p*n), so f <= g iff the
    one-hot bits of g lie inside the up-set bits of f.
    """
    n = len(nc)
    up = [sum(1 << j for j in range(n) if nc.leq(i, j)) for i in range(n)]
    onehot = [
        sum(1 << (p * n + v) for p, v in enumerate(values))
        for values in lattice.members
    ]
    upset = [
        sum(up[v] << (p * n) for p, v in enumerate(values))
        for values in lattice.members
    ]
    m = len(lattice.members)
    above = [
        sum(1 << j for j in range(m) if j != i and onehot[j] & ~upset[i] == 0)
        for i in range(m)
    ]
    out = set()
    for i in range(m):
        higher = [j for j in range(m) if (above[i] >> j) & 1]
        beyond = 0
        for j in higher:
            beyond |= above[j]
        out.update((i, j) for j in higher if not (beyond >> j) & 1)
    return out


# ---------------------------------------------------------------------------
# posets


def test_builtin_poset_shapes():
    assert poset_point().elements == ("p0",)
    chain = poset_chain(3)
    assert chain.elements == ("p0", "p1", "p2")
    assert chain.less("p0", "p2") and not chain.less("p2", "p0")
    anti = poset_antichain(3)
    assert not any(
        anti.less(a, b) for a in anti.elements for b in anti.elements
    )
    diamond = poset_diamond()
    assert diamond.less("p0", "p3")
    assert diamond.less("p0", "p1") and diamond.less("p0", "p2")
    assert not diamond.less("p1", "p2") and not diamond.less("p2", "p1")


def test_from_covers_takes_transitive_closure():
    poset = FinitePoset.from_covers(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert poset.less("a", "c")
    order = poset.topological()
    assert order.index("a") < order.index("b") < order.index("c")


def test_from_covers_rejects_cycles():
    with pytest.raises(ValueError):
        FinitePoset.from_covers(("a", "b"), (("a", "b"), ("b", "a")))


def closure_by_fixed_point(elements, covers):
    """Transitive closure by adding composite pairs until none is new."""
    rel = {(x, x) for x in elements} | set(covers)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def test_from_covers_matches_fixed_point_closure():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        size = data.draw(st.integers(min_value=1, max_value=7))
        names = data.draw(st.permutations([f"p{i}" for i in range(size)]))
        pairs = list(itertools.combinations(names, 2))
        chosen = data.draw(
            st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        )
        covers = [pair for pair, keep in zip(pairs, chosen) if keep]
        poset = FinitePoset.from_covers(names, covers)
        assert poset.leq == closure_by_fixed_point(names, covers)
        position = {x: k for k, x in enumerate(poset.topological())}
        assert sorted(position) == sorted(names)
        assert all(position[a] <= position[b] for a, b in poset.leq)

    check()


def test_poset_validation_messages():
    names = ("a", "b", "c")
    refl = {(x, x) for x in names}
    with pytest.raises(ValueError, match="transitivity fails on 'a', 'b', 'c'"):
        FinitePoset(names, frozenset(refl | {("a", "b"), ("b", "c")}))
    with pytest.raises(ValueError, match="antisymmetry fails"):
        FinitePoset(names, frozenset(refl | {("a", "b"), ("b", "a")}))
    with pytest.raises(ValueError, match="not reflexive at 'c'"):
        FinitePoset(names, frozenset(refl - {("c", "c")}))
    with pytest.raises(ValueError, match="unknown elements"):
        FinitePoset(names, frozenset(refl | {("a", "z")}))
    with pytest.raises(ValueError, match="unknown elements"):
        FinitePoset.from_covers(names, (("a", "z"),))


def test_posets_over_the_point_cap_are_refused():
    cap = MAX_POSET_POINTS
    assert len(poset_chain(cap).leq) == cap * (cap + 1) // 2
    assert len(poset_antichain(cap).leq) == cap
    names = tuple(f"p{i}" for i in range(cap + 1))
    for build in (
        lambda: poset_chain(cap + 1),
        lambda: poset_antichain(10**30),
        lambda: FinitePoset.from_covers(names, ()),
        lambda: FinitePoset(names, frozenset((x, x) for x in names)),
    ):
        with pytest.raises(SizeGuardError, match=f"exceed the cap {cap}"):
            build()


# ---------------------------------------------------------------------------
# counting


@pytest.mark.parametrize(
    "lattice_name,poset,expect_all,expect_monotone",
    [
        ("A2", poset_chain(2), 25, 12),
        ("A1", poset_chain(3), 8, 4),
        ("A2", poset_point(), 5, 5),
        ("A1", poset_diamond(), 16, 6),
        ("A1", poset_antichain(3), 8, 8),
    ],
)
def test_function_counts(lattice_name, poset, expect_all, expect_monotone):
    nc = nc_lattice(lattice_name)
    everything = all_functions(poset, nc)
    monotone = monotone_functions(poset, nc)
    assert len(everything.members) == expect_all
    assert len(everything.members) == len(nc) ** len(poset.elements)
    assert len(monotone.members) == expect_monotone
    assert smashing_count(poset, nc) == expect_monotone
    # monotone members are exactly the specialization closed ones
    closed = [v for v in everything.members if is_specialization_closed(poset, nc, v)]
    assert len(closed) == expect_monotone
    assert set(closed) == set(monotone.members)


def fuss_catalan(dynkin: DynkinType, k: int) -> int:
    """prod_i (k*h + d_i) / d_i over the degrees d_i."""
    h = dynkin.coxeter_number()
    value = math.prod(Fraction(k * h + d, d) for d in dynkin.degrees())
    assert value.denominator == 1
    return int(value)


@pytest.mark.parametrize(
    "lattice_name,k,expected",
    [("A2", 2, 12), ("A3", 2, 55), ("A3", 3, 140), ("D4", 2, 336), ("A4", 3, 969)],
)
def test_chain_counts_are_fuss_catalan(lattice_name, k, expected):
    """Monotone functions from a k-chain are k-multichains in NC(W, c)."""
    assert fuss_catalan(DynkinType.parse(lattice_name), k) == expected
    nc = nc_lattice(lattice_name)
    assert smashing_count(poset_chain(k), nc) == expected
    assert len(monotone_functions(poset_chain(k), nc).members) == expected


def test_monotone_equals_all_on_antichains():
    nc = nc_lattice("A2")
    poset = poset_antichain(2)
    assert len(monotone_functions(poset, nc).members) == len(
        all_functions(poset, nc).members
    )


@pytest.mark.parametrize("points", [1, 2])
@pytest.mark.parametrize("lattice_name", ["A2", "A3", "D4"])
def test_monotone_and_all_functions_agree_on_antichains(lattice_name, points):
    """With no point above another, the one cover rule reads the same
    rows whether it is asked for monotone functions or for all."""
    nc = nc_lattice(lattice_name)
    poset = poset_antichain(points)
    lattice = monotone_functions(poset, nc)
    assert lattice == all_functions(poset, nc)
    assert len(lattice.members) == len(nc) ** points
    assert all(row == tuple(sorted(row)) for row in lattice.upper)


# ---------------------------------------------------------------------------
# covers


@pytest.mark.parametrize(
    "lattice_name,poset",
    [
        ("A2", poset_chain(2)),
        ("A1", poset_chain(3)),
        ("A2", poset_point()),
        ("A1", poset_diamond()),
        ("A3", poset_chain(2)),
    ],
)
def test_monotone_covers_match_brute_reduction(lattice_name, poset):
    nc = nc_lattice(lattice_name)
    lattice = monotone_functions(poset, nc)
    assert set(cover_pairs(lattice)) == brute_covers(lattice, nc)


POSET_V = FinitePoset.from_covers(("a", "b", "c"), (("a", "b"), ("a", "c")))
POSET_LAMBDA = FinitePoset.from_covers(("a", "b", "c"), (("a", "c"), ("b", "c")))


@pytest.mark.parametrize(
    "lattice_name,poset",
    [
        ("A2", poset_diamond()),
        ("A3", poset_diamond()),
        ("D4", poset_chain(2)),
        ("A3", POSET_V),
        ("A3", POSET_LAMBDA),
    ],
    ids=["A2-diamond", "A3-diamond", "D4-chain2", "A3-V", "A3-Lambda"],
)
def test_monotone_covers_match_bitmask_reduction(lattice_name, poset):
    nc = nc_lattice(lattice_name)
    lattice = monotone_functions(poset, nc)
    assert cover_pairs(lattice) == tuple(sorted(reduction_covers(lattice, nc)))


def test_monotone_covers_match_bitmask_reduction_on_random_posets():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    lattices = {name: nc_lattice(name) for name in ("A2", "A3")}

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(lattices)))
        size = data.draw(st.integers(min_value=1, max_value=4))
        names = tuple(f"p{i}" for i in range(size))
        pairs = list(itertools.combinations(names, 2))
        chosen = data.draw(
            st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        )
        poset = FinitePoset.from_covers(
            names, [pair for pair, keep in zip(pairs, chosen) if keep]
        )
        nc = lattices[name]
        # the quadratic oracle stays fast only on small function lattices
        hypothesis.assume(smashing_count(poset, nc) <= 800)
        lattice = monotone_functions(poset, nc)
        assert cover_pairs(lattice) == tuple(sorted(reduction_covers(lattice, nc)))

    check()


@pytest.mark.parametrize(
    "lattice_name,poset",
    [("A2", poset_chain(2)), ("A1", poset_diamond())],
)
def test_all_function_covers_match_brute_reduction(lattice_name, poset):
    nc = nc_lattice(lattice_name)
    lattice = all_functions(poset, nc)
    assert set(cover_pairs(lattice)) == brute_covers(lattice, nc)


def test_monotone_functions_form_a_sublattice():
    """Pointwise joins and meets of monotone functions stay monotone."""
    nc = nc_lattice("A2")
    poset = poset_chain(2)
    lattice = monotone_functions(poset, nc)
    values = set(lattice.members)
    for f, g in itertools.product(lattice.members, repeat=2):
        join = tuple(nc.join(a, b) for a, b in zip(f, g))
        meet = tuple(nc.meet(a, b) for a, b in zip(f, g))
        assert join in values
        assert meet in values


def test_is_specialization_closed_examples():
    nc = nc_lattice("A2")
    poset = poset_chain(2)
    top = nc.top()
    bottom = nc.index[0]
    # closed point above the generic point: value must not drop upward
    assert is_specialization_closed(poset, nc, (bottom, top))
    assert not is_specialization_closed(poset, nc, (top, bottom))
    assert is_specialization_closed(poset, nc, (top, top))


# ---------------------------------------------------------------------------
# size guard


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "10")
    assert size_guard_limit() == 10
    nc = nc_lattice("A2")
    with pytest.raises(SizeGuardError) as err:
        all_functions(poset_chain(3), nc)
    assert "125" in str(err.value)
    with pytest.raises(SizeGuardError):
        monotone_functions(poset_chain(3), nc)
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "1000")
    assert len(all_functions(poset_chain(3), nc).members) == 125


# ---------------------------------------------------------------------------
# orientation


def reversed_nc_lattice(name: str) -> NcLattice:
    """NC(W, c) for the orientation with every default arrow reversed."""
    dynkin = DynkinType.parse(name)
    rs = build_root_system(dynkin)
    quiver = Quiver(dynkin, tuple((t, s) for s, t in dynkin.diagram_edges()))
    return NcLattice(rs, quiver)


def test_nc_lattices_of_opposite_orientations_are_isomorphic():
    """NC(W, c) does not depend on c up to isomorphism (all Coxeter
    elements are conjugate), checked on the cover digraphs by networkx."""
    nx = pytest.importorskip("networkx")

    def digraph(lattice: NcLattice):
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(lattice)))
        graph.add_edges_from(lattice.covers())
        return graph

    for name in ("A2", "A3", "D4"):
        a, b = nc_lattice(name), reversed_nc_lattice(name)
        assert nx.is_isomorphic(digraph(a), digraph(b))
    # a negative control: NC(A3) is not the chain of its size
    a3 = nc_lattice("A3")
    chain = nx.DiGraph([(i, i + 1) for i in range(len(a3) - 1)])
    assert not nx.is_isomorphic(digraph(a3), chain)
