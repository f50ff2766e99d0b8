"""Reference diagrams match the computed lattices."""
from thicklat.figures import (
    FIGURE1_COVERS,
    FIGURE1_NODES,
    FIGURE2_COVERS,
    FIGURE2_NODE_COUNT,
)
from thicklat.quiver_rep import default_orientation
from thicklat.root_system import (
    DynkinType,
    NcLattice,
    build_root_system,
    is_noncrossing_partition,
    nc_to_set_partition,
)
from thicklat.spec_model import lattice_iso, monotone_functions, poset_chain


def nc_a2() -> NcLattice:
    dynkin = DynkinType.parse("A2")
    return NcLattice(build_root_system(dynkin), default_orientation(dynkin))


def test_figure1_nodes_are_the_noncrossing_partitions():
    assert len(FIGURE1_NODES) == 5
    assert len(set(FIGURE1_NODES)) == 5
    for blocks in FIGURE1_NODES:
        assert sorted(x for b in blocks for x in b) == [1, 2, 3]
        assert is_noncrossing_partition(blocks)
    singletons = ((1,), (2,), (3,))
    full = ((1, 2, 3),)
    assert singletons in FIGURE1_NODES
    assert full in FIGURE1_NODES


def test_figure1_matches_computed_lattice():
    lattice = nc_a2()
    partitions = [nc_to_set_partition(lattice.rs, e) for e in lattice.elements]
    assert set(partitions) == set(FIGURE1_NODES)
    computed = {(partitions[i], partitions[j]) for i, j in lattice.covers()}
    assert computed == set(FIGURE1_COVERS)
    assert len(FIGURE1_COVERS) == 6


def test_figure2_shape():
    assert FIGURE2_NODE_COUNT == 12
    assert len(FIGURE2_COVERS) == 18
    assert len(set(FIGURE2_COVERS)) == 18
    indices = {i for pair in FIGURE2_COVERS for i in pair}
    assert indices == set(range(12))
    # a lattice diagram has a single bottom and a single top
    lowers = {hi for _, hi in FIGURE2_COVERS}
    uppers = {lo for lo, _ in FIGURE2_COVERS}
    bottoms = set(range(12)) - lowers
    tops = set(range(12)) - uppers
    assert len(bottoms) == 1 and len(tops) == 1


def test_figure2_is_isomorphic_to_monotone_lattice():
    functions = monotone_functions(poset_chain(2), nc_a2())
    assert len(functions.members) == FIGURE2_NODE_COUNT
    mapping = lattice_iso(functions, (FIGURE2_NODE_COUNT, FIGURE2_COVERS))
    assert mapping is not None
    covers = set(functions.covers)
    assert len(covers) == len(FIGURE2_COVERS)
    mapped = {(mapping[i], mapping[j]) for i, j in covers}
    assert mapped == set(FIGURE2_COVERS)


def test_figure2_negative_control():
    """A tampered cover set must not be isomorphic to the real lattice."""
    functions = monotone_functions(poset_chain(2), nc_a2())
    broken = FIGURE2_COVERS[:-1] + ((0, 9),)
    assert lattice_iso(functions, (FIGURE2_NODE_COUNT, broken)) is None
