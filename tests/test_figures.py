"""Reference diagrams match the computed lattices."""
import json

from thicklat import cli
from thicklat.figures import (
    FIGURE1_COVERS,
    FIGURE1_NODES,
    FIGURE2_COVERS,
    FIGURE2_NODES,
)
from thicklat.quiver_rep import default_orientation
from thicklat.root_system import (
    DynkinType,
    NcLattice,
    build_root_system,
    nc_to_set_partition,
)
from thicklat.spec_model import monotone_functions, poset_chain

from nc_oracle import is_noncrossing_partition
from specfn_oracle import cover_pairs


def nc_a2() -> NcLattice:
    dynkin = DynkinType.parse("A2")
    return NcLattice(build_root_system(dynkin), default_orientation(dynkin))


def figure1_leq(a: int, b: int) -> bool:
    """The order of FIGURE1_NODES: every block of a inside a block of b."""
    return all(
        any(set(block) <= set(other) for other in FIGURE1_NODES[b])
        for block in FIGURE1_NODES[a]
    )


def labeled_monotone_lattice():
    """The monotone functions from p0 < p1 to NC(A2), each labeled by the
    FIGURE1_NODES indices of its values, with the labeled covers."""
    lattice = nc_a2()
    label = [
        FIGURE1_NODES.index(nc_to_set_partition(lattice.rs, e))
        for e in lattice.elements
    ]
    functions = monotone_functions(poset_chain(2), lattice)
    nodes = [tuple(label[v] for v in values) for values in functions.members]
    return nodes, {(nodes[i], nodes[j]) for i, j in cover_pairs(functions)}


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
    assert len(FIGURE2_NODES) == 12
    assert len(set(FIGURE2_NODES)) == 12
    for a, b in FIGURE2_NODES:
        # a monotone function from p0 < p1: the value at p0 is the lower
        assert 0 <= a < len(FIGURE1_NODES) and 0 <= b < len(FIGURE1_NODES)
        assert figure1_leq(a, b)
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
    """Equal as labeled lattices, which is stronger than isomorphic."""
    nodes, covers = labeled_monotone_lattice()
    assert len(nodes) == len(FIGURE2_NODES)
    assert set(nodes) == set(FIGURE2_NODES)
    assert covers == {(FIGURE2_NODES[i], FIGURE2_NODES[j]) for i, j in FIGURE2_COVERS}


def run_figures(tmp_path, capsys):
    code = cli.main(["figures", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    payload = json.loads(out)["payload"]
    if not payload["figure2_isomorphic_to_reference"]:
        assert '"figure2_isomorphic_to_reference": false' in out
    return code, payload


def test_figure2_negative_control(tmp_path, capsys, monkeypatch):
    """A tampered cover set must not match the computed lattice."""
    broken = FIGURE2_COVERS[:-1] + ((0, 9),)
    monkeypatch.setattr(cli, "FIGURE2_COVERS", broken)
    code, payload = run_figures(tmp_path, capsys)
    assert payload["figure1_matches_reference"] is True
    assert payload["figure2_isomorphic_to_reference"] is False
    assert code == 1


def test_figures_rejects_swapped_figure2_labels(tmp_path, capsys, monkeypatch):
    nodes = list(FIGURE2_NODES)
    # the bottom and the top trade labels: the node set is unchanged, the
    # covers are not
    bottom, top = nodes.index((0, 0)), nodes.index((4, 4))
    nodes[bottom], nodes[top] = nodes[top], nodes[bottom]
    monkeypatch.setattr(cli, "FIGURE2_NODES", tuple(nodes))
    code, payload = run_figures(tmp_path, capsys)
    assert payload["figure1_matches_reference"] is True
    assert payload["figure2_isomorphic_to_reference"] is False
    assert code == 1


def test_figures_reads_no_figure2_labels_when_figure1_mismatches(
    tmp_path, capsys, monkeypatch
):
    # without the top partition, Figure 2's labels, which index
    # FIGURE1_NODES, cannot be read
    monkeypatch.setattr(cli, "FIGURE1_NODES", FIGURE1_NODES[:-1])
    code, payload = run_figures(tmp_path, capsys)
    assert payload["figure1_matches_reference"] is False
    assert payload["figure2_isomorphic_to_reference"] is False
    assert code == 1

