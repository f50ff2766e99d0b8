"""The specfn output built the direct way, as the CLI once built it: one
dict per member, the covers sorted as pairs of id strings, and the whole
document dumped by json.dumps.  The CLI renders the same bytes from the
value tuples and pre-encoded item texts; the tests compare the two."""
import json

from thicklat.cli import _nc_ids, _orientation_echo, _parse_poset
from thicklat.quiver_rep import default_orientation
from thicklat.root_system import DynkinType, NcLattice, build_root_system
from thicklat.spec_model import all_functions, monotone_functions


def cover_pairs(lattice) -> tuple[tuple[int, int], ...]:
    """The covers of a FunctionLattice as (lower, higher) index pairs,
    read off its upper cover rows; sorted when every row ascends."""
    return tuple((i, j) for i, row in enumerate(lattice.upper) for j in row)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def specfn_texts(type_name: str, poset_spec: str, mode: str) -> tuple[str, str]:
    """The stdout of `specfn --type type_name --poset poset_spec --mode
    mode` in JSON and in DOT."""
    dynkin = DynkinType.parse(type_name)
    quiver = default_orientation(dynkin)
    nc = NcLattice(build_root_system(dynkin), quiver)
    poset = _parse_poset(poset_spec)
    nc_ids = _nc_ids(nc)
    build = monotone_functions if mode == "monotone" else all_functions
    lattice = build(poset, nc)
    ids = [
        ";".join(
            f"{point}={nc_ids[v]}" for point, v in sorted(zip(poset.elements, values))
        )
        for values in lattice.members
    ]
    assert len(set(ids)) == len(ids)
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    edges = sorted((ids[i], ids[j]) for i, j in cover_pairs(lattice))

    dot = ["digraph thicklat {\n  rankdir=BT;\n"]
    dot += [f"  {_dot_quote(ids[i])};\n" for i in order]
    dot += [f"  {_dot_quote(lo)} -> {_dot_quote(hi)};\n" for lo, hi in edges]
    dot.append("}\n")

    members = [
        {
            "id": ids[i],
            "values": {
                point: nc_ids[v] for point, v in zip(poset.elements, lattice.members[i])
            },
        }
        for i in order
    ]
    document = {
        "schema_version": "1",
        "command": "specfn",
        "arguments": {
            "type": str(dynkin),
            "orientation": _orientation_echo(quiver),
            "poset": poset_spec,
            "mode": mode,
            "format": "json",
        },
        "payload": {
            "member_count": len(lattice.members),
            "cover_count": len(edges),
            "points": list(poset.elements),
            "members": members,
            "covers": edges,
        },
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return text, "".join(dot)
