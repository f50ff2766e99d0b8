"""Command line behavior: formats, determinism, exit codes, errors."""
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, gcd, prod
from pathlib import Path

import pytest

from thicklat.cli import (
    MAX_COEFFICIENT_DIGITS,
    MAX_DIGITS,
    MAX_RANK,
    MAX_TERMS,
    ExponentBoundError,
    PolynomialSyntaxError,
    _CHUNKS_PER_PIECE,
    _ITEMS_PER_BATCH,
    _EncodedList,
    _parse_module_spec,
    _wide_id,
    _write_json,
    main,
    parse_polynomial,
)
from thicklat import linalg, quiver_rep, root_system
from thicklat.koszul import MAX_KOSZUL_INPUTS, Poly, PolyRing
from thicklat.linalg import GF
from thicklat.quiver_rep import default_orientation, hom_table, indecomposable_dims
from thicklat.root_system import DynkinType
from thicklat.spec_model import MAX_POSET_POINTS
from thicklat.thick_enum import quiver_lattice, thick_masks, verify_bijection

from nc_oracle import dims_of
from specfn_oracle import specfn_texts
from test_quiver_rep import orientations

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    """Invoke main() capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def json_text(document) -> str:
    """The whole text that _write_json writes for document."""
    sink = io.StringIO()
    _write_json(document, sink.write)
    return sink.getvalue()


# ---------------------------------------------------------------------------
# nc


def test_nc_count_examples():
    for name, expected in (("A1", 2), ("A2", 5), ("A3", 14), ("D4", 50)):
        code, out, err = run_cli(["nc", "--type", name, "--count"])
        assert code == 0 and err == ""
        assert out == f"{expected}\n"


def test_nc_dot_shape():
    code, out, _ = run_cli(["nc", "--type", "A2", "--format", "dot"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph thicklat {"
    assert lines[1] == "  rankdir=BT;"
    nodes = [l for l in lines if l.endswith('";') and "->" not in l]
    edges = [l for l in lines if "->" in l]
    assert len(nodes) == 5
    assert len(edges) == 6
    assert '"(1),(2),(3)" -> "(1,2)";' in out


def test_nc_json_document():
    code, out, _ = run_cli(["nc", "--type", "A2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "nc"
    payload = doc["payload"]
    assert payload["element_count"] == 5
    assert payload["cover_count"] == 6
    ids = [e["id"] for e in payload["elements"]]
    assert ids[0] == "(1),(2),(3)"
    assert ids[-1] == "(1,2,3)"
    assert set(ids[1:4]) == {"(1,2)", "(1,3)", "(2,3)"}
    # covers reference node ids, not indices
    for lo, hi in payload["covers"]:
        assert lo in ids and hi in ids


def test_nc_non_type_a_uses_reflection_words():
    code, out, _ = run_cli(["nc", "--type", "D4"])
    assert code == 0
    doc = json.loads(out)
    ids = [e["id"] for e in doc["payload"]["elements"]]
    assert ids[0] == "e"
    assert all(i == "e" or i.startswith("r") for i in ids)


def test_nc_orientation_changes_elements_not_count():
    code1, out1, _ = run_cli(["nc", "--type", "A3", "--count"])
    code2, out2, _ = run_cli(
        ["nc", "--type", "A3", "--orientation", "2>1,2>3", "--count"]
    )
    assert code1 == code2 == 0
    assert out1 == out2 == "14\n"
    _, doc1, _ = run_cli(["nc", "--type", "A3"])
    _, doc2, _ = run_cli(["nc", "--type", "A3", "--orientation", "2>1,2>3"])
    assert json.loads(doc1)["payload"] != json.loads(doc2)["payload"]


def test_nc_rejects_bad_type_and_orientation():
    code, _, err = run_cli(["nc", "--type", "Z9", "--count"])
    assert code == 2 and "Dynkin" in err
    code, _, err = run_cli(
        ["nc", "--type", "A2", "--orientation", "1>3", "--count"]
    )
    assert code == 2
    code, _, err = run_cli(
        ["nc", "--type", "A3", "--orientation", "1>2", "--count"]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "args",
    [
        ["nc", "--type", "A3"],
        ["nc", "--type", "D4", "--format", "dot"],
        ["thick", "--type", "A3", "--field", "2"],
        ["specfn", "--type", "A2", "--poset", "chain2"],
        ["koszul", "--vars", "x,y", "--gens", "x,y", "--at", "0,0"],
    ],
)
def test_reruns_are_byte_identical(args):
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


# SHA-256 of stdout, recorded when every JSON document was written by
# json.dumps(indent=2, sort_keys=True)
PINNED_STDOUT = {
    "specfn --type D4 --poset diamond":
        "5f52159c231d6ce8583e95be21e4ea72e56f1af7b48565660b660572cc3dfc03",
    "specfn --type D4 --poset diamond --format dot":
        "aff5ad4323f3401251b2fbfe4374062d16bb3fb18221fe0e61a1df190b27d550",
    "specfn --type A4 --poset antichain2 --mode all":
        "9007119bc99a0f6ee2bc8d585d7e54f4b2b45fbb678d6d9eda5eb52adb386adc",
    "nc --type D5":
        "ae356034c4d4994b25e5a48a41ea950492cc2e2af8cbd433efd6e73bcaf4bb45",
    # recorded before NC(W, c) was computed from the Euler form
    "nc --type E6 --format dot":
        "897c76284b39be67a3cbf28c82218cc193900cc3f85b21bb5609eb412f507217",
    "nc --type A5":
        "6e3a7576a7b815d898ca304d53d0d7ecfb817bb2f4d1bee458fedc1d900a966d",
    "thick --type D5 --field 2 --verify":
        "2d00b85eebef56943aafdbfa79c320439012f7523dc48e0a2ca55287ea6c6139",
    "thick --type D4 --field 3 --format dot":
        "875406db7521ab635d6712b8032f68ec0cd1ca667640460ffe9b614b513bd08c",
    # the benchmark's two koszul invocations, recorded while the CLI still
    # built and ranked the complex
    "koszul --vars x1,x2,x3,x4,x5,x6,x7,x8 --gens x1,x2,x3,x4,x5,x6,x7,x8"
    " --at 0,0,0,0,0,0,0,0":
        "a5faf2b79bad8c7485cf869ac830dd630ea34b70bb878b3088ea9636f0bd753c",
    "koszul --vars a,b,c,d,e --gens 2*a-1,3*b^2-1/3,c*d-3/2,a*e+b*c+1,d^2-a*c+1/16"
    " --at 1/2,-1/3,2,3/4,-1 --module E6:(1,2,2,3,2,1)":
        "f52f968d4211039aa8324549d42b9f4405a59b01da7677b7c4e465de9159cec6",
}

# SHA-256 of the nc JSON followed by the thick --field 2 JSON of every
# orientation in turn, recorded before NC(W, c) was computed from the
# Euler form
PINNED_ORIENTATIONS = {
    "A4": "c264004ecea079cc99a985b1b9bd9a583f8bd0840f8d6d58eec79a177345d9d2",
    "D4": "41d33f281a2091b05dd04ed918f66025206eaac47e68d8bc29b19991cf3a31e6",
    "D5": "2f9648846e6a448fdd4c978d4e959623fcfcd955ace5054610a8951f68fd5558",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(command):
    code, out, _ = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[command]


@pytest.mark.parametrize("name", sorted(PINNED_ORIENTATIONS))
def test_every_orientation_is_pinned(name, fresh_thick_caches):
    digest = hashlib.sha256()
    for quiver in orientations(name):
        arrows = ",".join(f"{s}>{t}" for s, t in quiver.arrows)
        for args in (["nc"], ["thick", "--field", "2"]):
            code, out, _ = run_cli(args + ["--type", name, "--orientation", arrows])
            assert code == 0
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == PINNED_ORIENTATIONS[name]


@pytest.mark.parametrize(
    "args",
    [
        ["nc", "--type", "A3"],
        ["thick", "--type", "A3", "--field", "2", "--verify"],
        ["specfn", "--type", "A2", "--poset", "diamond"],
        ["specfn", "--type", "A2", "--poset", "chain2", "--mode", "all"],
        ["koszul", "--vars", "x,y", "--gens", "x^2-3/4*y,y", "--at", "1/2,3"],
        [
            "koszul", "--vars", "x,y", "--gens", "x,y", "--at", "0,0",
            "--module", "A2:(1,1)",
        ],
    ],
)
def test_json_output_is_json_dumps_of_its_document(args):
    code, out, _ = run_cli(args)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_json_text_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    class Mapping(dict):
        pass

    text = st.text(max_size=6) | st.sampled_from(
        ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2603", "\U0001f600"]
    )
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | text
    other_keys = st.integers() | st.booleans() | st.floats(allow_nan=False)

    def containers(children):
        return (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(text, children, max_size=4)
            | st.dictionaries(other_keys, children, max_size=3)
            | st.dictionaries(text, children, max_size=3).map(Mapping)
        )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.recursive(scalars, containers, max_leaves=30))
    def check(document):
        expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert json_text(document) == expected

    check()


def test_json_writer_spans_pieces_byte_for_byte():
    """A document of several pieces is written in several calls, which
    join to json.dumps's text."""
    document = {
        "rows": [
            {"id": f"r{i}", "values": [i, None, True, "\u00e9\\"]}
            for i in range(_CHUNKS_PER_PIECE)
        ],
        "count": _CHUNKS_PER_PIECE,
    }
    pieces = []
    _write_json(document, pieces.append)
    assert len(pieces) >= 3
    assert "".join(pieces) == json.dumps(document, indent=2, sort_keys=True) + "\n"


def encoded(items) -> _EncodedList:
    """The items as an _EncodedList of their texts at indentation 0,
    handed over as a one-pass iterator."""
    return _EncodedList(
        iter([json.dumps(item, indent=2, sort_keys=True) for item in items])
    )


@pytest.mark.parametrize(
    "items",
    [
        [],
        [{"id": "a", "values": {"p": "e"}}],
        [[f"m{i}", {"k": [i, None, "\u00e9\\\"x"]}] for i in range(2 * _ITEMS_PER_BATCH + 1)],
    ],
    ids=["empty", "one", "three-batches"],
)
def test_json_writer_renders_encoded_lists(items):
    """An _EncodedList writes as the list of its items would, at the top
    level and nested under a dict."""
    assert json_text(encoded(items)) == json.dumps(items, indent=2) + "\n"
    document = {"count": len(items), "rows": {"inner": encoded(items)}, "z": []}
    expected = {"count": len(items), "rows": {"inner": items}, "z": []}
    assert json_text(document) == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_json_writer_writes_encoded_lists_a_batch_at_a_time():
    items = [f"item {i}" for i in range(3 * _ITEMS_PER_BATCH)]
    pieces = []
    _write_json({"items": encoded(items)}, pieces.append)
    assert len(pieces) == 4
    assert "".join(pieces) == json.dumps({"items": items}, indent=2) + "\n"


def test_specfn_streams_stdout_in_small_pieces():
    """The D4 diamond lattice, about 7 MB of JSON, reaches stdout in many
    writes of under 1 MiB each, not as one string."""
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text.encode("utf-8")))
            return super().write(text)

    out = Recorder()
    old_out, sys.stdout = sys.stdout, out
    try:
        code = main(["specfn", "--type", "D4", "--poset", "diamond"])
    finally:
        sys.stdout = old_out
    assert code == 0
    assert len(sizes) > 1 and max(sizes) < 1 << 20
    assert sum(sizes) == len(out.getvalue().encode("utf-8")) > 7_000_000


OUT_FLAG_CASES = [
    ["nc", "--type", "A2"],
    ["nc", "--type", "D4", "--format", "dot"],
    ["nc", "--type", "A3", "--count"],
    ["thick", "--type", "A3", "--field", "2", "--verify"],
    ["thick", "--type", "A2", "--field", "3", "--format", "dot"],
    ["thick", "--type", "D4", "--field", "2", "--count"],
    ["specfn", "--type", "A2", "--poset", "chain2"],
    ["specfn", "--type", "A3", "--poset", "diamond", "--format", "dot"],
    ["specfn", "--type", "A2", "--poset", "antichain2", "--mode", "all", "--count"],
    [
        "koszul", "--vars", "x,y", "--gens", "x,y", "--at", "0,0",
        "--module", "A2:(1,1)",
    ],
]


def test_out_flag_matches_stdout(tmp_path):
    """JSON, DOT and count output of every command, written with --out,
    has the bytes of its stdout."""
    for k, args in enumerate(OUT_FLAG_CASES):
        code, stdout_text, _ = run_cli(args)
        assert code == 0, args
        target = tmp_path / f"output{k}"
        code, out, _ = run_cli(args + ["--out", str(target)])
        assert code == 0 and out == "", args
        assert target.read_bytes() == stdout_text.encode("utf-8"), args


@pytest.mark.parametrize(
    "args",
    [
        ["nc", "--type", "A14"],
        ["specfn", "--type", "A2", "--poset", "chain2", "--mode", "all",
         "--count"],
        ["koszul", "--vars", "x", "--gens", "x^", "--at", "0"],
    ],
)
def test_refused_invocation_creates_no_out_file(args, tmp_path, monkeypatch):
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "20")
    target = tmp_path / "output"
    code, out, err = run_cli(args + ["--out", str(target)])
    assert code in (1, 2) and out == "" and err.startswith("thicklat: error:")
    assert not target.exists()


# ---------------------------------------------------------------------------
# thick


def test_thick_counts_and_verify():
    code, out, _ = run_cli(["thick", "--type", "A1", "--field", "2", "--count"])
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(
        ["thick", "--type", "A3", "--field", "2", "--verify"]
    )
    assert code == 0
    doc = json.loads(out)
    ver = doc["payload"]["verification"]
    assert ver["thick_count"] == ver["nc_count"] == 14
    assert ver["ok"] is True
    assert doc["payload"]["thick_count"] == 14
    # every subcategory carries its lattice image
    for sub in doc["payload"]["subcategories"]:
        assert "nc_image" in sub


@pytest.mark.parametrize("name,expected", [("A3", 14), ("D4", 50), ("E6", 833)])
def test_thick_count_builds_no_subcategory_objects(fresh_thick_caches, name, expected):
    code, out, _ = run_cli(["thick", "--type", name, "--field", "2", "--count"])
    assert code == 0 and out == f"{expected}\n"
    quiver = default_orientation(DynkinType.parse(name))
    assert len(thick_masks(quiver)) == expected
    # the closures are counted, and the lattice is never built
    assert quiver_lattice.cache_info().currsize == 0


def count_calls(monkeypatch, functions) -> dict[str, int]:
    """Count the calls of each function through every name that a
    thicklat module binds it to, until the test ends."""
    counts = {f.__name__: 0 for f in functions}

    def counted(f):
        def call(*args):
            counts[f.__name__] += 1
            return f(*args)
        return call

    modules = [m for name, m in sys.modules.items() if name.startswith("thicklat")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is f for f in functions):
                monkeypatch.setattr(module, attr, counted(value))
    return counts


def test_thick_ranks_hom_only_to_verify(monkeypatch, fresh_thick_caches):
    """The subcategories come from the Euler form with no module built;
    --verify checks dim Hom by rank once per ordered pair of the 20
    indecomposables of D5."""
    counts = count_calls(
        monkeypatch, (quiver_rep.hom_dim, linalg.rank, quiver_rep.tree_module)
    )
    for args in (["E6", "2", "--count"], ["D4", "3", "--format", "dot"]):
        code, _, err = run_cli(["thick", "--type", args[0], "--field", *args[1:]])
        assert (code, err) == (0, ""), args
    assert counts == {"hom_dim": 0, "rank": 0, "tree_module": 0}
    code, _, _ = run_cli(["thick", "--type", "D5", "--field", "2", "--verify"])
    assert code == 0
    assert counts["hom_dim"] == 20 * 20


def test_thick_and_nc_read_one_euler_pairing_table(monkeypatch, fresh_thick_caches):
    """The subcategories, the Hom table and the lattice read the one
    cached table of <beta_i, beta_j>, and call euler_form on no pair.
    --verify makes one integer product per nonempty set of simples (181
    on D5), one per simple reflection of c (5) and at most one for the
    table: no reversed product and none per letter of a word."""
    counts = count_calls(monkeypatch, (root_system.euler_form, linalg.int_mat_mul))
    for args in (["thick", "--type", "E6", "--field", "2", "--count"], ["nc", "--type", "D5"]):
        code, _, err = run_cli(args)
        assert (code, err) == (0, ""), args
    assert counts["euler_form"] == 0
    counts["int_mat_mul"] = 0
    code, _, _ = run_cli(["thick", "--type", "D5", "--field", "2", "--verify"])
    assert code == 0
    assert counts["int_mat_mul"] <= 181 + 5 + 1


def test_thick_verify_flags_a_hom_table_entry_that_ranks_contradict(
    monkeypatch, fresh_thick_caches
):
    """One nonzero entry of the Euler-form table raised by one: the
    enumeration is unchanged, and only the field check fails."""
    quiver = default_orientation(DynkinType.parse("A3"))
    table = hom_table(quiver)
    n = len(table.roots)
    i, j = next((i, j) for i in range(n) for j in range(n) if i != j and table.hom[i][j])
    hom = [list(row) for row in table.hom]
    hom[i][j] += 1
    monkeypatch.setattr(table, "hom", tuple(map(tuple, hom)))
    d, e = table.roots[i], table.roots[j]
    failure = f"dim Hom from {d} to {e} is 1 over the field, not max(<{d}, {e}>, 0) = 2"
    report = verify_bijection(quiver, GF(2))
    assert report.is_bijective and report.is_order_isomorphism and not report.ok
    assert report.failures == (failure,)
    code, out, err = run_cli(["thick", "--type", "A3", "--field", "2", "--verify"])
    assert (code, err) == (1, "")
    verification = json.loads(out)["payload"]["verification"]
    assert verification["failures"] == [failure] and verification["ok"] is False


def test_thick_refuses_a_subcategory_outside_the_lattice(fresh_thick_caches):
    quiver = default_orientation(DynkinType.parse("A2"))
    atom = next(m for m in thick_masks(quiver) if m.bit_count() == 1)
    del quiver_lattice(quiver).index[atom]
    code, out, err = run_cli(["thick", "--type", "A2", "--field", "2"])
    assert (code, out) == (2, "")
    assert err == "thicklat: error: an image is not below the Coxeter element\n"


def test_thick_and_koszul_with_a_sink_at_the_e6_branch_vertex():
    """The simple module at the branch sink of this orientation is built
    like every other root, so both commands succeed."""
    orientation = ["--orientation", "1>3,2>4,3>4,5>4,5>6"]
    code, out, _ = run_cli(
        ["thick", "--type", "E6", "--field", "2", "--count"] + orientation
    )
    assert code == 0 and out == "833\n"
    code, out, _ = run_cli(
        ["thick", "--type", "E6", "--field", "2", "--verify"] + orientation
    )
    assert code == 0
    assert json.loads(out)["payload"]["verification"]["ok"] is True
    code, out, _ = run_cli(
        ["koszul", "--vars", "x", "--gens", "x", "--at", "0",
         "--module", "E6:(0,0,0,1,0,0)"] + orientation
    )
    assert code == 0
    assert json.loads(out)["payload"]["module"]["dimension_vector"] == [
        0, 0, 0, 1, 0, 0
    ]


def test_koszul_module_must_be_a_positive_root():
    code, out, err = run_cli(
        ["koszul", "--vars", "x", "--gens", "x", "--at", "0", "--module", "A2:(2,1)"]
    )
    assert (code, out) == (2, "")
    assert err == "thicklat: error: (2, 1) is not a positive root of A2\n"


def test_koszul_module_takes_a_long_root_quickly():
    """The root test is the Tits form, so no root system of A300 is built."""
    dims = [1] + [0] * 299
    start = time.perf_counter()
    code, out, err = run_cli(
        ["koszul", "--vars", "x", "--gens", "x", "--at", "1",
         "--module", f"A300:({','.join(map(str, dims))})"]
    )
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["module"]["dimension_vector"] == dims


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_koszul_module_roots_are_the_tits_form_roots(name):
    """Oracle: on the box [0, max entry + 1]^n, --module accepts exactly
    the positive roots of the root system, and refuses their negatives."""
    roots = set(indecomposable_dims(default_orientation(DynkinType.parse(name))))
    top = max(map(max, roots)) + 1
    for d in itertools.chain(
        itertools.product(range(top + 1), repeat=len(next(iter(roots)))),
        (tuple(-x for x in root) for root in roots),
    ):
        text = f"{name}:({','.join(map(str, d))})"
        if d in roots:
            assert _parse_module_spec(text, None)[0] == d
        else:
            with pytest.raises(ValueError, match=r"is not a positive root"):
                _parse_module_spec(text, None)


def test_thick_nc_images_are_distinct():
    _, out, _ = run_cli(["thick", "--type", "A3", "--field", "3"])
    doc = json.loads(out)
    images = [s["nc_image"] for s in doc["payload"]["subcategories"]]
    assert len(set(images)) == len(images) == 14


def inclusion_covers(sets):
    """Oracle: pairs of subcategories with nothing strictly between."""
    n = len(sets)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if sets[i] < sets[j]
        and not any(sets[i] < sets[k] < sets[j] for k in range(n))
    ]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["A3", "A4", "D4", "D5"])
def test_thick_dot_covers_match_inclusion_oracle(name, p):
    code, out, err = run_cli(
        ["thick", "--type", name, "--field", str(p), "--format", "dot"]
    )
    assert code == 0 and err == ""
    quiver = default_orientation(DynkinType.parse(name))
    sets = [dims_of(quiver, m) for m in thick_masks(quiver)]
    ids = [_wide_id(sorted(dims)) for dims in sets]
    expected = {f'  "{ids[i]}" -> "{ids[j]}";' for i, j in inclusion_covers(sets)}
    assert {line for line in out.splitlines() if "->" in line} == expected


def test_thick_rejects_bad_field():
    code, _, err = run_cli(["thick", "--type", "A2", "--field", "6", "--count"])
    assert code == 2 and "prime" in err


def test_thick_refuses_a_huge_prime_field_at_once():
    # 2^61 - 1 is prime; its trial division alone would run for minutes
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "THICKLAT_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "thicklat.cli",
         "thick", "--type", "A2", "--field", str(2**61 - 1)],
        env=env, capture_output=True, text=True, timeout=1,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == (
        f"thicklat: error: field order {2**61 - 1} exceeds the supported bound 97\n"
    )
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# specfn


def test_specfn_count_examples():
    cases = [
        (["specfn", "--type", "A2", "--poset", "chain2", "--mode", "monotone"], 12),
        (["specfn", "--type", "A2", "--poset", "chain2", "--mode", "all"], 25),
        (["specfn", "--type", "A1", "--poset", "chain2", "--mode", "monotone"], 3),
        (["specfn", "--type", "A2", "--poset", "point", "--mode", "monotone"], 5),
    ]
    for args, expected in cases:
        code, out, _ = run_cli(args + ["--count"])
        assert code == 0
        assert out == f"{expected}\n"


def test_specfn_json_and_dot():
    code, out, _ = run_cli(["specfn", "--type", "A2", "--poset", "chain2"])
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["member_count"] == 12
    assert payload["points"] == ["p0", "p1"]
    assert len(payload["members"]) == 12
    for member in payload["members"]:
        assert set(member["values"]) == {"p0", "p1"}
    code, out, _ = run_cli(
        ["specfn", "--type", "A2", "--poset", "chain2", "--format", "dot"]
    )
    assert code == 0
    assert out.count("->") == payload["cover_count"] == 18


TYPE_SIZES = {"A1": 2, "A2": 5, "A3": 14, "A4": 42, "D4": 50}
POSET_POINTS = {"point": 1, "chain2": 2, "chain3": 3, "antichain2": 2, "diamond": 4}
# every monotone case, and the cases of all functions up to this many
ALL_FUNCTIONS_CAP = 3000
SPECFN_ORACLE_CASES = [
    (name, poset, mode)
    for name, size in TYPE_SIZES.items()
    for poset, points in POSET_POINTS.items()
    for mode in ("monotone", "all")
    if mode == "monotone" or size**points <= ALL_FUNCTIONS_CAP
]


def assert_specfn_matches_oracle(name: str, poset: str, mode: str) -> None:
    expected_json, expected_dot = specfn_texts(name, poset, mode)
    base = ["specfn", "--type", name, "--poset", poset, "--mode", mode]
    code, out, err = run_cli(base)
    assert (code, err) == (0, "") and out == expected_json
    code, out, err = run_cli(base + ["--format", "dot"])
    assert (code, err) == (0, "") and out == expected_dot


@pytest.mark.parametrize("name,poset,mode", SPECFN_ORACLE_CASES)
def test_specfn_output_matches_the_direct_rendering(name, poset, mode):
    assert_specfn_matches_oracle(name, poset, mode)


@pytest.mark.parametrize("mode", ["monotone", "all"])
def test_specfn_output_escapes_odd_point_names(tmp_path, mode):
    """Point names with %, a quote, a backslash and a non-ASCII letter
    are escaped in the ids, the values' keys and the DOT names."""
    poset_file = tmp_path / "odd.txt"
    poset_file.write_text('a%b<q"x\nq"x<back\\slash\npoint \u00e9\n', encoding="utf-8")
    for name in ("A1", "A2"):
        assert_specfn_matches_oracle(name, f"@{poset_file}", mode)


# Point names that are prefixes of one another or hold ";" and "=": the
# ids join point=label pairs with ";", so these are where ranking the ids
# by label-rank keys could part from sorting the strings.  The larger
# cases take fewer points, to stay near ALL_FUNCTIONS_CAP members.
PREFIX_POSETS = {
    ("A3", "monotone"): "p<p1\np1<p;1\np;1<a=b\n",
    ("A3", "all"): "p;1<a=b\n",
    ("D4", "monotone"): "p<p;1\np;1<a=b\n",
    ("D4", "all"): "p<p;1\n",
}


@pytest.mark.parametrize("name,mode", sorted(PREFIX_POSETS))
def test_specfn_ranks_prefix_point_names_as_the_oracle_sorts_ids(tmp_path, name, mode):
    poset_file = tmp_path / "prefix.txt"
    poset_file.write_text(PREFIX_POSETS[name, mode], encoding="utf-8")
    assert_specfn_matches_oracle(name, f"@{poset_file}", mode)


def test_specfn_ranks_a_prefix_label_first_only_at_the_last_point(tmp_path):
    """r1 is a prefix of r10.  Before the last point in name order an id
    goes on with ";" after the label, and "r10;" sorts before "r1;"; at
    the last point the id ends, and "r1" sorts before "r10"."""
    poset_file = tmp_path / "chain.txt"
    poset_file.write_text("a<z\n", encoding="utf-8")
    assert_specfn_matches_oracle("D4", f"@{poset_file}", "monotone")
    code, out, _ = run_cli(["specfn", "--type", "D4", "--poset", f"@{poset_file}"])
    ids = [member["id"] for member in json.loads(out)["payload"]["members"]]
    assert code == 0 and ids == sorted(ids)
    assert ids.index("a=r10;z=r10") < ids.index("a=r1;z=r1")
    assert ids.index("a=e;z=r1") < ids.index("a=e;z=r10")


def test_specfn_poset_file(tmp_path):
    poset_file = tmp_path / "poset.txt"
    poset_file.write_text(
        "# a three point chain plus an isolated point\n"
        "point m\n"
        "a<b\n"
        "b<c\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        [
            "specfn",
            "--type",
            "A1",
            "--poset",
            f"@{poset_file}",
            "--mode",
            "monotone",
            "--count",
        ]
    )
    assert code == 0
    # 4 monotone choices on the chain times 2 free choices at m
    assert out == "8\n"


def test_specfn_poset_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a>b\n", encoding="utf-8")
    code, _, err = run_cli(
        ["specfn", "--type", "A1", "--poset", f"@{bad}", "--count"]
    )
    assert code == 2 and "line 1" in err
    cyclic = tmp_path / "cycle.txt"
    cyclic.write_text("a<b\nb<a\n", encoding="utf-8")
    code, _, _ = run_cli(
        ["specfn", "--type", "A1", "--poset", f"@{cyclic}", "--count"]
    )
    assert code == 2


def test_specfn_unknown_poset():
    code, _, err = run_cli(
        ["specfn", "--type", "A1", "--poset", "pentagon", "--count"]
    )
    assert code == 2 and "pentagon" in err
    # a superscript is a digit to str.isdigit, but not a decimal
    code, _, err = run_cli(["specfn", "--type", "A1", "--poset", "chain²", "--count"])
    assert code == 2 and err.startswith("thicklat: error: unknown poset 'chain²'")


def test_specfn_size_guard(monkeypatch):
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "10")
    code, _, err = run_cli(
        ["specfn", "--type", "A2", "--poset", "chain3", "--mode", "all", "--count"]
    )
    assert code == 1
    assert "125" in err and "THICKLAT_SIZE_GUARD" in err


@pytest.mark.parametrize(
    "args",
    [
        ["nc", "--count"],
        ["thick", "--field", "2", "--count"],
        ["specfn", "--poset", "point"],
    ],
)
def test_lattice_commands_refuse_types_over_the_size_guard_quickly(args):
    refusals = {
        "A14": "9694845 elements exceed the size guard 100000; "
        "raise THICKLAT_SIZE_GUARD to proceed",
        # past the rank cap, the Catalan number is neither computed nor printed
        **{
            name: f"type {name} exceeds the rank cap {MAX_RANK}"
            for name in ("A20000", "D20000", "A200000", "A2000000")
        },
    }
    for name, message in refusals.items():
        start = time.perf_counter()
        code, out, err = run_cli(args[:1] + ["--type", name] + args[1:])
        assert time.perf_counter() - start < 0.5, name
        assert code == 1 and out == ""
        assert err == f"thicklat: error: {message}\n"


PYTHON_DIGIT_LIMIT = "Exceeds the limit"


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["nc", "--type", "A" + "9" * 5000, "--count"], 1,
         f"type A{'9' * 5000} exceeds the rank cap {MAX_RANK}"),
        (["thick", "--type", "d000" + "9" * 5000, "--field", "2", "--count"], 1,
         f"type D{'9' * 5000} exceeds the rank cap {MAX_RANK}"),
        (["specfn", "--type", "A" + "9" * 5000, "--poset", "point"], 1,
         f"type A{'9' * 5000} exceeds the rank cap {MAX_RANK}"),
        (["specfn", "--type", "A2", "--poset", "chain" + "9" * 5000], 1,
         f"{'9' * 5000} poset points exceed the cap {MAX_POSET_POINTS}"),
        (["specfn", "--type", "A2", "--poset", "antichain00" + "9" * 5000], 1,
         f"{'9' * 5000} poset points exceed the cap {MAX_POSET_POINTS}"),
        (["koszul", "--vars", "x", "--gens", "x", "--at", "0",
          "--module", f"A{'9' * 5000}:(1)"], 2,
         f"dimension vector in 'A{'9' * 5000}:(1)' must have {'9' * 5000} entries"),
    ],
    ids=["nc", "thick", "specfn-type", "specfn-chain", "specfn-antichain", "koszul-module"],
)
def test_counts_past_pythons_digit_limit_are_refused_before_int(
    args, code, message, fresh_thick_caches
):
    """A rank or point count with more digits than its cap is refused on
    its digits, leading zeros aside, before int() would fail on it."""
    start = time.perf_counter()
    result = run_cli(args)
    assert time.perf_counter() - start < 0.2
    assert result == (code, "", f"thicklat: error: {message}\n")
    assert PYTHON_DIGIT_LIMIT not in result[2]


@pytest.mark.parametrize("args", [
    ["nc", "--type", "A2", "--count"],
    ["thick", "--type", "A2", "--field", "2", "--count"],
    ["specfn", "--type", "A2", "--poset", "point", "--count"],
], ids=lambda args: args[0])
def test_size_guard_past_pythons_digit_limit_is_refused_on_its_length(monkeypatch, args):
    """int() refuses more than 4300 digits; the guard says so by their
    count instead of echoing them, and keeps its message for any other
    value that is not an integer."""
    for value in ("9" * 5000, " +" + "9" * 5000):
        monkeypatch.setenv("THICKLAT_SIZE_GUARD", value)
        assert run_cli(args) == (
            2, "", "thicklat: error: THICKLAT_SIZE_GUARD has 5000 digits, past the limit of 4300\n"
        )
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "12x")
    assert run_cli(args) == (
        2, "", "thicklat: error: THICKLAT_SIZE_GUARD='12x' is not an integer\n"
    )


def test_counts_with_leading_zeros_keep_their_value():
    assert run_cli(["nc", "--type", "A" + "0" * 5000 + "3", "--count"]) == (0, "14\n", "")
    code, out, _ = run_cli(
        ["specfn", "--type", "A1", "--poset", "chain" + "0" * 5000 + "2", "--count"]
    )
    assert (code, out) == (0, "3\n")


def test_rank_cap_admits_its_own_rank():
    code, _, err = run_cli(["nc", "--type", f"A{MAX_RANK}", "--count"])
    assert code == 1 and "elements exceed the size guard" in err


def test_nc_size_guard_is_the_catalan_number(monkeypatch):
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "41")
    code, out, err = run_cli(["nc", "--type", "A4", "--count"])
    assert code == 1 and out == ""
    assert err == (
        "thicklat: error: 42 elements exceed the size guard 41; "
        "raise THICKLAT_SIZE_GUARD to proceed\n"
    )
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "42")
    assert run_cli(["nc", "--type", "A4", "--count"]) == (0, "42\n", "")


def test_specfn_refuses_posets_over_the_point_cap_quickly(tmp_path):
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text(
        "".join(f"p{i}<p{i + 1}\n" for i in range(999)), encoding="utf-8"
    )
    cases = [
        (f"chain{MAX_POSET_POINTS + 1}", MAX_POSET_POINTS + 1),
        ("chain1000", 1000),
        ("antichain" + "9" * 30, int("9" * 30)),
        (f"@{chain_file}", 1000),
    ]
    for spec, points in cases:
        start = time.perf_counter()
        code, out, err = run_cli(
            ["specfn", "--type", "A1", "--poset", spec, "--count"]
        )
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err == (
            f"thicklat: error: {points} poset points exceed the cap "
            f"{MAX_POSET_POINTS}\n"
        )
    code, out, _ = run_cli(
        ["specfn", "--type", "A1", "--poset", f"chain{MAX_POSET_POINTS}", "--count"]
    )
    assert code == 0 and out == f"{MAX_POSET_POINTS + 1}\n"


@pytest.mark.parametrize(
    "args,key",
    [
        (["nc", "--type", "D4"], "element_count"),
        (["nc", "--type", "A3", "--orientation", "2>1,2>3"], "element_count"),
        (["specfn", "--type", "A2", "--poset", "diamond"], "member_count"),
        (["specfn", "--type", "A3", "--poset", "chain2"], "member_count"),
        (
            ["specfn", "--type", "A2", "--poset", "chain2", "--mode", "all"],
            "member_count",
        ),
        (
            ["specfn", "--type", "A2", "--poset", "diamond", "--mode", "all"],
            "member_count",
        ),
        (
            ["specfn", "--type", "A1", "--poset", "point", "--mode", "all"],
            "member_count",
        ),
    ],
)
def test_counts_match_json_counts(args, key):
    code, out, _ = run_cli(args)
    count_code, count_out, _ = run_cli(args + ["--count"])
    assert code == count_code == 0
    assert count_out == f"{json.loads(out)['payload'][key]}\n"


def test_specfn_monotone_count_keeps_the_size_guard(monkeypatch):
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "10")
    args = ["specfn", "--type", "A2", "--poset", "chain3"]
    code, out, err = run_cli(args + ["--count"])
    full_code, _, full_err = run_cli(args)
    assert code == full_code == 1 and out == ""
    assert err == full_err == (
        "thicklat: error: monotone functions exceed the size guard 10; "
        "raise THICKLAT_SIZE_GUARD to proceed\n"
    )


def test_specfn_all_count_keeps_the_size_guard(monkeypatch):
    monkeypatch.setenv("THICKLAT_SIZE_GUARD", "10")
    args = ["specfn", "--type", "A2", "--poset", "chain3", "--mode", "all"]
    code, out, err = run_cli(args + ["--count"])
    full_code, _, full_err = run_cli(args)
    assert code == full_code == 1 and out == ""
    assert err == full_err == (
        "thicklat: error: 125 functions exceed the size guard 10; "
        "raise THICKLAT_SIZE_GUARD to proceed\n"
    )


# ---------------------------------------------------------------------------
# figures


def test_figures_writes_reference_files(tmp_path):
    outdir = tmp_path / "figs"
    code, out, _ = run_cli(["figures", "--outdir", str(outdir)])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["figure1_matches_reference"] is True
    assert doc["payload"]["figure2_isomorphic_to_reference"] is True
    fig1 = (outdir / "figure1.dot").read_text(encoding="utf-8")
    assert fig1.count('";') - fig1.count("->") == 5
    assert fig1.count("->") == 6
    fig2 = json.loads((outdir / "figure2.json").read_text(encoding="utf-8"))
    assert fig2["payload"]["member_count"] == 12
    assert fig2["payload"]["cover_count"] == 18
    # rerunning produces identical bytes
    before = {
        name: (outdir / name).read_bytes()
        for name in ("figure1.dot", "figure1.json", "figure2.dot", "figure2.json")
    }
    code, _, _ = run_cli(["figures", "--outdir", str(outdir)])
    assert code == 0
    for name, blob in before.items():
        assert (outdir / name).read_bytes() == blob


# ---------------------------------------------------------------------------
# koszul


def test_koszul_examples():
    code, out, _ = run_cli(["koszul", "--vars", "x,y", "--gens", "x,y", "--at", "0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["homology"] == [[0, 1], [1, 2], [2, 1]]
    code, out, _ = run_cli(["koszul", "--vars", "x,y", "--gens", "x,y", "--at", "1,0"])
    doc = json.loads(out)
    assert doc["payload"]["homology"] == [[0, 0], [1, 0], [2, 0]]
    code, out, _ = run_cli(
        [
            "koszul",
            "--vars",
            "x,y",
            "--gens",
            "x,y",
            "--at",
            "0,0",
            "--module",
            "A2:(1,1)",
        ]
    )
    doc = json.loads(out)
    assert doc["payload"]["module_homology"] == [
        [0, [1, 1]],
        [1, [2, 2]],
        [2, [1, 1]],
    ]


def test_koszul_accepts_rational_input():
    code, out, _ = run_cli(
        [
            "koszul",
            "--vars",
            "x,y",
            "--gens",
            "x^2 - 3/4*y, y + 1/2",
            "--at",
            "1/2,-1/2",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["generators"] == ["x^2 - 3/4*y", "y + 1/2"]
    # at (1/2, -1/2) the first generator is 1/4 + 3/8 = 5/8, nonzero
    assert doc["payload"]["homology"] == [[0, 0], [1, 0], [2, 0]]


def test_koszul_error_paths():
    code, _, err = run_cli(
        ["koszul", "--vars", "x,y", "--gens", "2x", "--at", "0,0"]
    )
    assert code == 2 and "juxtaposition" in err and "column 2" in err
    code, _, err = run_cli(
        ["koszul", "--vars", "x,y", "--gens", "x+", "--at", "0,0"]
    )
    assert code == 2
    code, _, err = run_cli(
        ["koszul", "--vars", "x,y", "--gens", "x", "--at", "0,q"]
    )
    assert code == 2 and "rational" in err
    code, _, err = run_cli(
        ["koszul", "--vars", "x,y", "--gens", "x,y", "--at", "0,0", "--module", "A2:(1,1,1)"]
    )
    assert code == 2
    code, _, err = run_cli(
        ["koszul", "--vars", "x,y", "--gens", "z", "--at", "0,0"]
    )
    assert code == 2 and "unknown variable" in err


def test_koszul_refuses_long_numbers_quickly():
    long = "9" * 5000
    cases = [
        (["--gens", "x", "--at", "1e10000000"], 1),
        (["--gens", "x", "--at", "1e5000"], 1),
        (["--gens", "x", "--at", "0,1E-65"], 3),
        (["--gens", "x", "--at", f" {'1' * (MAX_DIGITS + 1)}"], 1),
        (["--gens", f"{long}*x", "--at", "1"], 1),
        (["--gens", f"x-2/{long}", "--at", "1"], 5),
        (["--gens", f"x,1+{'1' * (MAX_DIGITS + 1)}*x", "--at", "1"], 3),
    ]
    for args, column in cases:
        start = time.perf_counter()
        code, out, err = run_cli(["koszul", "--vars", "x"] + args)
        assert time.perf_counter() - start < 0.5, args
        assert (code, out) == (1, ""), args
        assert err == (
            f"thicklat: error: number exceeds the bound of {MAX_DIGITS} digits "
            f"(column {column})\n"
        ), args


def test_koszul_accepts_numbers_at_the_digit_bound():
    top = "9" * MAX_DIGITS
    for gens, at in ((f"{top}*x-1/{top}", f"1e{MAX_DIGITS - 1}"), ("x", f"-{top}/{top[1:]}")):
        code, out, err = run_cli(["koszul", "--vars", "x", "--gens", gens, f"--at={at}"])
        assert code == 0 and err == "", (gens, at)
        assert json.loads(out)["payload"]["homology"] == [[0, 0], [1, 0]]


def koszul_generator(gens: str):
    code, out, err = run_cli(["koszul", "--vars", "x", "--gens", gens, "--at", "1"])
    return code, json.loads(out)["payload"]["generators"] if code == 0 else None, err


def test_koszul_refuses_long_products_of_constants_quickly():
    """Seventy factors of 64 nines pass the digits Python prints; the
    product is refused at the `*` whose factor would take it there."""
    top = "9" * MAX_DIGITS
    start = time.perf_counter()
    code, out, err = run_cli(
        ["koszul", "--vars", "x", "--gens", f"{top}*" * 70 + "x", "--at", "1"]
    )
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    # 67 factors of 65 characters, then the refused `*`
    assert err == (
        "thicklat: error: product may have coefficients beyond the bound of "
        f"{MAX_COEFFICIENT_DIGITS} digits (column {67 * 65})\n"
    )
    assert PYTHON_DIGIT_LIMIT not in err


def coprime_denominators() -> list[int]:
    """Seventy pairwise coprime 64-digit numbers m * i + 1: a prime that
    divides two of them divides their difference, which is below 70, so
    it divides m, the product of the primes below 70 times 10^37."""
    m = prod(p for p in range(2, 70) if all(p % q for q in range(2, p))) * 10**37
    dens = [m * i + 1 for i in range(13, 83)]
    assert {len(str(d)) for d in dens} == {MAX_DIGITS}
    assert all(gcd(a, b) == 1 for a, b in itertools.combinations(dens, 2))
    return dens


def test_koszul_refuses_long_sums_of_fractions_quickly():
    """1/d_1 + ... + 1/d_70 is one constant whose denominator, the
    product of the d_i, passes the digits Python prints; the sum is
    refused at the `+` that takes it there."""
    terms = [f"1/{d}" for d in coprime_denominators()]
    total, k = Fraction(0), 0
    while max(abs(total.numerator), total.denominator) < 10**MAX_COEFFICIENT_DIGITS:
        total += Fraction(terms[k][2:]) ** -1
        k += 1
    column = len("+".join(terms[: k - 1])) + 1
    start = time.perf_counter()
    code, out, err = run_cli(
        ["koszul", "--vars", "x", "--gens", "+".join(terms) + "+x", "--at", "1"]
    )
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == (
        "thicklat: error: sum has a coefficient beyond the bound of "
        f"{MAX_COEFFICIENT_DIGITS} digits (column {column})\n"
    )
    assert PYTHON_DIGIT_LIMIT not in err
    # one term fewer prints, as the exact sum
    total -= Fraction(terms[k - 1][2:]) ** -1
    assert koszul_generator("+".join(terms[: k - 1]) + "+x") == (0, [f"x + {total}"], "")


def test_koszul_accepts_coefficients_up_to_the_print_limit():
    """Constants at the digit bound, multiplied or raised to the highest
    exponent, print exactly as Python computes them."""
    top = "9" * MAX_DIGITS
    n = int(top)
    assert n**67 < 10**MAX_COEFFICIENT_DIGITS <= n**68
    cases = {
        f"{top}*" * 67 + "x": [f"{n**67}*x"],
        f"({top})^64*x": [f"{n**64}*x"],
        f"({top}*x)^32*({top})^32": [f"{n**64}*x^32"],
        f"(1/{top}*x)^64": [f"1/{n**64}*x^64"],
        f"({top})^64*(1/{top})^64*x": ["x"],
        # one-term factors cancel across the product: the bound sees it
        f"({top}/{10**63 + 7})^40*({10**63 + 7}/{top})^40*x": ["x"],
        f"({top}*1000)^64": [f"{(n * 1000)**64}"],
    }
    for gens, generators in cases.items():
        assert koszul_generator(gens) == (0, generators, ""), gens[:40]
    code, generators, _ = koszul_generator(f"(x+{top})^64")
    assert code == 0
    assert generators == [str(parse_polynomial(PolyRing(("x",)), f"(x+{top})^64"))]
    assert generators[0].endswith(f"+ {n**64}")


def test_parse_polynomial_coefficient_bound():
    ring = PolyRing(("x",))
    top = "9" * MAX_DIGITS
    message = f"coefficients beyond the bound of {MAX_COEFFICIENT_DIGITS} digits"
    # the column is the refused power's `^` or product's `*`
    for text, sign in (
        (f"({top}*{top})^64", "^"),
        (f"(1/{top}*1/{top})^64", "^"),
        (f"x*({top})^64*{top}^4", "*"),
        (f"(x+{top})^64*(x+{top})^4", "*"),
    ):
        with pytest.raises(ExponentBoundError) as err:
            parse_polynomial(ring, text)
        assert err.value.column == text.rindex(sign) + 1, text[:40]
        assert message in str(err.value)


def test_koszul_refuses_huge_exponents_quickly():
    for exponent in ("9999999", "9" * 5000):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["koszul", "--vars", "x", "--gens", f"x^{exponent}", "--at", "0"]
        )
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert "exponent exceeds the bound 64" in err and "column 3" in err


# ---------------------------------------------------------------------------
# polynomial parser unit tests


RING = PolyRing(("x", "y"))


def test_parse_polynomial_round_trips():
    x, y = Poly.variable(RING, "x"), Poly.variable(RING, "y")
    cases = {
        "x": x,
        "x + y": x + y,
        "x*y": x * y,
        "x^2": x * x,
        "-x": -x,
        "x - -y": x + y,
        "2*x + 3/4": x + x + Poly.const(RING, "3/4"),
        "(x + y)^2": (x + y) * (x + y),
        "1/2*(x - y)": Poly.const(RING, "1/2") * (x - y),
        "0": Poly.zero(RING),
        "x^0": Poly.const(RING, 1),
    }
    for text, expected in cases.items():
        assert parse_polynomial(RING, text) == expected, text


def test_parse_polynomial_error_positions():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(RING, "x + ")
    assert err.value.column == 5
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(RING, "x y")
    assert err.value.column == 3
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(RING, "(x + y")
    assert err.value.column == 7
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(RING, "x^(2)")
    assert err.value.column == 3
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(RING, "3/0")
    assert err.value.column == 3
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial(RING, "x $ y")
    # a superscript is a digit to str.isdigit, but not a decimal
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(RING, "x^²")
    assert err.value.column == 3 and "unexpected character" in str(err.value)


def test_parse_polynomial_exponent_bound():
    x = Poly.variable(RING, "x")
    x64 = Poly(RING, (((64, 0), 1),))
    assert parse_polynomial(RING, "x^64") == x64
    assert parse_polynomial(RING, "x^0064") == x64
    assert parse_polynomial(RING, "(2*x)^64") == x64.scale(2**64)
    assert parse_polynomial(RING, "x^000") == Poly.const(RING, 1)
    assert parse_polynomial(RING, "x^1") == x
    for text, column in (("x^65", 3), ("y + (x*y)^100", 11)):
        with pytest.raises(ExponentBoundError) as err:
            parse_polynomial(RING, text)
        assert isinstance(err.value, PolynomialSyntaxError)
        assert err.value.column == column


def test_parse_polynomial_bounds_nested_powers():
    x, y = Poly.variable(RING, "x"), Poly.variable(RING, "y")
    x64 = Poly(RING, (((64, 0), 1),))
    assert parse_polynomial(RING, "(x^2)^32") == x64
    assert parse_polynomial(RING, "(x*y)^64") == Poly(RING, (((64, 64), 1),))
    assert parse_polynomial(RING, "((x^4)^4)^4") == x64
    assert parse_polynomial(RING, "(x^64)^0") == Poly.const(RING, 1)
    assert parse_polynomial(RING, "(x + y^2)^2") == (x + y * y) * (x + y * y)
    for text, column in (
        ("(x^2)^33", 7),
        ("(x*y^2)^33", 9),
        ("(x^64)^2", 8),
        ("((x^8)^8)^2", 11),
    ):
        with pytest.raises(ExponentBoundError) as err:
            parse_polynomial(RING, text)
        assert err.value.column == column


@pytest.mark.parametrize(
    "base",
    ["1/2*x - 3*y + 2/3", "x + x^2", "-x^2*y + 3/5*x*y^2 - 7/4", "x - y", "0"],
)
def test_parse_polynomial_powers_match_repeated_products(base):
    """A power is expanded in one pass by multinomial coefficients; it
    must equal the product of its factors, terms in the same order."""
    factor = parse_polynomial(RING, base)
    expected = Poly.const(RING, 1)
    for exponent in range(7):
        found = parse_polynomial(RING, f"({base})^{exponent}")
        assert found == expected and found.terms == expected.terms, exponent
        expected = expected * factor
    ring8 = PolyRing(tuple(f"x{i}" for i in range(1, 9)))
    text = "1/2*x1+x2-3*x3+x4+x5+x6+x7+2/3*x8"
    product = Poly.const(ring8, 1)
    for _ in range(4):
        product = product * parse_polynomial(ring8, text)
    assert parse_polynomial(ring8, f"({text})^4").terms == product.terms


def test_koszul_refuses_nested_powers_quickly():
    start = time.perf_counter()
    code, out, err = run_cli(
        ["koszul", "--vars", "x", "--gens", "(((x^64)^64)^64)^64", "--at", "3/2"]
    )
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == "thicklat: error: exponent exceeds the bound 64 (column 10)\n"


def test_parse_polynomial_term_bound():
    # binom(t + e - 1, e) bounds the terms of a t-term base to the e
    ring = PolyRing(tuple(f"x{i}" for i in range(1, 9)))
    base = "(x1+x2+x3+x4+x5+x6+x7+x8)"
    assert len(parse_polynomial(ring, f"{base}^2").terms) == 36
    assert len(parse_polynomial(ring, "(x1 + 1)^64").terms) == 65
    for text, column in ((f"{base}^9", 27), (f"x1 + ({base}^4)^2", 36)):
        with pytest.raises(ExponentBoundError) as err:
            parse_polynomial(ring, text)
        assert err.value.column == column
        assert f"bound of {MAX_TERMS} terms" in str(err.value)


def test_parse_polynomial_product_bound():
    # a product of factors with t1 and t2 terms has at most t1 * t2
    ring = PolyRing(tuple(f"x{i}" for i in range(1, 9)))
    base = "(x1+x2+x3+x4+x5+x6+x7+x8)"
    assert parse_polynomial(ring, f"{base}^2*{base}^2") == parse_polynomial(
        ring, f"{base}^4"
    )
    # 65 * 65 terms pass, a third factor of 3 terms does not
    text = "(x1 + 1)^64*(x2 + 1)^64"
    assert len(parse_polynomial(ring, text).terms) == 65 * 65
    with pytest.raises(ExponentBoundError) as err:
        parse_polynomial(ring, text + "*(x3 + 1)^2")
    assert err.value.column == 24
    assert str(err.value) == (
        f"product may expand beyond the bound of {MAX_TERMS} terms (column 24)"
    )


def test_koszul_refuses_products_of_powers_quickly():
    variables = ",".join(f"x{i}" for i in range(1, 9))
    base = "(x1+x2+x3+x4+x5+x6+x7+x8)"
    start = time.perf_counter()
    code, out, err = run_cli(
        ["koszul", "--vars", variables,
         "--gens", f"{base}^6*{base}^6", "--at", ",".join("1" * 8)]
    )
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == (
        "thicklat: error: product may expand beyond the bound of 10000 terms (column 28)\n"
    )


def test_koszul_refuses_multinomial_powers_quickly():
    variables = ",".join(f"x{i}" for i in range(1, 9))
    start = time.perf_counter()
    code, out, err = run_cli(
        ["koszul", "--vars", variables,
         "--gens", "(x1+x2+x3+x4+x5+x6+x7+x8)^64", "--at", ",".join("0" * 8)]
    )
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == (
        "thicklat: error: power may expand beyond the bound of 10000 terms (column 27)\n"
    )


def test_koszul_refuses_generators_past_the_term_bound_quickly():
    # 64 generators of 6435 terms each: the first two pass MAX_TERMS
    variables = ",".join(f"x{i}" for i in range(1, 9))
    gens = ",".join(["(x1+x2+x3+x4+x5+x6+x7+x8)^8"] * 64)
    start = time.perf_counter()
    code, out, err = run_cli(
        ["koszul", "--vars", variables, "--gens", gens, "--at", ",".join("0" * 8)]
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == (
        "thicklat: error: the first 2 generators have 12870 terms, "
        f"beyond the bound of {MAX_TERMS} terms\n"
    )


@pytest.mark.parametrize(
    "noun, args",
    [
        # the generators do not parse: the cap is checked first
        ("generators", ["--vars", "x", "--gens", ",".join(["(x"] * 65), "--at", "0"]),
        ("variables", ["--vars", ",".join(f"x{i}" for i in range(65)),
                       "--gens", "x0", "--at", ",".join("0" * 65)]),
    ],
)
def test_koszul_refuses_more_than_the_cap_quickly(noun, args):
    start = time.perf_counter()
    code, out, err = run_cli(["koszul"] + args)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == f"thicklat: error: 65 {noun} exceed the cap {MAX_KOSZUL_INPUTS}\n"


def test_koszul_accepts_the_cap():
    k = MAX_KOSZUL_INPUTS
    names = ",".join(f"x{i}" for i in range(k))
    start = time.perf_counter()
    code, out, _ = run_cli(["koszul", "--vars", names, "--gens", names, "--at", ",".join("0" * k)])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    homology = json.loads(out)["payload"]["homology"]
    assert homology == [[n, comb(k, n)] for n in range(k + 1)]
