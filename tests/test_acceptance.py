"""Acceptance criteria, one test and one pass/fail line per criterion.

Each test prints `PASS criterion N: ...` after its assertions; pytest -v
additionally reports PASSED/FAILED per criterion test.  All checks are
exact; the stated runtime budgets are asserted with a monotonic clock.
"""
import io
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

from thicklat.cli import main as cli_main
from thicklat.figures import FIGURE1_NODES, FIGURE2_COVERS, FIGURE2_NODES
from thicklat.koszul import Poly, PolyRing, RationalPoint
from thicklat.linalg import GF, QQ
from thicklat.quiver_rep import (
    FieldRep,
    base_change,
    decompose_dims,
    default_orientation,
    hom_dim,
    indecomposable_dims,
    tree_module,
)
from thicklat.root_system import (
    DynkinType,
    NcLattice,
    build_root_system,
    catalan_number,
    nc_to_set_partition,
)
from thicklat.spec_model import (
    all_functions,
    monotone_functions,
    poset_chain,
    poset_diamond,
    poset_point,
)
from thicklat.thick_enum import _close_mask, _perp_rows, thick_masks, verify_bijection

from decompose_oracle import ext_dim
from koszul_oracle import evaluate, homology_dims, koszul_complex, koszul_tensor_module
from specfn_oracle import cover_pairs


def nc_lattice(name: str) -> NcLattice:
    dynkin = DynkinType.parse(name)
    return NcLattice(build_root_system(dynkin), default_orientation(dynkin))


def report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_figure1_reproduction():
    start = time.perf_counter()
    lattice = nc_lattice("A2")
    assert len(lattice) == 5
    assert len(lattice.covers()) == 6
    partitions = {nc_to_set_partition(lattice.rs, e) for e in lattice.elements}
    assert ((1, 2, 3),) in partitions
    assert ((1,), (2,), (3,)) in partitions
    atoms = {
        nc_to_set_partition(lattice.rs, e)
        for e, length in zip(lattice.elements, lattice.lengths)
        if length == 1
    }
    assert atoms == {
        ((1, 2), (3,)),
        ((1,), (2, 3)),
        ((1, 3), (2,)),
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"NC(A2) is the 5 element, 6 cover lattice ({elapsed:.3f}s)")


def test_criterion_2_figure2_reproduction():
    start = time.perf_counter()
    lattice = nc_lattice("A2")
    functions = monotone_functions(poset_chain(2), lattice)
    assert len(functions.members) == 12
    # each member labeled by the Figure 1 partitions of its two values
    label = [
        FIGURE1_NODES.index(nc_to_set_partition(lattice.rs, e))
        for e in lattice.elements
    ]
    nodes = [tuple(label[v] for v in values) for values in functions.members]
    assert set(nodes) == set(FIGURE2_NODES)
    assert {(nodes[i], nodes[j]) for i, j in cover_pairs(functions)} == {
        (FIGURE2_NODES[i], FIGURE2_NODES[j]) for i, j in FIGURE2_COVERS
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"12 monotone functions match the reference diagram ({elapsed:.3f}s)")


def test_criterion_3_catalan_counts():
    expected = {
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
    timings = {}
    for name, count in expected.items():
        start = time.perf_counter()
        lattice = nc_lattice(name)
        covers = lattice.covers()
        labels = [lattice.reflection_factorization(i) for i in range(len(lattice))]
        timings[name] = time.perf_counter() - start
        assert len(lattice) == len(set(labels)) == count, name
        lengths = lattice.lengths
        assert all(lengths[j] == lengths[i] + 1 for i, j in covers), name
        assert catalan_number(DynkinType.parse(name)) == count, name
    assert timings["E6"] < 1.0
    assert timings["E7"] < 3.0 and timings["E8"] < 3.0
    assert all(t < 0.5 for n, t in timings.items() if n[0] != "E")
    report(
        3,
        "enumeration sizes 2, 5, 14, 42, 50, 182, 833, 4160, 25080 match the "
        f"degree product formula (E6 {timings['E6']:.2f}s, "
        f"E8 {timings['E8']:.2f}s with covers and labels)",
    )


def test_criterion_4_thick_counts_and_bijection():
    expected = {"A1": 2, "A2": 5, "A3": 14, "D4": 50}
    start = time.perf_counter()
    for name, count in expected.items():
        quiver = default_orientation(DynkinType.parse(name))
        assert len(thick_masks(quiver, GF(2))) == count, name
        rep = verify_bijection(quiver, GF(2))
        assert rep.ok and rep.thick_count == rep.nc_count == count, name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        4,
        "wide subcategory counts 2, 5, 14, 50 over GF(2) with order "
        f"isomorphisms onto the partition lattices ({elapsed:.2f}s)",
    )


def test_d4_thick_enumeration_over_gf5_within_budget(fresh_thick_caches):
    quiver = default_orientation(DynkinType.parse("D4"))
    start = time.perf_counter()
    masks = thick_masks(quiver, GF(5))
    elapsed = time.perf_counter() - start
    assert len(masks) == 50
    assert elapsed < 0.15


def test_e6_thick_enumeration_over_gf31_within_budget(fresh_thick_caches):
    quiver = default_orientation(DynkinType.parse("E6"))
    start = time.perf_counter()
    masks = thick_masks(quiver, GF(31))
    elapsed = time.perf_counter() - start
    assert len(masks) == 833
    assert elapsed < 1.0


def test_criterion_5_field_independence():
    quiver = default_orientation(DynkinType.parse("A3"))
    families = {p: frozenset(thick_masks(quiver, GF(p))) for p in (2, 3, 5)}
    assert families[2] == families[3] == families[5]
    report(5, "A3 dimension vector families agree over GF(2), GF(3), GF(5)")


def test_criterion_6_rigid_unit_lifts():
    fields = [GF(2), GF(3), GF(5), QQ]
    for name in ("A2", "A3", "A4", "D4"):
        quiver = default_orientation(DynkinType.parse(name))
        for d in indecomposable_dims(quiver):
            module = tree_module(quiver, d)
            assert all(
                x in (0, 1) for mat in module.maps for row in mat for x in row
            )
            for field in fields:
                rep = base_change(module, field)
                assert hom_dim(rep, rep) == 1, (name, d, field.char)
                assert ext_dim(rep, rep) == 0, (name, d, field.char)
    report(
        6,
        "every positive root of A2, A3, A4, D4 lifts to a 0/1 module that "
        "is a rigid brick over GF(2), GF(3), GF(5) and the rationals",
    )


def test_criterion_7_function_counts():
    cases = [
        ("A2", poset_chain(2), 25, 12),
        ("A1", poset_chain(3), 8, 4),
        ("A2", poset_point(), 5, 5),
    ]
    for name, poset, all_count, monotone_count in cases:
        nc = nc_lattice(name)
        everything = all_functions(poset, nc)
        assert len(everything.members) == all_count
        assert all_count == len(nc) ** len(poset.elements)
        assert len(monotone_functions(poset, nc).members) == monotone_count
    report(7, "function space sizes 25/12, 8/4, 5/5 for the three test pairs")


def test_d4_diamond_monotone_functions_within_budget():
    nc = nc_lattice("D4")
    start = time.perf_counter()
    lattice = monotone_functions(poset_diamond(), nc)
    elapsed = time.perf_counter() - start
    assert len(lattice.members) == 9432
    assert len(cover_pairs(lattice)) == 48108
    assert elapsed < 0.5


def test_specfn_json_peak_memory_within_budget():
    """The 1.2 MB JSON of all functions from two points into NC(A4) is
    written in pieces, so the traced peak stays well under the text's
    several copies."""
    sizes = []

    class Sink:
        def write(self, text):
            sizes.append(len(text))

    old = sys.stdout
    sys.stdout = Sink()
    tracemalloc.start()
    try:
        code = cli_main(
            ["specfn", "--type", "A4", "--poset", "antichain2", "--mode", "all"]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.stdout = old
    assert code == 0 and sum(sizes) == 1158318
    assert peak < 2.5 * 2**20


def test_specfn_d4_diamond_json_peak_memory_within_budget():
    """The 7.36 MB JSON of the 9,432 monotone functions from the diamond
    into NC(D4) is rendered in batches from the value tuples, and its
    48,108 covers from the members' upper cover rows in rank order, with
    no list of cover pairs or keys, so the traced peak stays under the
    text's size."""
    sizes = []

    class Sink:
        def write(self, text):
            sizes.append(len(text))

    old = sys.stdout
    sys.stdout = Sink()
    tracemalloc.start()
    try:
        code = cli_main(["specfn", "--type", "D4", "--poset", "diamond"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.stdout = old
    assert code == 0 and sum(sizes) == 7360216
    assert peak < 6 * 2**20


def test_e8_point_count_within_budget():
    buffer, old = io.StringIO(), sys.stdout
    start = time.perf_counter()
    sys.stdout = buffer
    try:
        code = cli_main(["specfn", "--type", "E8", "--poset", "point", "--count"])
    finally:
        sys.stdout = old
    elapsed = time.perf_counter() - start
    assert code == 0 and buffer.getvalue() == "25080\n"
    assert elapsed < 3.0


def test_criterion_8_koszul_support_dichotomy():
    ring = PolyRing(("x", "y"))
    x, y = Poly.variable(ring, "x"), Poly.variable(ring, "y")
    complex_ = koszul_complex(ring, (x, y))
    origin = RationalPoint((0, 0))
    assert homology_dims(evaluate(complex_, origin)) == {0: 1, 1: 2, 2: 1}
    quiver = default_orientation(DynkinType.parse("A2"))
    module = tree_module(quiver, (1, 1))
    rng = random.Random(20240815)
    points = [origin]
    while len(points) < 21:
        pt = RationalPoint(
            (
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
        )
        if any(c != 0 for c in pt.coordinates):
            points.append(pt)
    for pt in points[1:]:
        dims = homology_dims(evaluate(complex_, pt))
        assert all(v == 0 for v in dims.values()), pt
    for pt in points:
        for _, vec in koszul_tensor_module(complex_, module, pt):
            ratios = {v // d for v, d in zip(vec, module.dim) if d}
            assert len(ratios) == 1
            assert vec == tuple(next(iter(ratios)) * d for d in module.dim)
    report(
        8,
        "K(x, y) has homology (1, 2, 1) at the origin, vanishes at 20 "
        "random rational points elsewhere, and module tensors stay "
        "multiples of (1, 1)",
    )


def test_koszul_nine_variables_at_the_origin_within_budget():
    ring = PolyRing(tuple(f"x{i}" for i in range(1, 10)))
    gens = [Poly.variable(ring, v) for v in ring.variables]
    start = time.perf_counter()
    dims = homology_dims(evaluate(koszul_complex(ring, gens), (0,) * 9))
    elapsed = time.perf_counter() - start
    assert dims == {i: math.comb(9, i) for i in range(10)}
    assert elapsed < 5.0


def test_koszul_cli_twelve_generators_at_the_origin_within_budget():
    # 6.5 s when the CLI built and ranked the complex
    names = ",".join(f"x{i}" for i in range(1, 13))
    buffer, old = io.StringIO(), sys.stdout
    start = time.perf_counter()
    sys.stdout = buffer
    try:
        code = cli_main(
            ["koszul", "--vars", names, "--gens", names, "--at", ",".join("0" * 12)]
        )
    finally:
        sys.stdout = old
    elapsed = time.perf_counter() - start
    payload = json.loads(buffer.getvalue())["payload"]
    assert code == 0
    assert payload["homology"] == [[n, math.comb(12, n)] for n in range(13)]
    assert elapsed < 0.5


def unimodular_pair(rng, n):
    """A random integer matrix of determinant +-1 and its inverse, built
    from 2n elementary row operations."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in mat]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
        for row in inv:
            row[j] -= c * row[i]
    return mat, inv


def disguised_sum(quiver, rng, summands, total):
    """A direct sum of `summands` tree modules of total dimension `total`,
    under a random unimodular base change at every vertex, over QQ.
    Returns the representation and its summands' dimension vectors."""
    roots = indecomposable_dims(quiver)
    while True:
        dims = [rng.choice(roots) for _ in range(summands)]
        if sum(map(sum, dims)) == total:
            break
    modules = [tree_module(quiver, d) for d in dims]
    size = [sum(m.dim[v] for m in modules) for v in range(quiver.rank)]
    changes = [unimodular_pair(rng, n) for n in size]
    maps = []
    for a, (s, t) in enumerate(quiver.arrows):
        block = [[0] * size[s - 1] for _ in range(size[t - 1])]
        row = col = 0
        for m in modules:
            for i, r in enumerate(m.maps[a]):
                block[row + i][col:col + len(r)] = r
            row += m.dim[t - 1]
            col += m.dim[s - 1]
        into, _ = changes[t - 1]
        _, out_of = changes[s - 1]
        mat = [[sum(into[i][k] * block[k][j] for k in range(size[t - 1]))
                for j in range(size[s - 1])] for i in range(size[t - 1])]
        mat = [[sum(mat[i][k] * out_of[k][j] for k in range(size[s - 1]))
                for j in range(size[s - 1])] for i in range(size[t - 1])]
        maps.append(tuple(tuple(Fraction(x) for x in r) for r in mat))
    return FieldRep(QQ, quiver, tuple(size), tuple(maps)), sorted(dims)


def test_rational_decomposition_within_budget(fresh_thick_caches):
    quiver = default_orientation(DynkinType.parse("D5"))
    rep, summands = disguised_sum(quiver, random.Random("decompose-budget"), 4, 18)
    start = time.perf_counter()
    found = decompose_dims(rep)
    elapsed = time.perf_counter() - start
    assert list(found) == summands
    assert elapsed < 0.1


def test_criterion_9_property_suites():
    # partial order and lattice laws, exhaustively
    for name in ("A3", "D4"):
        lattice = nc_lattice(name)
        n = len(lattice)
        for i in range(n):
            assert lattice.leq(i, i)
            for j in range(n):
                if i != j and lattice.leq(i, j):
                    assert not lattice.leq(j, i)
                for k in range(n):
                    if lattice.leq(i, j) and lattice.leq(j, k):
                        assert lattice.leq(i, k)
        join = [[lattice.join(i, j) for j in range(n)] for i in range(n)]
        meet = [[lattice.meet(i, j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert join[i][j] == join[j][i]
                assert meet[i][j] == meet[j][i]
                assert meet[i][join[i][j]] == i
                assert join[i][meet[i][j]] == i
        for i, j, k in itertools.product(range(n), repeat=3):
            assert join[join[i][j]][k] == join[i][join[j][k]]
            assert meet[meet[i][j]][k] == meet[i][meet[j][k]]
    # closure idempotence on random seeds
    for name, seed in (("A2", 1), ("A3", 2), ("D4", 3)):
        quiver = default_orientation(DynkinType.parse(name))
        rows = _perp_rows(quiver, GF(2))
        n = len(indecomposable_dims(quiver))
        rng = random.Random(seed)
        for _ in range(200):
            chosen = sum(1 << i for i in rng.sample(range(n), rng.randint(0, 3)))
            closed = _close_mask(rows, chosen)
            assert chosen & ~closed == 0
            assert _close_mask(rows, closed) == closed
    # deterministic command line output
    for args in (
        ["nc", "--type", "A3"],
        ["thick", "--type", "A3", "--field", "2"],
        ["specfn", "--type", "A2", "--poset", "chain2"],
    ):
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            old = sys.stdout
            sys.stdout = buffer
            try:
                code = cli_main(args)
            finally:
                sys.stdout = old
            assert code == 0
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
    report(
        9,
        "order axioms and lattice laws hold exhaustively on NC(A3) and "
        "NC(D4), closures are idempotent on 600 random seeds, and command "
        "reruns are byte identical",
    )
