"""Quiver representations: tree modules, Hom/Ext, decomposition."""
import hashlib
import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from thicklat.linalg import GF, QQ, rank, solve
from thicklat.quiver_rep import (
    FieldRep,
    Quiver,
    TreeModule,
    base_change,
    cokernel_rep,
    decompose_dims,
    default_orientation,
    euler_form,
    ext_cocycle_basis,
    extension_middle,
    hom_basis,
    hom_dim,
    hom_table,
    indecomposable_dims,
    kernel_rep,
    tree_module,
)
from thicklat.root_system import DynkinType, build_root_system
from thicklat import linalg, quiver_rep, root_system

from decompose_oracle import (
    decompose_dims as fitting_decompose_dims,
    ext_dim,
    morphism_from_coeffs,
)

FIELDS = [GF(2), GF(3), GF(5), QQ]


def quiver_of(name: str) -> Quiver:
    return default_orientation(DynkinType.parse(name))


def all_tree_modules(name: str):
    quiver = quiver_of(name)
    return [tree_module(quiver, d) for d in indecomposable_dims(quiver)]


def direct_sum(field, reps):
    quiver = reps[0].quiver
    dims = tuple(sum(r.dim[v] for r in reps) for v in range(quiver.rank))
    maps = []
    for ai, (s, t) in enumerate(quiver.arrows):
        rows = dims[t - 1]
        cols = dims[s - 1]
        block = [[field.zero] * cols for _ in range(rows)]
        roff = coff = 0
        for r in reps:
            for i in range(r.dim[t - 1]):
                for j in range(r.dim[s - 1]):
                    block[roff + i][coff + j] = r.maps[ai][i][j]
            roff += r.dim[t - 1]
            coff += r.dim[s - 1]
        maps.append(tuple(tuple(row) for row in block))
    return FieldRep(field, quiver, dims, tuple(maps))


def random_invertible(field, n, rng):
    if n == 0:
        return []
    while True:
        mat = [
            [field.from_int(rng.randrange(field.char or 5)) for _ in range(n)]
            for _ in range(n)
        ]
        if rank(field, mat) == n:
            return mat


def fractional_invertible(n, rng):
    """An invertible matrix over QQ with fractional entries: an integer
    one with each row divided by an integer of its own."""
    return [
        [x / d for x in row]
        for row, d in zip(random_invertible(QQ, n, rng), [rng.randint(2, 5) for _ in range(n)])
    ]


def conjugate(rep: FieldRep, changes) -> FieldRep:
    """Transport the representation along per-vertex base changes."""
    field = rep.field
    identity = [
        [
            [field.one if i == j else field.zero for j in range(d)]
            for i in range(d)
        ]
        for d in rep.dim
    ]
    inverses = []
    for v, p in enumerate(changes):
        d = rep.dim[v]
        if d == 0:
            inverses.append([])
            continue
        inv = solve(field, p, identity[v])
        assert inv is not None
        inverses.append([list(row) for row in inv])
    maps = []
    for ai, (s, t) in enumerate(rep.quiver.arrows):
        ds, dt = rep.dim[s - 1], rep.dim[t - 1]
        mat = [list(row) for row in rep.maps[ai]]
        # P_t @ M_a @ P_s^{-1}
        left = [
            [
                _dot(field, changes[t - 1][i], [mat[k][j] for k in range(dt)])
                for j in range(ds)
            ]
            for i in range(dt)
        ]
        full = [
            [
                _dot(
                    field,
                    left[i],
                    [inverses[s - 1][k][j] for k in range(ds)],
                )
                for j in range(ds)
            ]
            for i in range(dt)
        ]
        maps.append(tuple(tuple(row) for row in full))
    return FieldRep(field, rep.quiver, rep.dim, tuple(maps))


def _dot(field, row, col):
    acc = field.zero
    for x, y in zip(row, col):
        acc = field.add(acc, field.mul(x, y))
    return acc


# ---------------------------------------------------------------------------
# tree modules


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "D4", "D5", "E6"])
def test_tree_modules_exist_with_unit_entries(name):
    quiver = quiver_of(name)
    roots = indecomposable_dims(quiver)
    rs = build_root_system(quiver.dynkin)
    assert set(roots) == set(rs.positive_roots)
    for d in roots:
        module = tree_module(quiver, d)
        assert module.dim == d
        for mat in module.maps:
            for row in mat:
                assert all(x in (0, 1) for x in row)


def orientations(name: str):
    """Every orientation of the named diagram, in a fixed order."""
    dynkin = DynkinType.parse(name)
    edges = dynkin.diagram_edges()
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield Quiver(
            dynkin,
            tuple((t, s) if f else (s, t) for (s, t), f in zip(edges, flips)),
        )


def assert_tree_modules_are_rigid_bricks(quiver, field):
    """Every root builds a 0/1 module of that dimension vector that is a
    rigid brick over the field, hence the indecomposable of that root."""
    for d in indecomposable_dims(quiver):
        module = tree_module(quiver, d)
        assert module.dim == d
        assert all(x in (0, 1) for mat in module.maps for row in mat for x in row)
        rep = base_change(module, field)
        assert hom_dim(rep, rep) == 1, (quiver.arrows, d)
        assert ext_dim(rep, rep) == 0, (quiver.arrows, d)


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "D4", "D5", "E6"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.char}")
def test_tree_modules_are_rigid_bricks(name, field):
    assert_tree_modules_are_rigid_bricks(quiver_of(name), field)


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "E6"])
def test_every_orientation_builds_rigid_bricks(name):
    for quiver in orientations(name):
        assert_tree_modules_are_rigid_bricks(quiver, GF(2))


def tree_module_digest(quivers) -> str:
    """SHA-256 of the arrows and the matrices of every tree module of
    each quiver, in indecomposable_dims order."""
    digest = hashlib.sha256()
    for quiver in quivers:
        for d in indecomposable_dims(quiver):
            digest.update(repr((quiver.arrows, tree_module(quiver, d).maps)).encode())
    return digest.hexdigest()


# Every orientation's tree modules as glued when each pair was chosen by
# dim Hom and dim Ext1 over QQ, the independent way to pick it; E6, E7
# and E8 are in test_long.py.
TREE_MODULE_DIGESTS = {
    "A1": "56546d2909af60407f1b144ea7574bf0cb4c48af72e18baac6c9da2036df2a88",
    "A2": "c7ba1f656b08694d94e1b93bd5f7539041b2a06c2d25e6270dd98a4722669bd2",
    "A3": "ef7de06756d753c136d28ff734733bb592610e4df1eb8579636fa01be9fbfc82",
    "A4": "a915b68f4b4da8436265595a46538d0bf2963c0cc0e29ab2ab8db52795dc3766",
    "A5": "36ce4a0247d2ca9af08193d0b3836d17fb5d583bca9ee3c02c848ffabf555f43",
    "D4": "94769d9836301e9bc5a958434fdfb9faf2489ef13a402f44b2b4a08e14275a1c",
    "D5": "3bdf034750c3d1aac60282226b44729fd0542c9928d30757243eb1f69a2cb415",
}


@pytest.mark.parametrize("name", sorted(TREE_MODULE_DIGESTS))
def test_tree_modules_match_pinned_digests(name):
    """Gluing by the Euler form picks the same pairs, and so the same
    matrices, as gluing by Hom and Ext1 over the field."""
    assert tree_module_digest(orientations(name)) == TREE_MODULE_DIGESTS[name]


def test_tree_module_rejects_non_roots():
    quiver = quiver_of("A3")
    for bad in ((1, 0, 1), (2, 1, 0), (0, 0, 0), (1, 2, 1)):
        with pytest.raises(ValueError):
            tree_module(quiver, bad)


def test_tree_module_entry_validation():
    quiver = quiver_of("A2")
    with pytest.raises(ValueError):
        TreeModule(quiver, (1, 1), (((2,),),))
    with pytest.raises(ValueError):
        TreeModule(quiver, (1, 1), (((1,), (0,)),))


def test_arrow_maps_have_full_possible_rank():
    """Indecomposables of tree type have injective-or-surjective arrow maps."""
    for name in ("A3", "D4"):
        quiver = quiver_of(name)
        for d in indecomposable_dims(quiver):
            module = tree_module(quiver, d)
            for (s, t), mat in zip(quiver.arrows, module.maps):
                ds, dt = d[s - 1], d[t - 1]
                if ds and dt:
                    assert rank(QQ, mat) == min(ds, dt)


# ---------------------------------------------------------------------------
# hom spaces, with a brute-force counting oracle


def brute_hom_count(field, m: FieldRep, n: FieldRep) -> int:
    """Count every tuple of vertex maps that intertwines the arrows."""
    shapes = [(n.dim[v], m.dim[v]) for v in range(m.quiver.rank)]
    entries = sum(r * c for r, c in shapes)
    p = field.char
    assert p > 0 and p**entries <= 7000, "oracle only for tiny cases"
    elems = list(field.elements())
    count = 0
    for assignment in itertools.product(elems, repeat=entries):
        mats = []
        pos = 0
        for rows, cols in shapes:
            mats.append(
                [
                    [assignment[pos + i * cols + j] for j in range(cols)]
                    for i in range(rows)
                ]
            )
            pos += rows * cols
        ok = True
        for ai, (s, t) in enumerate(m.quiver.arrows):
            ma, na = m.maps[ai], n.maps[ai]
            ds, dt = m.dim[s - 1], m.dim[t - 1]
            es = n.dim[s - 1]
            for i in range(n.dim[t - 1]):
                for j in range(ds):
                    lhs = _dot(
                        field,
                        [mats[t - 1][i][k] for k in range(dt)],
                        [ma[k][j] for k in range(dt)],
                    )
                    rhs = _dot(
                        field,
                        [na[i][l] for l in range(es)],
                        [mats[s - 1][l][j] for l in range(es)],
                    )
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("p", [2, 3])
def test_hom_dim_matches_brute_force_count(p):
    field = GF(p)
    for name in ("A2", "A3"):
        quiver = quiver_of(name)
        reps = [
            base_change(tree_module(quiver, d), field)
            for d in indecomposable_dims(quiver)
        ]
        for m, n in itertools.product(reps, repeat=2):
            entries = sum(a * b for a, b in zip(m.dim, n.dim))
            if p**entries > 7000:
                continue
            assert p ** hom_dim(m, n) == brute_hom_count(field, m, n)


@pytest.mark.parametrize("name", ["A3", "D4"])
@pytest.mark.parametrize("field", [GF(2), QQ], ids=lambda f: f"char{f.char}")
def test_euler_form_is_hom_minus_ext(name, field):
    quiver = quiver_of(name)
    reps = [
        base_change(tree_module(quiver, d), field)
        for d in indecomposable_dims(quiver)
    ]
    for m, n in itertools.product(reps, repeat=2):
        assert hom_dim(m, n) - ext_dim(m, n) == euler_form(
            quiver, m.dim, n.dim
        )


def test_euler_form_symmetrization_is_cartan_pairing():
    for name in ("A3", "D4", "E6"):
        quiver = quiver_of(name)
        rs = build_root_system(quiver.dynkin)
        cartan = rs.cartan
        rng = random.Random(1)
        for _ in range(20):
            d = tuple(rng.randint(0, 3) for _ in range(quiver.rank))
            e = tuple(rng.randint(0, 3) for _ in range(quiver.rank))
            bilinear = sum(
                d[i] * cartan[i][j] * e[j]
                for i in range(quiver.rank)
                for j in range(quiver.rank)
            )
            assert euler_form(quiver, d, e) + euler_form(quiver, e, d) == bilinear


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8"]
)
def test_euler_pairing_is_the_euler_form_and_orders_the_hom_table(name):
    """The one table of <beta_i, beta_j> is the Euler form entry by
    entry, and the Hom table's order puts every root that a nonzero Hom
    reaches before its source; every orientation, but only the default
    one of type E."""
    quivers = [quiver_of(name)] if name[0] == "E" else orientations(name)
    rs = build_root_system(DynkinType.parse(name))
    for quiver in quivers:
        roots = indecomposable_dims(quiver)
        assert root_system.euler_pairing(rs, quiver.arrows) == tuple(
            tuple(euler_form(quiver, d, e) for e in roots) for d in roots
        ), quiver.arrows
        table = hom_table(quiver)
        position = {i: k for k, i in enumerate(table.order)}
        assert sorted(position) == list(range(len(roots)))
        assert all(
            position[j] < position[i]
            for i, row in enumerate(table.hom)
            for j, h in enumerate(row)
            if h and j != i
        ), quiver.arrows


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5"])
@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f"char{f.char}")
def test_hom_dim_is_the_size_of_hom_basis(name, field):
    """The rank of the intertwining equations against the nullspace that
    hom_basis solves, on every ordered pair of indecomposables of every
    orientation."""
    for quiver in orientations(name):
        reps = [
            base_change(tree_module(quiver, d), field)
            for d in indecomposable_dims(quiver)
        ]
        for m, n in itertools.product(reps, repeat=2):
            assert hom_dim(m, n) == len(hom_basis(m, n)), (quiver.arrows, m.dim, n.dim)


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_hom_dim_over_the_rationals_with_fractions_and_empty_vertices(name):
    """Disguised sums over QQ, with fractional entries and, in half of
    them, nothing at the first vertex: Hom is additive, so its dimension
    is the sum of the Hom table over pairs of summands."""
    quiver = quiver_of(name)
    table = hom_table(quiver)
    reps = [base_change(tree_module(quiver, d), QQ) for d in table.roots]
    rng = random.Random(f"hom-qq:{name}")
    roots = list(range(len(table.roots)))
    empty_first = [i for i in roots if table.roots[i][0] == 0]
    sums = []
    for k in range(12):
        chosen = [rng.choice(empty_first if k % 2 else roots) for _ in range(rng.randint(1, 3))]
        summed = direct_sum(QQ, [reps[i] for i in chosen])
        changes = [fractional_invertible(summed.dim[v], rng) for v in range(quiver.rank)]
        sums.append((chosen, conjugate(summed, changes)))
    assert any(
        x.denominator > 1 for _, rep in sums for mat in rep.maps for row in mat for x in row
    )
    assert any(rep.dim[0] == 0 for _, rep in sums)
    for (left, m), (right, n) in itertools.product(sums, repeat=2):
        expected = sum(table.hom[i][j] for i in left for j in right)
        assert hom_dim(m, n) == len(hom_basis(m, n)) == expected


def test_hom_basis_elements_are_morphisms():
    field = GF(5)
    quiver = quiver_of("A3")
    m = base_change(tree_module(quiver, (1, 1, 1)), field)
    n = base_change(tree_module(quiver, (1, 1, 0)), field)
    basis = hom_basis(m, n)
    assert len(basis) == hom_dim(m, n) >= 1
    for phi in basis:
        for ai, (s, t) in enumerate(quiver.arrows):
            for j in range(m.dim[s - 1]):
                for i in range(n.dim[t - 1]):
                    lhs = _dot(
                        field,
                        phi[t - 1][i],
                        [m.maps[ai][k][j] for k in range(m.dim[t - 1])],
                    )
                    rhs = _dot(
                        field,
                        n.maps[ai][i],
                        [phi[s - 1][l][j] for l in range(n.dim[s - 1])],
                    )
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# kernels, cokernels, extensions


def test_kernel_and_cokernel_ranks():
    field = GF(3)
    quiver = quiver_of("A3")
    pairs = [
        ((1, 1, 1), (1, 1, 0)),
        ((0, 0, 1), (1, 1, 1)),
        ((0, 1, 1), (1, 1, 1)),
        ((1, 1, 0), (1, 0, 0)),
    ]
    for dm, dn in pairs:
        m = base_change(tree_module(quiver, dm), field)
        n = base_change(tree_module(quiver, dn), field)
        basis = hom_basis(m, n)
        assert basis, (dm, dn)
        phi = morphism_from_coeffs(field, basis, [field.one] * len(basis))
        ker = kernel_rep(phi, m)
        coker = cokernel_rep(phi, n)
        for v in range(quiver.rank):
            r = rank(field, phi[v]) if phi[v] else 0
            assert ker.dim[v] == m.dim[v] - r
            assert coker.dim[v] == n.dim[v] - r
        # kernel and cokernel decompose into roots again
        roots = set(indecomposable_dims(quiver))
        for part in decompose_dims(ker) + decompose_dims(coker):
            assert part in roots


def test_extension_of_simples_is_the_projective():
    field = GF(2)
    quiver = quiver_of("A2")  # arrow 1 -> 2
    s1 = base_change(tree_module(quiver, (1, 0)), field)
    s2 = base_change(tree_module(quiver, (0, 1)), field)
    # nontrivial extension of the source simple by the sink simple
    assert ext_dim(s1, s2) == 1
    assert ext_dim(s2, s1) == 0
    basis = ext_cocycle_basis(s1, s2)
    assert len(basis) == 1
    middle = extension_middle(s1, s2, basis[0])
    assert middle.dim == (1, 1)
    assert decompose_dims(middle) == ((1, 1),)
    # the zero cocycle splits
    zero = tuple(
        tuple(tuple(field.zero for _ in row) for row in mat) for mat in basis[0]
    )
    split = extension_middle(s1, s2, zero)
    assert sorted(decompose_dims(split)) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_vanishing_ext_means_every_middle_splits(name):
    field = GF(2)
    quiver = quiver_of(name)
    reps = [
        base_change(tree_module(quiver, d), field)
        for d in indecomposable_dims(quiver)
    ]
    for m, n in itertools.product(reps, repeat=2):
        if ext_dim(m, n) != 0:
            continue
        slots = [
            (n.dim[t - 1], m.dim[s - 1]) for (s, t) in quiver.arrows
        ]
        entries = sum(r * c for r, c in slots)
        if 2**entries > 600:
            continue
        expected = sorted(decompose_dims(m) + decompose_dims(n))
        for assignment in itertools.product((0, 1), repeat=entries):
            cocycle = []
            pos = 0
            for rows, cols in slots:
                cocycle.append(
                    tuple(
                        tuple(
                            assignment[pos + i * cols + j] for j in range(cols)
                        )
                        for i in range(rows)
                    )
                )
                pos += rows * cols
            middle = extension_middle(m, n, tuple(cocycle))
            assert sorted(decompose_dims(middle)) == expected


def test_ext_cocycle_basis_size_matches_ext_dim():
    field = GF(3)
    for name in ("A3", "D4"):
        quiver = quiver_of(name)
        reps = [
            base_change(tree_module(quiver, d), field)
            for d in indecomposable_dims(quiver)
        ]
        for m, n in itertools.product(reps, repeat=2):
            assert len(ext_cocycle_basis(m, n)) == ext_dim(m, n)


# ---------------------------------------------------------------------------
# decomposition, with a known-answer oracle


@pytest.mark.parametrize(
    "name,p,seed", [("A3", 3, 101), ("A3", 2, 55), ("D4", 2, 77), ("D4", 0, 66)]
)
def test_decompose_recovers_shuffled_direct_sums(name, p, seed):
    field = GF(p) if p else QQ
    quiver = quiver_of(name)
    roots = list(indecomposable_dims(quiver))
    rng = random.Random(seed)
    for _ in range(20):
        chosen = [rng.choice(roots) for _ in range(rng.randint(1, 3))]
        reps = [base_change(tree_module(quiver, d), field) for d in chosen]
        summed = direct_sum(field, reps)
        changes = [
            random_invertible(field, summed.dim[v], rng)
            for v in range(quiver.rank)
        ]
        disguised = conjugate(summed, changes)
        assert decompose_dims(disguised) == tuple(sorted(chosen))


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f"char{f.char}")
@pytest.mark.parametrize("name,flips", [
    ("A3", 0), ("A3", 1), ("A4", 0), ("A4", 1), ("D4", 0), ("D4", 1),
])
def test_decompose_matches_the_fitting_oracle(name, flips, field):
    """Disguised sums of one to four tree modules, decomposed by the Hom
    vector and by the Fitting search it replaced; over QQ the base
    changes have fractional entries.  flips 1 reverses the last edge of
    the default orientation."""
    quiver = list(orientations(name))[flips]
    roots = indecomposable_dims(quiver)

    @settings(database=None, max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(roots), min_size=1, max_size=4), st.integers(0, 2**32))
    def check(chosen, seed):
        rng = random.Random(seed)
        summed = direct_sum(field, [base_change(tree_module(quiver, d), field) for d in chosen])
        changes = [
            fractional_invertible(n, rng) if field == QQ else random_invertible(field, n, rng)
            for n in summed.dim
        ]
        disguised = conjugate(summed, changes)
        expected = tuple(sorted(chosen))
        assert decompose_dims(disguised) == fitting_decompose_dims(disguised) == expected

    check()


def test_decompose_identifies_indecomposables():
    field = GF(2)
    quiver = quiver_of("D4")
    for d in indecomposable_dims(quiver):
        rep = base_change(tree_module(quiver, d), field)
        assert decompose_dims(rep) == (d,)


def test_decompose_over_the_rationals():
    quiver = quiver_of("A3")
    m = base_change(tree_module(quiver, (1, 1, 1)), QQ)
    n = base_change(tree_module(quiver, (0, 1, 0)), QQ)
    summed = direct_sum(QQ, [m, n])
    assert decompose_dims(summed) == ((0, 1, 0), (1, 1, 1))


def test_decompose_over_the_rationals_scales_only_its_inputs(monkeypatch):
    """Over QQ the tree modules hold int 0/1 matrices, in the gluing and
    as the candidates of decompose_dims, and the Hom table holds no
    module, so building both from scratch and decomposing k inputs
    scales only the inputs: each arrow matrix of each input once, in
    decompose_dims, and nothing else."""
    scaled = []
    integer_matrix = linalg._integer_matrix

    def counted(rows):
        scaled.append(rows)
        return integer_matrix(rows)

    monkeypatch.setattr(linalg, "_integer_matrix", counted)
    fresh_tree_module = lru_cache(maxsize=None)(quiver_rep.tree_module.__wrapped__)
    monkeypatch.setattr(quiver_rep, "tree_module", fresh_tree_module)
    monkeypatch.setattr(quiver_rep, "hom_table", lru_cache(maxsize=None)(quiver_rep.HomTable))
    quiver = quiver_of("D5")
    roots = indecomposable_dims(quiver)
    rng = random.Random("decompose-scaling")
    inputs, expected = [], []
    for _ in range(3):
        chosen = [rng.choice(roots) for _ in range(3)]
        summed = direct_sum(QQ, [base_change(tree_module(quiver, d), QQ) for d in chosen])
        changes = [fractional_invertible(summed.dim[v], rng) for v in range(quiver.rank)]
        inputs.append(conjugate(summed, changes))
        expected.append(tuple(sorted(chosen)))
    assert scaled == []
    assert [decompose_dims(rep) for rep in inputs] == expected
    assert scaled == [mat for rep in inputs for mat in rep.maps]
    assert all(
        type(x) is int
        for d in roots for mat in quiver_rep.tree_module(quiver, d).maps
        for row in mat for x in row
    )


def rescaled(rep: FieldRep, arrow: int, factor) -> FieldRep:
    """rep with the matrix of one arrow multiplied by a scalar."""
    maps = list(rep.maps)
    maps[arrow] = tuple(tuple(x * factor for x in row) for row in maps[arrow])
    return FieldRep(rep.field, rep.quiver, rep.dim, tuple(maps))


@pytest.mark.parametrize("name", ["D4", "D5"])
@pytest.mark.parametrize("flips", [0, -1], ids=["default", "reversed"])
def test_one_arrow_rescaled_is_the_same_module(name, flips):
    """On a tree a nonzero scalar on one arrow is absorbed by rescaling
    the vertex spaces on one side of it, so decompose_dims and every
    hom_dim(M_beta, X) are blind to it; this is why decompose_dims may
    scale each arrow by its own denominator."""
    quiver = list(orientations(name))[flips]
    roots = indecomposable_dims(quiver)
    tree = [base_change(tree_module(quiver, d), QQ) for d in roots]
    rng = random.Random(f"rescale:{name}:{flips}")
    for _ in range(3):
        chosen = [rng.choice(roots) for _ in range(3)]
        summed = direct_sum(QQ, [base_change(tree_module(quiver, d), QQ) for d in chosen])
        x = conjugate(summed, [fractional_invertible(n, rng) for n in summed.dim])
        expected = tuple(sorted(chosen))
        homs = [hom_dim(m, x) for m in tree]
        for arrow in range(len(quiver.arrows)):
            factor = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
            y = rescaled(x, arrow, factor)
            assert decompose_dims(y) == expected, (arrow, factor)
            assert [hom_dim(m, y) for m in tree] == homs, (arrow, factor)


def test_hom_dim_on_fractions_matches_the_integer_scaled_copy():
    """hom_dim takes rational reps as they are; scaling each arrow to
    integers, as decompose_dims does, changes no Hom dimension."""
    rng = random.Random("fraction-hom")
    for name in ("A3", "D4"):
        for quiver in orientations(name):
            roots = indecomposable_dims(quiver)
            reps = []
            for _ in range(4):
                chosen = [rng.choice(roots) for _ in range(2)]
                summed = direct_sum(QQ, [base_change(tree_module(quiver, d), QQ) for d in chosen])
                reps.append(conjugate(summed, [fractional_invertible(n, rng) for n in summed.dim]))
            scaled = [
                FieldRep(QQ, quiver, rep.dim, tuple(linalg._integer_matrix(mat)[0] for mat in rep.maps))
                for rep in reps
            ]
            assert any(
                isinstance(x, Fraction) and x.denominator > 1
                for rep in reps for mat in rep.maps for row in mat for x in row
            )
            for m, m_int in zip(reps, scaled):
                for n, n_int in zip(reps, scaled):
                    assert hom_dim(m, n) == hom_dim(m_int, n_int) == hom_dim(m, n_int)
