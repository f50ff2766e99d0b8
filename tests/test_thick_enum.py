"""Wide subcategory enumeration and the noncrossing partition bijection."""
import itertools
import random

import pytest

from thicklat.linalg import GF, QQ
from thicklat.quiver_rep import (
    Quiver,
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
from thicklat.linalg import int_identity, int_mat_mul
from thicklat.root_system import (
    DynkinType,
    NcLattice,
    WeylElement,
    build_root_system,
    perp_closure,
    reflection,
    reflection_length,
)
from thicklat import thick_enum
from thicklat.thick_enum import (
    _perp_rows,
    quiver_lattice,
    thick_masks,
    verify_bijection,
)

from decompose_oracle import morphism_from_coeffs
from test_quiver_rep import orientations
from nc_oracle import (
    NcOracle,
    RepTable,
    dims_of,
    embeds,
    int_mat_inverse,
    lines,
    oracle_simples,
)

THICK_COUNTS = {"A1": 2, "A2": 5, "A3": 14, "D4": 50}


def quiver_of(name: str) -> Quiver:
    return default_orientation(DynkinType.parse(name))


def sorted_dims(quiver, mask) -> tuple:
    return tuple(sorted(dims_of(quiver, mask)))


def walk(quiver) -> list[int]:
    """The subcategories' masks by size, then by sorted dimension
    vectors: the order that verify_bijection reports them in."""
    return sorted(
        thick_masks(quiver),
        key=lambda m: (m.bit_count(), sorted_dims(quiver, m)),
    )


def random_mask(rng, n: int, most: int) -> int:
    return sum(1 << i for i in rng.sample(range(n), rng.randint(0, min(most, n))))


@pytest.mark.parametrize("name,count", sorted(THICK_COUNTS.items()))
def test_enumeration_counts_over_gf2(name, count):
    quiver = quiver_of(name)
    masks = thick_masks(quiver)
    assert len(masks) == count
    assert len({dims_of(quiver, m) for m in masks}) == count


def test_enumeration_runs_once_per_quiver_and_field(monkeypatch, fresh_thick_caches):
    closed = []

    def counted_close(left, right, mask):
        closed.append(mask)
        return perp_closure(left, right, mask)

    monkeypatch.setattr(thick_enum, "perp_closure", counted_close)
    quiver = quiver_of("A3")
    masks = thick_masks(quiver)
    for field in (GF(3), GF(2), QQ):
        assert verify_bijection(quiver, field).ok
    assert thick_masks(quiver) is masks
    # one closure per Hom-orthogonal seed, as many as subcategories
    assert len(closed) == 14


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "D4"])
def test_bijection_report_passes(name):
    report = verify_bijection(quiver_of(name), GF(2))
    assert report.ok
    assert report.thick_count == report.nc_count == THICK_COUNTS[name]
    assert report.is_bijective and report.is_order_isomorphism
    assert report.failures == ()


def test_bijection_over_other_fields_and_orientations():
    assert verify_bijection(quiver_of("A2"), GF(3)).ok
    bent = Quiver(DynkinType.parse("A3"), ((2, 1), (2, 3)))
    report = verify_bijection(bent, GF(2))
    assert report.ok and report.thick_count == 14


def euler_hom_table(quiver) -> list[list[int]]:
    """Oracle: max(<d, e>, 0) for every ordered pair of positive roots."""
    roots = indecomposable_dims(quiver)
    return [[max(euler_form(quiver, d, e), 0) for e in roots] for d in roots]


def assert_rank_table_is_the_euler_form(quiver, field):
    """The Hom table by rank over the field is the one the enumeration
    reads, and both are max(<d, e>, 0)."""
    expected = euler_hom_table(quiver)
    assert [list(row) for row in hom_table(quiver).hom] == expected
    assert RepTable(quiver, field).table == expected, (quiver.arrows, field.char)


def test_field_independence_for_a3():
    for p in (2, 3, 5):
        assert_rank_table_is_the_euler_form(quiver_of("A3"), GF(p))


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f"char{f.char}")
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_rank_built_hom_table_is_the_euler_form(name, field):
    """Every orientation, but only the default one of E6."""
    quivers = [quiver_of(name)] if name == "E6" else orientations(name)
    for quiver in quivers:
        assert_rank_table_is_the_euler_form(quiver, field)


@pytest.mark.parametrize("name", ["A3", "D4", "D5"])
def test_bijection_over_the_rationals(name):
    report = verify_bijection(quiver_of(name), QQ)
    assert report.ok and report.field_char == 0
    assert report.thick_count == report.nc_count == len(thick_masks(quiver_of(name)))


def test_empty_and_full_subcategories_present():
    quiver = quiver_of("A3")
    masks = thick_masks(quiver)
    assert 0 in masks
    assert (1 << len(indecomposable_dims(quiver))) - 1 in masks


@pytest.mark.parametrize(
    "name,seed", [("A2", 11), ("A3", 22), ("D4", 33)]
)
def test_wide_closure_idempotent_on_random_seeds(name, seed):
    quiver = quiver_of(name)
    left, right, _ = _perp_rows(quiver)
    n = len(indecomposable_dims(quiver))
    rng = random.Random(seed)
    for _ in range(200):
        chosen = random_mask(rng, n, 3)
        closed = perp_closure(left, right, chosen)
        assert chosen & ~closed == 0
        assert perp_closure(left, right, closed) == closed


def test_wide_closure_lands_in_enumeration():
    quiver = quiver_of("A3")
    left, right, _ = _perp_rows(quiver)
    enumerated = thick_masks(quiver)
    rng = random.Random(5)
    for _ in range(100):
        assert perp_closure(left, right, random_mask(rng, 6, 3)) in enumerated


def test_wides_are_closed_under_intersection():
    quiver = quiver_of("A3")
    left, right, _ = _perp_rows(quiver)
    masks = thick_masks(quiver)
    for a, b in itertools.combinations(masks, 2):
        common = a & b
        assert perp_closure(left, right, common) == common
        assert common in masks


def test_simples_are_hom_orthogonal_bricks():
    quiver = quiver_of("A3")
    field = GF(2)
    for seed in thick_masks(quiver).values():
        simples = sorted_dims(quiver, seed)
        reps = [base_change(tree_module(quiver, d), field) for d in simples]
        for i, m in enumerate(reps):
            assert hom_dim(m, m) == 1
            for j, n in enumerate(reps):
                if i != j:
                    assert hom_dim(m, n) == 0


def weyl_image(quiver, mask):
    """The product of the simples' reflections in the admissible order
    that verify_bijection multiplies them in: computed from the simples
    alone, with no look at the subcategory's other dimension vectors."""
    rs = build_root_system(quiver.dynkin)
    simples = thick_masks(quiver)[mask]
    mat = int_identity(rs.rank)
    for k in thick_enum._admissible_word(quiver, simples):
        mat = int_mat_mul(mat, reflection(rs, rs.positive_roots[k]).mat)
    return mat


def absolute_leq(u, v):
    """u <= v in the absolute order: l(u) + l(u^-1 v) = l(v)."""
    rest = int_mat_mul(int_mat_inverse(u), v)
    return (
        reflection_length(WeylElement(u)) + reflection_length(WeylElement(rest))
        == reflection_length(WeylElement(v))
    )


def test_wide_to_nc_lengths_and_order():
    for name, p in (("A3", 2), ("D4", 3)):
        quiver = quiver_of(name)
        field = GF(p)
        rs = build_root_system(quiver.dynkin)
        lattice = NcLattice(rs, quiver)
        oracle = NcOracle(rs, quiver)
        seeds = thick_masks(quiver)
        masks = walk(quiver)
        images = [quiver_lattice(quiver).index[m] for m in masks]
        assert verify_bijection(quiver, field).ok
        # bijective onto the lattice
        assert len(set(images)) == len(lattice) == len(masks)
        assert set(images) == set(range(len(lattice)))
        products = [weyl_image(quiver, m) for m in masks]
        for mask, image, w in zip(masks, images, products):
            # the matrix walk's element at the product of the simples'
            # reflections is the mask lattice's element at the image
            o = oracle.position[w]
            assert lattice.elements[image] == oracle.moved[o]
            assert lattice.lengths[image] == oracle.lengths[o]
            assert oracle.lengths[o] == seeds[mask].bit_count()
            # Ingalls-Thomas: the dimension vectors are the moved roots
            assert dims_of(quiver, oracle.moved[o]) == dims_of(quiver, mask)
        # inclusions map to the absolute order of the products in both
        # directions, and the lattice's order agrees with both
        for (s1, u1, m1), (s2, u2, m2) in itertools.product(
            zip(masks, images, products), repeat=2
        ):
            inclusion = dims_of(quiver, s1) <= dims_of(quiver, s2)
            assert inclusion == absolute_leq(m1, m2) == lattice.leq(u1, u2)


def test_subcategory_order_matches_simple_counts():
    sizes = sorted(m.bit_count() for m in thick_masks(quiver_of("A2")))
    assert sizes == [0, 1, 1, 1, 3]


def test_extension_closure_is_enforced():
    """The two simples of A2 generate everything: their extension exists."""
    quiver = quiver_of("A2")
    ctx = RepTable(quiver, GF(2))
    left, right, _ = _perp_rows(quiver)
    closed = perp_closure(left, right, ctx.mask_of_dims({(1, 0), (0, 1)}))
    assert dims_of(quiver, closed) == frozenset({(1, 0), (0, 1), (1, 1)})
    # kernels and cokernels too: the projective and the sink simple
    closed2 = perp_closure(left, right, ctx.mask_of_dims({(1, 1), (1, 0)}))
    assert dims_of(quiver, closed2) == frozenset({(1, 0), (0, 1), (1, 1)})


def test_singleton_closures_are_single_bricks():
    quiver = quiver_of("D4")
    left, right, _ = _perp_rows(quiver)
    for k in range(len(indecomposable_dims(quiver))):
        assert perp_closure(left, right, 1 << k) == 1 << k


# ---------------------------------------------------------------------------
# the closure against a pairwise fixed point, and its steps against a brute
# force over every coefficient vector


_PAIR_MASKS: dict = {}


def pair_mask(ctx, i, j):
    """Indecomposables generated by all morphisms and extensions between
    root i and root j.  m and n are the kernel and cokernel of the zero
    morphism and the summands of the split extension; for a unit lam,
    lam*phi has the kernel and cokernel of phi, and lam*psi a middle term
    isomorphic to that of psi, so one vector per line covers the rest."""
    key = (ctx.quiver, ctx.field, i, j)
    if key not in _PAIR_MASKS:
        field = ctx.field
        m, n = ctx.reps[i], ctx.reps[j]
        dims = {m.dim, n.dim}
        basis = hom_basis(m, n)
        for coeffs in lines(field, len(basis)):
            phi = morphism_from_coeffs(field, basis, coeffs)
            dims.update(decompose_dims(kernel_rep(phi, m)))
            dims.update(decompose_dims(cokernel_rep(phi, n)))
        ext_basis = ext_cocycle_basis(m, n)
        for coeffs in lines(field, len(ext_basis)):
            psi = morphism_from_coeffs(field, ext_basis, coeffs)
            dims.update(decompose_dims(extension_middle(m, n, psi)))
        _PAIR_MASKS[key] = ctx.mask_of_dims(dims)
    return _PAIR_MASKS[key]


def fixed_point_closure(ctx, mask):
    """Oracle: close a mask under the kernels, cokernels and extension
    middles between pairs of members, decomposed, until nothing changes."""
    while True:
        members = [i for i in range(len(ctx.roots)) if (mask >> i) & 1]
        new = mask
        for i in members:
            for j in members:
                new |= pair_mask(ctx, i, j)
        if new == mask:
            return mask
        mask = new



def _combination(field, basis, coeffs, zero):
    """sum_k coeffs[k] * basis[k], entry by entry, starting from the
    explicit zero element `zero` (a tuple of matrices)."""
    out = [[list(row) for row in mat] for mat in zero]
    for c, elem in zip(coeffs, basis):
        for mat, emat in zip(out, elem):
            for row, erow in zip(mat, emat):
                for j, x in enumerate(erow):
                    row[j] = field.add(row[j], field.mul(c, x))
    return tuple(tuple(tuple(row) for row in mat) for mat in out)


def _zero_morphism(field, m, n):
    return tuple(
        ((field.zero,) * m.dim[v],) * n.dim[v] for v in range(m.quiver.rank)
    )


def _zero_cocycle(field, m, n):
    return tuple(
        ((field.zero,) * m.dim[s - 1],) * n.dim[t - 1] for s, t in m.quiver.arrows
    )


def _brute_pair_dims(field, m, n):
    """Summands of every kernel, cokernel and extension middle, over all
    of F^h and F^e, zero included."""
    dims = set()
    basis = hom_basis(m, n)
    for coeffs in itertools.product(field.elements(), repeat=len(basis)):
        phi = _combination(field, basis, coeffs, _zero_morphism(field, m, n))
        dims.update(decompose_dims(kernel_rep(phi, m)))
        dims.update(decompose_dims(cokernel_rep(phi, n)))
    ext_basis = ext_cocycle_basis(m, n)
    for coeffs in itertools.product(field.elements(), repeat=len(ext_basis)):
        psi = _combination(field, ext_basis, coeffs, _zero_cocycle(field, m, n))
        dims.update(decompose_dims(extension_middle(m, n, psi)))
    return dims


def _brute_embeds(field, m, n):
    basis = hom_basis(m, n)
    return any(
        sum(
            kernel_rep(
                _combination(field, basis, coeffs, _zero_morphism(field, m, n)), m
            ).dim
        )
        == 0
        for coeffs in itertools.product(field.elements(), repeat=len(basis))
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lines_give_one_vector_per_line(p):
    field = GF(p)
    for n in range(4):
        reps = list(lines(field, n))
        assert len(reps) == (p**n - 1) // (p - 1)
        for vec in reps:
            assert next(x for x in vec if x != 0) == 1
        nonzero = {
            vec for vec in itertools.product(range(p), repeat=n) if any(vec)
        }
        multiples = {
            tuple(field.mul(lam, x) for x in vec)
            for vec in reps
            for lam in range(1, p)
        }
        assert multiples == nonzero and len(multiples) == len(reps) * (p - 1)


@pytest.mark.parametrize("name,p", [("A3", 3), ("D4", 2), ("D4", 3)])
def test_pair_mask_and_embeds_match_brute_force(name, p):
    field = GF(p)
    ctx = RepTable(quiver_of(name), field)
    for i, m in enumerate(ctx.reps):
        for j, n in enumerate(ctx.reps):
            assert pair_mask(ctx, i, j) == ctx.mask_of_dims(
                _brute_pair_dims(field, m, n)
            ), (m.dim, n.dim)
            assert embeds(ctx, i, j) == _brute_embeds(field, m, n), (m.dim, n.dim)


@pytest.mark.parametrize("p", [2, 3])
def test_euler_form_precedence_matches_ext_cocycles(p):
    """dim Ext1 = hom - <a, b>, which the perpendicular table and the
    order of the simples both use, is the number of cocycles on every
    pair; so hom(b, a) or <b, a> is nonzero exactly when Hom or Ext1
    from b to a is."""
    for name in ("D4", "D5"):
        ctx = RepTable(quiver_of(name), GF(p))
        for a, b in itertools.product(range(len(ctx.roots)), repeat=2):
            assert ctx.ext(a, b) == len(
                ext_cocycle_basis(ctx.reps[a], ctx.reps[b])
            ), (name, ctx.roots[a], ctx.roots[b])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("oriented", [False, True])
@pytest.mark.parametrize("name", ["A4", "D4", "D5"])
def test_euler_form_perpendiculars_match_the_hom_table(name, oriented, p):
    """The Euler-form rows left[b] = {g : <g, b> = 0} and right[b] = {g :
    <b, g> = 0} that the closure and the lattice read are the rows of
    vanishing Hom and Ext1 by rank over the field, and the seeds' rows
    orth[a] those of vanishing Hom both ways."""
    dynkin = DynkinType.parse(name)
    quiver = Quiver(dynkin, OTHER_ORIENTATIONS[name]) if oriented else quiver_of(name)
    ctx = RepTable(quiver, GF(p))
    n = len(ctx.roots)

    def row(zero):
        return tuple(sum(1 << g for g in range(n) if zero(g, b)) for b in range(n))

    left = row(lambda g, b: ctx.hom(g, b) == 0 == ctx.ext(g, b))
    right = row(lambda g, b: ctx.hom(b, g) == 0 == ctx.ext(b, g))
    orth = row(lambda g, b: ctx.hom(g, b) == 0 == ctx.hom(b, g))
    lattice = quiver_lattice(quiver)
    assert (left, right) == (lattice.left, lattice.right)
    assert _perp_rows(quiver) == (left, right, list(orth))


@pytest.mark.parametrize("name", ["A4", "D4", "D5", "E6"])
def test_hom_and_ext_are_never_both_nonzero(name):
    ctx = RepTable(quiver_of(name), GF(2))
    for a, b in itertools.product(range(len(ctx.roots)), repeat=2):
        assert ctx.hom(a, b) * ctx.ext(a, b) == 0, (ctx.roots[a], ctx.roots[b])


# ---------------------------------------------------------------------------
# the closure, the seeding, the image and the order check against the slow
# paths


OTHER_ORIENTATIONS = {
    "A3": ((2, 1), (2, 3)),
    "A4": ((2, 1), (2, 3), (4, 3)),
    "D4": ((2, 1), (3, 2), (2, 4)),
    "D5": ((2, 1), (2, 3), (4, 3), (3, 5)),
}


def assert_closure_matches_fixed_point(quiver, field):
    """The perpendicular closure equals the pairwise fixed point on every
    Hom-orthogonal seed and on 200 seeded random subsets of size 0-4."""
    ctx = RepTable(quiver, field)
    left, right, orth = _perp_rows(quiver)
    n = len(ctx.roots)
    rng = random.Random(8)
    masks = thick_enum._orthogonal_seed_masks(orth) + [
        sum(1 << i for i in rng.sample(range(n), rng.randint(0, 4)))
        for _ in range(200)
    ]
    for mask in masks:
        assert perp_closure(left, right, mask) == fixed_point_closure(
            ctx, mask
        ), sorted_dims(quiver, mask)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("oriented", [False, True])
@pytest.mark.parametrize("name", ["A4", "D4", "D5"])
def test_closure_matches_pairwise_fixed_point(name, oriented, p):
    dynkin = DynkinType.parse(name)
    quiver = Quiver(dynkin, OTHER_ORIENTATIONS[name]) if oriented else quiver_of(name)
    assert_closure_matches_fixed_point(quiver, GF(p))


def _all_subset_closures(left, right):
    """Oracle: the closure of every subset of the indecomposables."""
    return {perp_closure(left, right, seed) for seed in range(1 << len(left))}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("oriented", [False, True])
@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_orthogonal_seeds_match_all_subsets(name, oriented, p):
    dynkin = DynkinType.parse(name)
    quiver = Quiver(dynkin, OTHER_ORIENTATIONS[name]) if oriented else quiver_of(name)
    left, right, orth = _perp_rows(quiver)
    masks = thick_masks(quiver)
    assert set(masks) == _all_subset_closures(left, right)
    # Hom-orthogonal sets of bricks are the simples of exactly one
    # subcategory each (Ringel), so no seed is wasted
    assert len(thick_enum._orthogonal_seed_masks(orth)) == len(masks)


def _precedence_orders(k, before):
    """All orderings of range(k) in which j comes before m whenever
    before[j][m], by backtracking over available minima."""
    orders = []

    def extend(remaining, acc):
        if not remaining:
            orders.append(acc)
            return
        for m in remaining:
            if all(not before[j][m] for j in remaining if j != m):
                extend([x for x in remaining if x != m], acc + (m,))

    extend(list(range(k)), ())
    return orders


def all_order_products(ctx, simples_mask):
    """Oracle: the product of the simples' reflections in every order
    with no backward morphisms or extensions."""
    rs = build_root_system(ctx.quiver.dynkin)
    simples = sorted_dims(ctx.quiver, simples_mask)
    idx = [ctx.index[d] for d in simples]
    before = [
        [
            a != b
            and (
                ctx.hom(idx[b], idx[a]) != 0
                or euler_form(ctx.quiver, simples[b], simples[a]) != 0
            )
            for b in range(len(simples))
        ]
        for a in range(len(simples))
    ]
    products = set()
    for order in _precedence_orders(len(simples), before):
        mat = int_identity(rs.rank)
        for a in order:
            mat = int_mat_mul(mat, reflection(rs, simples[a]).mat)
        products.add(mat)
    return products


def assert_all_orders_agree(quiver, field):
    """Every admissible order gives the element of NC(W, c) whose moved
    roots are the dimension vectors, as the matrix walk finds it."""
    ctx = RepTable(quiver, field)
    mats = NcOracle(quiver_lattice(quiver).rs, quiver).mat_of
    for mask, simples in thick_masks(quiver).items():
        image = mats[mask]
        assert all_order_products(ctx, simples) == {image}, sorted_dims(quiver, mask)


@pytest.mark.parametrize("name", ["A3", "A4", "D4", "D5"])
def test_every_admissible_order_gives_the_image(name):
    assert_all_orders_agree(quiver_of(name), GF(2))


@pytest.mark.parametrize("name", ["A3", "A4", "D4", "D5"])
def test_order_isomorphism_matches_pairwise_oracle(name):
    quiver, field = quiver_of(name), GF(2)
    masks = walk(quiver)
    lattice = quiver_lattice(quiver)
    positions = [lattice.index[m] for m in masks]
    assert verify_bijection(quiver, field).is_order_isomorphism
    # each subcategory's element found by the product of its simples'
    # reflections, ordered as the matrix walk's moved roots are
    oracle = NcOracle(lattice.rs, quiver)
    found = [oracle.position[weyl_image(quiver, m)] for m in masks]
    for (s1, p1, o1), (s2, p2, o2) in itertools.product(
        zip(masks, positions, found), repeat=2
    ):
        inclusion = dims_of(quiver, s1) <= dims_of(quiver, s2)
        assert inclusion == bool(oracle.up[o1] >> o2 & 1) == lattice.leq(p1, p2)


def test_bijection_report_flags_images_with_other_moved_roots(fresh_thick_caches):
    quiver, field = quiver_of("A3"), GF(2)
    seeds = thick_masks(quiver)
    # the empty and the full subcategory trade simples, so their products
    # of reflections trade places: still a bijection
    empty, full = walk(quiver)[0], walk(quiver)[-1]
    seeds[empty], seeds[full] = seeds[full], seeds[empty]
    report = verify_bijection(quiver, field)
    assert report.is_bijective and not report.is_order_isomorphism
    assert not report.ok
    assert report.failures == tuple(
        f"moved roots differ from the dimension vectors at {sorted_dims(quiver, m)}"
        for m in (empty, full)
    )


def test_bijection_report_flags_products_outside_the_lattice(fresh_thick_caches):
    quiver, field = quiver_of("A2"), GF(2)
    atom = next(m for m in thick_masks(quiver) if m.bit_count() == 1)
    del quiver_lattice(quiver).index[atom]
    report = verify_bijection(quiver, field)
    assert not report.ok
    assert not report.is_bijective and not report.is_order_isomorphism
    assert report.failures == ("an image is not below the Coxeter element",)


def test_bijection_report_flags_products_that_coincide(fresh_thick_caches):
    quiver, field = quiver_of("A3"), GF(2)
    seeds = thick_masks(quiver)
    # the empty subcategory takes the simples of the full one
    empty, full = walk(quiver)[0], walk(quiver)[-1]
    seeds[empty] = seeds[full]
    report = verify_bijection(quiver, field)
    assert not report.is_bijective and not report.is_order_isomorphism
    assert report.failures == (
        "map is not injective",
        f"moved roots differ from the dimension vectors at {sorted_dims(quiver, empty)}",
    )


def test_bijection_report_flags_products_not_below_c(monkeypatch):
    quiver, field = quiver_of("A3"), GF(2)
    # check the products against the Coxeter element of the opposite
    # orientation, which not all of them lie below
    opposite = Quiver(quiver.dynkin, tuple((t, s) for s, t in quiver.arrows))
    coxeter = thick_enum.coxeter_element
    monkeypatch.setattr(
        thick_enum, "coxeter_element", lambda rs, _: coxeter(rs, opposite)
    )
    report = verify_bijection(quiver, field)
    assert not report.is_bijective and not report.is_order_isomorphism
    assert report.failures == ("an image is not below the Coxeter element",)


def assert_pair_closures_are_joins(quiver, field):
    """Ingalls-Thomas: the wide subcategory generated by two bricks has
    the moved roots of the join of their reflections as its dimension
    vectors."""
    left, right, _ = _perp_rows(quiver)
    lattice = quiver_lattice(quiver)
    n = len(lattice.rs.positive_roots)
    # the reflection in root k moves only that root
    atoms = [lattice.index[1 << k] for k in range(n)]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        closed = perp_closure(left, right, 1 << a | 1 << b)
        join = lattice.elements[lattice.join(atoms[a], atoms[b])]
        assert closed == join, sorted_dims(quiver, 1 << a | 1 << b)


@pytest.mark.parametrize(
    "name,p", [(n, p) for n in ("D4", "D5") for p in (2, 3, 5)] + [("E6", 2)]
)
def test_pair_closures_are_joins_of_reflections(name, p):
    assert_pair_closures_are_joins(quiver_of(name), GF(p))


@pytest.mark.parametrize("name,p", [(n, p) for n in ("D4", "D5") for p in (2, 3)])
def test_seeded_simples_match_embedding_scan(name, p):
    quiver = quiver_of(name)
    ctx = RepTable(quiver, GF(p))
    for mask, simples in thick_masks(quiver).items():
        assert simples == oracle_simples(ctx, mask), sorted_dims(quiver, mask)


def test_two_seeds_closing_to_one_subcategory_raise(monkeypatch, fresh_thick_caches):
    monkeypatch.setattr(thick_enum, "perp_closure", lambda left, right, mask: 0)
    with pytest.raises(RuntimeError, match="close to one subcategory"):
        thick_masks(quiver_of("A2"))
