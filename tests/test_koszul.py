"""Koszul homology: polynomial arithmetic, the symbolic oracle complex,
module tensoring, and the CLI's theorem against the oracle."""
import json
import random
from fractions import Fraction
from math import comb

import pytest

from thicklat.koszul import Poly, PolyRing, RationalPoint, koszul_homology
from thicklat.linalg import QQ, rank
from thicklat.quiver_rep import default_orientation, tree_module
from thicklat.root_system import DynkinType, build_root_system

from koszul_oracle import (
    EvaluatedComplex,
    FreeComplex,
    cone_of_scalar,
    evaluate,
    homology_dims,
    koszul_complex,
    koszul_tensor_module,
    kron,
    tensor,
    unit_complex,
)
from test_cli import run_cli

RING = PolyRing(("x", "y"))
X = Poly.variable(RING, "x")
Y = Poly.variable(RING, "y")


def random_poly(ring, rng, nterms=3, degree=2):
    terms = []
    for _ in range(nterms):
        exps = tuple(rng.randint(0, degree) for _ in ring.variables)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((exps, coeff))
    return Poly(ring, tuple(terms))


def random_point(rng, nvars, avoid_origin=False):
    while True:
        coords = tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            for _ in range(nvars)
        )
        if not avoid_origin or any(c != 0 for c in coords):
            return RationalPoint(coords)


# ---------------------------------------------------------------------------
# polynomials


def test_poly_ring_laws_on_random_elements():
    rng = random.Random(2024)
    zero = Poly.zero(RING)
    one = Poly.const(RING, 1)
    for _ in range(40):
        f = random_poly(RING, rng)
        g = random_poly(RING, rng)
        h = random_poly(RING, rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero == f
        assert f * one == f
        assert f - f == zero
        assert f * zero == zero


def test_poly_evaluation_is_a_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(30):
        f = random_poly(RING, rng)
        g = random_poly(RING, rng)
        pt = random_point(rng, 2)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (-f).evaluate(pt) == -f.evaluate(pt)


def test_poly_string_rendering():
    assert str(Poly.zero(RING)) == "0"
    assert str(X) == "x"
    f = X * X - Poly.const(RING, Fraction(3, 4)) * Y
    assert str(f) == "x^2 - 3/4*y"
    assert str(Poly.const(RING, -2)) == "-2"


def test_poly_rejects_foreign_ring():
    other = PolyRing(("z",))
    with pytest.raises(ValueError):
        X + Poly.variable(other, "z")
    with pytest.raises(ValueError):
        Poly.variable(RING, "z")


def test_rational_point_validation():
    pt = RationalPoint(("1/2", 3))
    assert pt.coordinates == (Fraction(1, 2), Fraction(3))
    with pytest.raises(ValueError):
        X.evaluate(RationalPoint((1,)))  # wrong arity


# ---------------------------------------------------------------------------
# complexes


def test_unit_and_cone_shapes():
    assert unit_complex(RING).rank_map() == {0: 1}
    cone = cone_of_scalar(RING, X)
    assert cone.rank_map() == {0: 1, 1: 1}
    assert cone.diff_map()[1] == ((X,),)


def test_free_complex_rejects_nonsquaring_differential():
    ranks = ((0, 1), (1, 1), (2, 1))
    one = Poly.const(RING, 1)
    with pytest.raises(ValueError):
        FreeComplex(RING, ranks, ((1, ((one,),)), (2, ((one,),))))


def test_free_complex_rejects_composite_from_off_diagonal_entries():
    # d1 d2 has one nonzero entry, x*y at (1, 1), formed only from the
    # off-diagonal entries d1[1][0] and d2[0][1]
    zero = Poly.zero(RING)
    d1 = ((zero, zero), (X, zero))
    d2 = ((zero, Y), (zero, zero))
    ranks = ((0, 2), (1, 2), (2, 2))
    with pytest.raises(ValueError, match="d o d != 0 between degrees 2 and 0"):
        FreeComplex(RING, ranks, ((1, d1), (2, d2)))
    # the same pattern cancels once a second path contributes -x*y
    d1 = ((zero, zero), (X, X))
    d2 = ((zero, Y), (zero, -Y))
    FreeComplex(RING, ranks, ((1, d1), (2, d2)))


def test_evaluated_complex_rejects_nonsquaring_differential():
    one, two = Fraction(1), Fraction(2)
    ranks = ((0, 1), (1, 2), (2, 1))
    with pytest.raises(ValueError, match="d o d != 0 after evaluation"):
        EvaluatedComplex(ranks, ((1, ((one, two),)), (2, ((one,), (one,)))))
    # 1*2 + 2*(-1) = 0: the sparse check sums both paths before testing
    EvaluatedComplex(ranks, ((1, ((one, two),)), (2, ((two,), (-one,)))))


def test_free_complex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FreeComplex(RING, ((0, 2), (1, 1)), ((1, ((X,),)),))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_koszul_ranks_are_binomial(r):
    ring = PolyRing(tuple(f"x{i}" for i in range(r)))
    gens = [Poly.variable(ring, f"x{i}") for i in range(r)]
    complex_ = koszul_complex(ring, gens)
    assert complex_.rank_map() == {n: comb(r, n) for n in range(r + 1)}


@pytest.mark.parametrize("k", range(6))
def test_koszul_complex_equals_the_tensor_fold(k):
    # the exterior-basis construction against the slow path it replaced
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(500 + k)
    gens = [random_poly(ring, rng) for _ in range(k)]
    folded = unit_complex(ring)
    for f in gens:
        folded = tensor(folded, cone_of_scalar(ring, f))
    direct = koszul_complex(ring, gens)
    assert direct.ranks == folded.ranks
    assert direct.diffs == folded.diffs


def test_koszul_complex_rejects_foreign_generator():
    with pytest.raises(ValueError):
        koszul_complex(RING, (X, Poly.variable(PolyRing(("z",)), "z")))


def test_tensor_is_associative_up_to_homology():
    a = cone_of_scalar(RING, X)
    b = cone_of_scalar(RING, Y)
    c = cone_of_scalar(RING, X + Y)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.rank_map() == right.rank_map()
    rng = random.Random(31)
    points = [RationalPoint((0, 0))] + [random_point(rng, 2) for _ in range(5)]
    for pt in points:
        assert homology_dims(evaluate(left, pt)) == homology_dims(
            evaluate(right, pt)
        )


def test_tensor_commutes_up_to_homology():
    a = cone_of_scalar(RING, X * Y - Poly.const(RING, 1))
    b = cone_of_scalar(RING, X + Y)
    rng = random.Random(12)
    for _ in range(5):
        pt = random_point(rng, 2)
        assert homology_dims(evaluate(tensor(a, b), pt)) == homology_dims(
            evaluate(tensor(b, a), pt)
        )


# ---------------------------------------------------------------------------
# homology


def test_koszul_homology_at_origin():
    complex_ = koszul_complex(RING, (X, Y))
    dims = homology_dims(evaluate(complex_, RationalPoint((0, 0))))
    assert dims == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("k", range(1, 10))
def test_koszul_homology_of_the_variables_at_the_origin(k):
    ring = PolyRing(tuple(f"x{i}" for i in range(1, k + 1)))
    gens = [Poly.variable(ring, v) for v in ring.variables]
    dims = homology_dims(evaluate(koszul_complex(ring, gens), (0,) * k))
    assert dims == {i: comb(k, i) for i in range(k + 1)}


def test_koszul_with_a_unit_generator_is_acyclic():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = (Poly.variable(ring, v) for v in ring.variables)
    unit = Poly.const(ring, Fraction(-3, 2))
    rng = random.Random(8)
    points = [RationalPoint((0, 0, 0))] + [random_point(rng, 3) for _ in range(3)]
    for gens in ((unit, x, y), (x, unit, y * z), (x, y, z, unit)):
        complex_ = koszul_complex(ring, gens)
        for pt in points:
            dims = homology_dims(evaluate(complex_, pt))
            assert all(v == 0 for v in dims.values()), (gens, pt)


def test_koszul_acyclic_off_the_common_zero_locus():
    complex_ = koszul_complex(RING, (X, Y))
    rng = random.Random(77)
    for _ in range(20):
        pt = random_point(rng, 2, avoid_origin=True)
        dims = homology_dims(evaluate(complex_, pt))
        assert all(v == 0 for v in dims.values())
    # a point killing one generator but not the other is still acyclic
    dims = homology_dims(evaluate(complex_, RationalPoint((0, 5))))
    assert all(v == 0 for v in dims.values())


def test_cone_of_unit_is_acyclic_everywhere():
    complex_ = cone_of_scalar(RING, Poly.const(RING, 1))
    rng = random.Random(4)
    for _ in range(5):
        pt = random_point(rng, 2)
        assert all(
            v == 0 for v in homology_dims(evaluate(complex_, pt)).values()
        )
    assert all(
        v == 0
        for v in homology_dims(
            evaluate(complex_, RationalPoint((0, 0)))
        ).values()
    )


def test_repeated_generator_detects_zero_locus():
    complex_ = koszul_complex(RING, (X, X))
    at_zero = homology_dims(evaluate(complex_, RationalPoint((0, 7))))
    assert at_zero == {0: 1, 1: 2, 2: 1}
    away = homology_dims(evaluate(complex_, RationalPoint((1, 0))))
    assert all(v == 0 for v in away.values())


def test_euler_characteristic_vanishes():
    rng = random.Random(18)
    complex_ = koszul_complex(RING, (X * Y, X + Y))
    for _ in range(10):
        pt = random_point(rng, 2)
        dims = homology_dims(evaluate(complex_, pt))
        assert sum((-1) ** n * d for n, d in dims.items()) == 0


def test_single_generator_homology():
    complex_ = koszul_complex(RING, (X,))
    dims = homology_dims(evaluate(complex_, RationalPoint((0, 3))))
    assert dims == {0: 1, 1: 1}


# ---------------------------------------------------------------------------
# tensoring with a module


def test_module_tensor_at_origin_and_off_locus():
    complex_ = koszul_complex(RING, (X, Y))
    quiver = default_orientation(DynkinType.parse("A2"))
    module = tree_module(quiver, (1, 1))
    vectors = koszul_tensor_module(complex_, module, RationalPoint((0, 0)))
    assert vectors == ((0, (1, 1)), (1, (2, 2)), (2, (1, 1)))
    rng = random.Random(6)
    for _ in range(10):
        pt = random_point(rng, 2, avoid_origin=True)
        vectors = koszul_tensor_module(complex_, module, pt)
        assert all(v == (0, 0) for _, v in vectors)


def test_module_tensor_scales_with_dimension_vector():
    complex_ = koszul_complex(RING, (X, Y))
    quiver = default_orientation(DynkinType.parse("D4"))
    module = tree_module(quiver, (1, 2, 1, 1))
    vectors = koszul_tensor_module(complex_, module, RationalPoint((0, 0)))
    expected = {0: 1, 1: 2, 2: 1}
    assert vectors == tuple(
        (n, tuple(expected[n] * d for d in module.dim)) for n in range(3)
    )


def test_module_tensor_vectors_are_exact_multiples():
    complex_ = koszul_complex(RING, (X - Poly.const(RING, 1), Y))
    quiver = default_orientation(DynkinType.parse("A3"))
    module = tree_module(quiver, (0, 1, 1))
    rng = random.Random(14)
    points = [RationalPoint((1, 0))] + [random_point(rng, 2) for _ in range(5)]
    for pt in points:
        for _, vec in koszul_tensor_module(complex_, module, pt):
            ratios = {
                v // d for v, d in zip(vec, module.dim) if d
            }
            assert len(ratios) == 1
            multiple = next(iter(ratios))
            assert vec == tuple(multiple * d for d in module.dim)


def kron_oracle(complex_, module, point):
    """Module homology vectors from rank(d (x) I_dv) at every vertex."""
    evaluated = evaluate(complex_, point)
    ranks, diffs = evaluated.rank_map(), evaluated.diff_map()

    def vertex_rank(n, dv):
        mat = diffs.get(n)
        if not mat or not mat[0]:
            return 0
        ident = tuple(
            tuple(Fraction(int(i == j)) for j in range(dv)) for i in range(dv)
        )
        return rank(QQ, kron(mat, ident))

    return tuple(
        (
            n,
            tuple(
                ranks[n] * dv - vertex_rank(n, dv) - vertex_rank(n + 1, dv)
                for dv in module.dim
            ),
        )
        for n in sorted(ranks)
        if ranks[n]
    )


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_module_tensor_matches_kron_rank_oracle(name):
    dynkin = DynkinType.parse(name)
    quiver = default_orientation(dynkin)
    complex_ = koszul_complex(RING, (X * Y, X + Y, X - Y * Y))
    rng = random.Random(41)
    points = [RationalPoint((0, 0))] + [random_point(rng, 2) for _ in range(2)]
    for dim in build_root_system(dynkin).positive_roots:
        module = tree_module(quiver, dim)
        for pt in points:
            expected = kron_oracle(complex_, module, pt)
            assert koszul_tensor_module(complex_, module, pt) == expected


# ---------------------------------------------------------------------------
# the CLI's theorem against the oracle complex


def test_koszul_homology_rejects_foreign_generator_and_wrong_arity():
    with pytest.raises(ValueError, match="different ring"):
        koszul_homology(RING, (X, Poly.variable(PolyRing(("z",)), "z")), (0, 0))
    with pytest.raises(ValueError, match="point has 1 coordinates"):
        koszul_homology(RING, (X, Y), (0,))
    assert koszul_homology(RING, (X, Y, X * Y), (0, 3)) == [0, 0, 0, 0]
    assert koszul_homology(RING, (X, X * Y), (0, 3)) == [1, 2, 1]


def vanishing_generators(ring, rng, k, point):
    """k generators that all vanish at point: random polynomials moved to
    zero there, with zero and repeated generators mixed in."""
    gens = []
    for _ in range(k):
        kind = rng.randrange(5)
        if kind == 0:
            gens.append(Poly.zero(ring))
        elif kind == 1 and gens:
            gens.append(rng.choice(gens))
        else:
            f = random_poly(ring, rng)
            gens.append(f - Poly.const(ring, f.evaluate(point)))
    return gens


def cli_koszul_payload(ring, gens, point, module_spec):
    # the = forms, as a generator or a coordinate may start with "-"
    code, out, err = run_cli(
        ["koszul", "--vars", ",".join(ring.variables),
         "--gens=" + ",".join(str(f) for f in gens),
         "--at=" + ",".join(str(x) for x in point.coordinates),
         "--module", module_spec]
    )
    assert code == 0 and err == ""
    return json.loads(out)["payload"]


@pytest.mark.parametrize("k", range(1, 10))
def test_cli_homology_matches_the_oracle_complex(k):
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(900 + k)
    point = random_point(rng, 3)
    quiver = default_orientation(DynkinType.parse("A3"))
    module = tree_module(quiver, (0, 1, 1))
    everywhere = vanishing_generators(ring, rng, k, point)
    # one generator moved off zero at the point, the others still vanish
    somewhere = list(everywhere)
    somewhere[rng.randrange(k)] += Poly.const(ring, Fraction(rng.randint(1, 5), 3))
    for gens, vanish in ((everywhere, True), (somewhere, False)):
        complex_ = koszul_complex(ring, gens)
        for pt, vanish_here in ((point, vanish), (random_point(rng, 3), None)):
            payload = cli_koszul_payload(ring, gens, pt, "A3:(0,1,1)")
            dims = homology_dims(evaluate(complex_, pt))
            assert payload["ranks"] == [list(r) for r in complex_.ranks]
            assert payload["homology"] == [[n, dims[n]] for n in sorted(dims)]
            if k <= 5:  # the module oracle evaluates and ranks the complex again
                assert payload["module_homology"] == [
                    [n, list(v)] for n, v in koszul_tensor_module(complex_, module, pt)
                ]
            if vanish_here is not None:
                assert any(dims.values()) == vanish_here
