"""Exact linear algebra: integer rank, field operations, rref, solving."""
import random
from fractions import Fraction

import pytest

from thicklat.linalg import (
    GF,
    QQ,
    int_identity,
    int_mat_mul,
    int_rank,
    left_nullspace,
    mat_mul,
    nullspace,
    rank,
    rref,
    solve,
)

# the rank oracle's inverse, kept with the test oracles since no library
# code inverts a matrix any more
from nc_oracle import int_mat_inverse
# the Kronecker product, kept with the Koszul oracle that uses it
from koszul_oracle import kron


def fraction_rank(rows):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return r


def reference_rref(field, rows):
    """Oracle: Gauss-Jordan elimination through the field's own methods,
    entry by entry (the library's elimination before it moved to integer
    rows)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != field.zero), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.mul(inv, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != field.zero:
                f = m[r][col]
                m[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m, pivots


def random_int_matrix(rng, nrows, ncols, low=-5, high=5):
    return [[rng.randint(low, high) for _ in range(ncols)] for _ in range(nrows)]


def test_int_rank_matches_fraction_elimination():
    rng = random.Random(20240915)
    for _ in range(120):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        mat = random_int_matrix(rng, nrows, ncols)
        assert int_rank(mat) == fraction_rank(mat)


def test_int_rank_low_rank_products():
    rng = random.Random(7)
    for _ in range(40):
        n, k, m = rng.randint(2, 5), rng.randint(1, 2), rng.randint(2, 5)
        a = random_int_matrix(rng, n, k)
        b = random_int_matrix(rng, k, m)
        prod = int_mat_mul(a, b)
        assert int_rank(prod) == fraction_rank(prod) <= k


def test_int_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("int_rank")
    cases = [
        random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        for _ in range(60)
    ]
    for low, high in ((-5, 5), (-10**9, 10**9)):
        for _ in range(20):
            n, k, m = rng.randint(2, 7), rng.randint(1, 3), rng.randint(2, 7)
            a = random_int_matrix(rng, n, k, low, high)
            b = random_int_matrix(rng, k, m, low, high)
            cases.append(int_mat_mul(a, b))
    for mat in cases:
        assert int_rank(mat) == sympy.Matrix(mat).rank()


def test_int_mat_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        mat = int_identity(n)
        mat = [list(row) for row in mat]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-2, 2)
            for col in range(n):
                mat[i][col] += c * mat[j][col]
        inv = int_mat_inverse(mat)
        assert int_mat_mul(mat, inv) == int_identity(n)
        assert int_mat_mul(inv, mat) == int_identity(n)


def test_int_mat_inverse_rejects_singular():
    with pytest.raises(ValueError):
        int_mat_inverse([[1, 2], [2, 4]])


@pytest.mark.parametrize(
    "mat,message",
    [
        ([[1, 2], [2, 4]], "matrix is singular"),
        ([[0, 0], [0, 0]], "matrix is singular"),
        ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], "matrix is singular"),
        ([[2]], "inverse is not integral"),
        ([[2, 1], [1, 2]], "inverse is not integral"),
        ([[1, 2, 0], [0, 1, 0], [0, 0, -3]], "inverse is not integral"),
    ],
)
def test_int_mat_inverse_error_messages(mat, message):
    with pytest.raises(ValueError) as err:
        int_mat_inverse(mat)
    assert str(err.value) == message


def test_int_mat_inverse_of_empty_matrix():
    assert int_mat_inverse(()) == ()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_gf_field_axioms(p):
    field = GF(p)
    elems = list(field.elements())
    assert len(elems) == p
    for a in elems:
        assert field.add(a, field.zero) == a
        assert field.mul(a, field.one) == a
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one
            # Fermat: a^(p-1) = 1
            power = field.one
            for _ in range(p - 1):
                power = field.mul(power, a)
            assert power == field.one
    for a in elems:
        for b in elems:
            assert field.add(a, b) == (a + b) % p
            assert field.mul(a, b) == (a * b) % p
            assert field.sub(a, b) == (a - b) % p


def test_gf_requires_prime():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            GF(bad)
    for bad in (0, 1, 4):
        with pytest.raises(ValueError, match="is not prime"):
            GF(bad)
    for big in (98, 101, 1000000007):
        with pytest.raises(ValueError, match="exceeds the supported bound 97"):
            GF(big)


def test_rational_field_ops():
    assert QQ.char == 0
    a, b = Fraction(3, 4), Fraction(-2, 5)
    assert QQ.add(a, b) == a + b
    assert QQ.mul(a, b) == a * b
    assert QQ.inv(a) == Fraction(4, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ])
def test_rref_and_rank_properties(field):
    rng = random.Random(99)
    for _ in range(60):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        mat = [
            [field.from_int(rng.randint(-4, 4)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        reduced, pivots = rref(field, mat)
        r = rank(field, mat)
        assert len(pivots) == r
        # pivot columns carry unit vectors
        for k, col in enumerate(pivots):
            for i in range(len(reduced)):
                expect = field.one if i == k else field.zero
                assert reduced[i][col] == expect
        # rank of the transpose agrees
        transpose = [list(col) for col in zip(*mat)] if mat[0] else []
        if transpose:
            assert rank(field, transpose) == r
        # nullity complements rank
        null = nullspace(field, mat, ncols=ncols)
        assert len(null) == ncols - r
        for vec in null:
            for row in mat:
                acc = field.zero
                for x, y in zip(row, vec):
                    acc = field.add(acc, field.mul(x, y))
                assert acc == field.zero
        lnull = left_nullspace(field, mat, nrows=nrows)
        assert len(lnull) == nrows - r
        for vec in lnull:
            for j in range(ncols):
                acc = field.zero
                for i in range(nrows):
                    acc = field.add(acc, field.mul(vec[i], mat[i][j]))
                assert acc == field.zero


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_solve_consistent_and_inconsistent(field):
    rng = random.Random(5)
    for _ in range(40):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        a = [
            [field.from_int(rng.randint(-3, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        x = [
            [field.from_int(rng.randint(-3, 3))] for _ in range(ncols)
        ]
        b = mat_mul(field, a, x)
        sol = solve(field, a, b)
        assert sol is not None
        assert mat_mul(field, a, sol) == tuple(tuple(row) for row in b)
    # x + y = 0 and x + y = 1 cannot both hold
    assert solve(field, [[1, 1], [1, 1]], [[field.zero], [field.one]]) is None


def test_kron_rank_is_multiplicative():
    rng = random.Random(17)
    for _ in range(25):
        ar, ac = rng.randint(1, 3), rng.randint(1, 3)
        br, bc = rng.randint(1, 3), rng.randint(1, 3)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(ac)] for _ in range(ar)]
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(bc)] for _ in range(br)]
        product = kron(a, b)
        assert rank(QQ, product) == rank(QQ, a) * rank(QQ, b)


def field_mat_mul(field, a, b):
    """The product by field methods, one entry at a time: the reference
    for mat_mul's integer kernel."""
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = field.zero
            for x, y in zip(row, col):
                acc = field.add(acc, field.mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(97), QQ], ids=repr)
def test_mat_mul_matches_field_methods(field):
    rng = random.Random(f"mat_mul:{field!r}")
    cases = [([], []), ([[]], []), ([[], []], [])]
    for _ in range(60):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
        cases.append((random_matrix(rng, field, n, k, rng.random()),
                      random_matrix(rng, field, k, m, rng.random())))
    for a, b in cases:
        product = mat_mul(field, a, b)
        assert product == field_mat_mul(field, a, b)
        for row in product:
            for x in row:
                if field.char:
                    assert type(x) is int and 0 <= x < field.char
                else:
                    assert type(x) is Fraction


def test_mat_mul_matches_int_mat_mul():
    rng = random.Random(3)
    for _ in range(20):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = random_int_matrix(rng, n, k)
        b = random_int_matrix(rng, k, m)
        over_q = mat_mul(QQ, a, b)
        assert [[int(x) for x in row] for row in over_q] == [
            list(row) for row in int_mat_mul(a, b)
        ]


# ---------------------------------------------------------------------------
# the elimination kernel against the field-method oracle

ORACLE_FIELDS = [GF(2), GF(3), GF(97), QQ]


def random_entry(rng, field, density):
    if rng.random() >= density:
        return rng.choice((0, Fraction(0))) if not field.char else 0
    if field.char:
        return rng.randrange(field.char)
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 7, 12, 35)))


def random_matrix(rng, field, nrows, ncols, density=0.7):
    return [[random_entry(rng, field, density) for _ in range(ncols)] for _ in range(nrows)]


def rank_deficient(rng, field, nrows, ncols, rank):
    """A random nrows x ncols matrix of rank at most `rank`."""
    left = random_matrix(rng, field, nrows, rank, 1.0)
    right = random_matrix(rng, field, rank, ncols, 1.0)
    return [list(row) for row in mat_mul(field, left, right)]


def hom_shaped(rng, field, nrows, ncols):
    """Sparse rows like hom_basis intertwining equations: a few +1 entries
    from one structure map and a few -1 entries from the other."""
    minus_one = field.neg(field.one) if field.char else -1
    rows = []
    for _ in range(nrows):
        row = [field.zero] * ncols
        cols = rng.sample(range(ncols), rng.randint(1, 5))
        for k, c in enumerate(cols):
            row[c] = field.one if k % 2 == 0 else minus_one
        rows.append(row)
    return rows


def assert_matches_oracle(field, mat):
    reduced, pivots = rref(field, mat)
    expected, expected_pivots = reference_rref(field, mat)
    assert pivots == expected_pivots
    assert reduced == expected
    for row in reduced:
        for x in row:
            if field.char:
                assert type(x) is int and 0 <= x < field.char
            else:
                assert type(x) is Fraction


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rref_matches_oracle_on_random_matrices(field):
    rng = random.Random(f"rref:{field!r}")
    for _ in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        mat = random_matrix(rng, field, nrows, ncols, rng.random())
        assert_matches_oracle(field, mat)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rref_matches_oracle_on_degenerate_shapes(field):
    rng = random.Random(f"shapes:{field!r}")
    zero = field.zero
    cases = [
        [[zero] * 5 for _ in range(4)],
        [[0] * 3],
        [[zero]],
        [[]],
        [[], []],
    ]
    for _ in range(20):
        n = rng.randint(1, 12)
        cases.append(random_matrix(rng, field, 1, n))
        cases.append(random_matrix(rng, field, n, 1))
        mat = random_matrix(rng, field, rng.randint(2, 7), rng.randint(2, 7))
        mat[rng.randrange(len(mat))] = [zero] * len(mat[0])
        for row in mat:
            row[rng.randrange(len(row))] = zero
        zero_col = rng.randrange(len(mat[0]))
        for row in mat:
            row[zero_col] = zero
        cases.append(mat)
    for mat in cases:
        assert_matches_oracle(field, mat)
    assert rref(field, []) == ([], [])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rref_matches_oracle_on_rank_deficient_and_sparse_systems(field):
    rng = random.Random(f"deficient:{field!r}")
    for _ in range(40):
        nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
        mat = rank_deficient(rng, field, nrows, ncols, rng.randint(1, min(nrows, ncols)))
        assert_matches_oracle(field, mat)
    for _ in range(6):
        nrows, ncols = rng.randint(20, 40), rng.randint(30, 60)
        mat = hom_shaped(rng, field, nrows, ncols)
        assert_matches_oracle(field, mat)
        assert_matches_oracle(field, [list(col) for col in zip(*mat)])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_sparse_rank_matches_rref_pivots(field):
    """rank reduces each row as it arrives against the pivot rows so far;
    on dense rows and on the same rows as {column: entry} dicts, in either
    order, it counts rref's pivots."""
    rng = random.Random(f"rank:{field!r}")
    cases = [random_matrix(rng, field, rng.randint(1, 9), rng.randint(1, 9), rng.random())
             for _ in range(200)]
    for _ in range(40):
        nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
        cases.append(rank_deficient(rng, field, nrows, ncols, rng.randint(1, min(nrows, ncols))))
    cases += [hom_shaped(rng, field, rng.randint(20, 40), rng.randint(30, 60)) for _ in range(6)]
    for mat in cases:
        expected = len(rref(field, mat)[1])
        sparse = [{c: x for c, x in enumerate(row) if x} for row in mat]
        assert rank(field, mat) == expected
        assert rank(field, sparse) == expected
        assert rank(field, sparse[::-1]) == expected


def test_rref_over_rationals_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(rows):
        return [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]

    rng = random.Random("sympy")
    cases = [random_matrix(rng, QQ, rng.randint(1, 7), rng.randint(1, 7), rng.random())
             for _ in range(60)]
    cases += [rank_deficient(rng, QQ, 6, 8, 3), hom_shaped(rng, QQ, 25, 40)]
    for mat in cases:
        reduced, pivots = rref(QQ, mat)
        expected, expected_pivots = sympy.Matrix(to_sympy(mat)).rref()
        assert tuple(pivots) == expected_pivots
        assert to_sympy(reduced) == expected.tolist()
