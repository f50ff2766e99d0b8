"""Exact linear algebra over the rationals and prime fields.

Matrices are tuples (or lists) of rows.  Rational entries are ints or
fractions.Fraction; prime-field entries are ints reduced mod p.  Nothing
here ever touches a float.

Every elimination that returns vectors (nullspace, left_nullspace and
solve) runs through one kernel, rref, on rows of plain ints:

- over GF(p) every update is reduced mod p on the spot, and touches only
  the rows with a nonzero in the pivot column and, in them, only the
  pivot row's nonzero columns;
- over QQ each row is first cleared of denominators and divided by its
  content.  A row with f in the pivot column becomes a*row - b*top, where
  g = gcd(pivot, f), a = pivot/g and b = f/g, and is divided by its
  content again.  A primitive row divides the matching row of Bareiss's
  fraction-free elimination, so entries stay bounded by minors of the
  input.  Fractions are built once, at the end, by dividing each pivot
  row by its pivot.

Both paths compute the unique reduced row echelon form, so nothing is
approximated.  rank, which needs no vectors, runs the same two integer
paths on sparse {column: entry} rows: it reduces each row as it arrives
against one pivot row per leading column and keeps only the pivot rows.
dim Hom is such a rank (quiver_rep.hom_dim).  int_rank is Bareiss
elimination itself.  Every matrix product runs through int_mat_mul on
plain ints: mat_mul reduces it mod p, or over QQ divides it by the
factors' common denominators.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GF:
    """The prime field with p elements, for p <= 97.

    Elements are plain ints in range(p).
    """

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        # the bound comes first: trial division of a huge p would not end
        if p > 97:
            raise ValueError(f"field order {p} exceeds the supported bound 97")
        if not _is_prime(p):
            raise ValueError(f"field order {p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rationals; elements are ints or Fractions."""

    __slots__ = ()
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# ---------------------------------------------------------------------------
# integer matrices: the one product kernel, and Bareiss rank

def int_mat_mul(a, b):
    """Product of two integer matrices given as tuples of row tuples."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def int_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination.

    One-step Bareiss updates keep every intermediate entry an integer;
    the divisions below are exact.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pval = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            row = m[r]
            top = m[rank]
            for c in range(col, ncols):
                row[c] = (row[c] * pval - top[c] * factor) // prev
        prev = pval
        rank += 1
        if rank == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# field-parameterized elimination

def mat_mul(field, a, b):
    """Product over a field, on plain ints: reduced mod p over GF(p).
    Over QQ each factor is scaled by the lcm of its denominators, and
    one Fraction is built per product entry."""
    p = field.char
    if p:
        return tuple(tuple(x % p for x in row) for row in int_mat_mul(a, b))
    (a, da), (b, db) = _integer_matrix(a), _integer_matrix(b)
    den = da * db
    return tuple(tuple(Fraction(x, den) for x in row) for row in int_mat_mul(a, b))


def _integer_matrix(rows):
    """A rational matrix as (integer matrix, d) with rows = matrix / d, d
    the lcm of the denominators."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    The rows come back as reduced ints over GF(p) and as Fractions over
    QQ; the module docstring describes the two integer paths.
    """
    if not rows:
        return [], []
    p = field.char
    if p:
        m = [[x % p for x in r] for r in rows]
    else:
        m = [_integer_row(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        pval = top[col]
        if p and pval != 1:
            inv = pow(pval, p - 2, p)
            top = m[rank] = [x * inv % p for x in top]
        nonzero = [(c, x) for c, x in enumerate(top) if x]
        for r in range(nrows):
            row = m[r]
            f = row[col]
            if not f or r == rank:
                continue
            if p:
                for c, x in nonzero:
                    row[c] = (row[c] - f * x) % p
                continue
            g = gcd(pval, f)
            a, b = pval // g, f // g
            if a != 1:
                row = [a * x for x in row]
            for c, x in nonzero:
                row[c] -= b * x
            g = gcd(*row)
            m[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    if not p:
        zero = Fraction(0)
        m = [[Fraction(x, m[r][col]) if x else zero for x in m[r]]
             for r, col in enumerate(pivots)]
        m += [[zero] * ncols for _ in range(rank, nrows)]
    return m, pivots


def _integer_row(row):
    """A rational row scaled by the lcm of its denominators and divided
    by its content: a primitive integer row spanning the same line."""
    if not any(row):
        return [0] * len(row)
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rank(field, rows) -> int:
    """Rank of a matrix given row by row, each row a sparse {column:
    entry} dict or a dense sequence.

    Each row is reduced as it arrives against the pivot rows kept so far,
    one per leading column, on the integer paths of rref: a row with f
    in a pivot column becomes a*row - b*top, reduced mod p over GF(p)
    (where pivots are 1) and divided by its content over QQ.  A row left
    nonzero becomes the pivot row of its leading column.
    """
    p = field.char
    pivots = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        if p:
            row = {c: x % p for c, x in items if x % p}
        else:
            row = {c: x for c, x in items if x}
            row = dict(zip(row, _integer_row(list(row.values()))))
        while row:
            col = min(row)
            top = pivots.get(col)
            if top is None:
                if p and row[col] != 1:
                    inv = pow(row[col], p - 2, p)
                    row = {c: x * inv % p for c, x in row.items()}
                pivots[col] = row
                break
            g = gcd(top[col], row[col])
            a, b = top[col] // g, row[col] // g
            if a != 1:
                row = {c: a * x for c, x in row.items()}
            for c, x in top.items():
                x = row.get(c, 0) - b * x
                if p:
                    x %= p
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = 1 if p else gcd(*row.values())
            if g > 1:
                row = {c: x // g for c, x in row.items()}
    return len(pivots)


def nullspace(field, rows, ncols=None):
    """Basis of the right kernel, as a list of column vectors (tuples).

    ncols must be given when rows is empty.
    """
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for a matrix with no rows")
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, p in enumerate(pivots):
            vec[p] = field.neg(red[r][free])
        basis.append(tuple(vec))
    return basis


def left_nullspace(field, rows, nrows=None):
    """Basis of the left kernel, as a list of row vectors (tuples)."""
    n = len(rows) if rows else nrows
    if n is None:
        raise ValueError("nrows required for a matrix with no rows")
    if rows and rows[0]:
        transposed = list(zip(*rows))
    else:
        transposed = []
    return nullspace(field, transposed, ncols=n)


def solve(field, a, b):
    """Solve a @ x = b for matrices; returns x or None if inconsistent.

    a has shape (m, n), b has shape (m, k); x has shape (n, k).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    k = len(b[0]) if b else 0
    aug = [list(a[i]) + list(b[i]) for i in range(m)]
    red, pivots = rref(field, aug)
    for r in range(len(pivots)):
        if pivots[r] >= n:
            return None
    for r in range(len(pivots), m):
        if any(x != field.zero for x in red[r][n:]):
            return None
    x = [[field.zero] * k for _ in range(n)]
    for r, p in enumerate(pivots):
        x[p] = list(red[r][n:])
    return tuple(tuple(row) for row in x)

