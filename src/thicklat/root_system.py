"""Simply laced root systems and noncrossing partition lattices.

Roots are integer vectors in the basis of simple roots.  Weyl group
elements are integer matrices acting on those coordinates.  The
noncrossing partition lattice for a Coxeter element c is the interval
[e, c] in the absolute order: u <= w iff reflection lengths add up
along u, u^-1 w, w.

Inside [e, c] an element w is keyed by R(w), the positive roots in its
moved space Mov(w) = im(w - I), as a bitmask.  R(w) spans Mov(w), so by
Brady-Watt u <= w iff R(u) is a subset of R(w); by Carter's lemma the
lower covers of w are the w*t with the root of t in R(w).  Enumeration,
order and covers thus need no rank computation per candidate or pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .linalg import QQ, int_identity, int_mat_inverse, int_mat_mul, int_rank, nullspace

LETTERS = ("A", "D", "E")


@dataclass(frozen=True)
class DynkinType:
    """A simply laced Dynkin type: A_n (n>=1), D_n (n>=4), E_6, E_7, E_8.

    >>> DynkinType.parse("D4").diagram_edges()
    ((1, 2), (2, 3), (2, 4))
    """

    letter: str
    rank: int

    def __post_init__(self):
        if self.letter not in LETTERS:
            raise ValueError(f"unknown Dynkin letter {self.letter!r}")
        if self.letter == "A" and self.rank < 1:
            raise ValueError("type A requires rank >= 1")
        if self.letter == "D" and self.rank < 4:
            raise ValueError("type D requires rank >= 4")
        if self.letter == "E" and self.rank not in (6, 7, 8):
            raise ValueError("type E requires rank 6, 7 or 8")

    @staticmethod
    def parse(text: str) -> "DynkinType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        return DynkinType(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"

    def vertices(self) -> range:
        return range(1, self.rank + 1)

    def diagram_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the Dynkin diagram as sorted vertex pairs."""
        n = self.rank
        if self.letter == "A":
            edges = [(i, i + 1) for i in range(1, n)]
        elif self.letter == "D":
            edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
        else:
            chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
            edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
            edges.append((2, 4))
        return tuple(sorted(tuple(sorted(e)) for e in edges))

    def degrees(self) -> tuple[int, ...]:
        """Degrees of the fundamental invariants."""
        n = self.rank
        if self.letter == "A":
            return tuple(range(2, n + 2))
        if self.letter == "D":
            return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
        return {
            6: (2, 5, 6, 8, 9, 12),
            7: (2, 6, 8, 10, 12, 14, 18),
            8: (2, 8, 12, 14, 18, 20, 24, 30),
        }[n]

    def coxeter_number(self) -> int:
        return max(self.degrees())


def catalan_number(dynkin: DynkinType) -> int:
    """The Coxeter-Catalan number prod_i (h + d_i) / d_i."""
    h = dynkin.coxeter_number()
    value = Fraction(1)
    for d in dynkin.degrees():
        value *= Fraction(h + d, d)
    if value.denominator != 1:
        raise RuntimeError("Catalan product did not come out integral")
    return int(value)


class WeylElement:
    """A Weyl group element as an integer matrix in the root basis.

    Hashable; reflection length and the inverse matrix are computed
    once and cached.
    """

    __slots__ = ("mat", "_inv", "_length")

    def __init__(self, mat, inv=None):
        self.mat = tuple(tuple(int(x) for x in row) for row in mat)
        self._inv = inv
        self._length = None

    @property
    def rank(self) -> int:
        return len(self.mat)

    def inverse_mat(self):
        if self._inv is None:
            self._inv = int_mat_inverse(self.mat)
        return self._inv

    def inverse(self) -> "WeylElement":
        return WeylElement(self.inverse_mat(), inv=self.mat)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(int_mat_mul(self.mat, other.mat))

    def apply(self, vector):
        return tuple(sum(x * y for x, y in zip(row, vector)) for row in self.mat)

    def is_identity(self) -> bool:
        return self.mat == int_identity(len(self.mat))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and other.mat == self.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"WeylElement({self.mat!r})"


def _minus_identity(mat):
    n = len(mat)
    return [[mat[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]


def reflection_length(w: WeylElement) -> int:
    """Minimal number of reflections whose product is w.

    Equals the codimension of the fixed space, computed exactly by
    fraction-free elimination on mat - I.
    """
    if w._length is None:
        w._length = int_rank(_minus_identity(w.mat))
    return w._length


@dataclass(frozen=True)
class RootSystem:
    """A root system of the given type, in simple-root coordinates."""

    dynkin: DynkinType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    def simple_roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(1 if i == j else 0 for j in range(self.rank))
            for i in range(self.rank)
        )

    def root_index(self, root) -> int:
        try:
            return self.positive_roots.index(tuple(root))
        except ValueError:
            raise ValueError(f"{root!r} is not a positive root") from None

    def is_root_permutation(self, w: WeylElement) -> bool:
        """Whether w permutes the set of roots (positive and negative)."""
        roots = set(self.positive_roots)
        roots.update(tuple(-x for x in r) for r in self.positive_roots)
        return all(w.apply(r) in roots for r in roots)


def build_root_system(dynkin: DynkinType) -> RootSystem:
    """Construct the root system by closing the simple roots under
    simple reflections.

    >>> len(build_root_system(DynkinType.parse("A2")).positive_roots)
    3
    """
    n = dynkin.rank
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in dynkin.diagram_edges():
        cartan[a - 1][b - 1] = -1
        cartan[b - 1][a - 1] = -1
    roots = {tuple(1 if i == j else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        fresh = []
        for v in frontier:
            for j in range(n):
                pairing = sum(cartan[j][k] * v[k] for k in range(n))
                w = tuple(v[k] - (pairing if k == j else 0) for k in range(n))
                if w not in roots and all(x >= 0 for x in w):
                    roots.add(w)
                    fresh.append(w)
        frontier = fresh
    ordered = tuple(sorted(roots, key=lambda r: (sum(r), r)))
    return RootSystem(
        dynkin, tuple(tuple(row) for row in cartan), ordered
    )


def reflection(rs: RootSystem, root) -> WeylElement:
    """The reflection in a positive root, as a matrix on root coordinates."""
    root = tuple(root)
    if root not in rs.positive_roots:
        raise ValueError(f"{root!r} is not a positive root of {rs.dynkin}")
    n = rs.rank
    pairing = [sum(rs.cartan[i][k] * root[k] for k in range(n)) for i in range(n)]
    mat = [
        [(1 if i == j else 0) - root[i] * pairing[j] for j in range(n)]
        for i in range(n)
    ]
    return WeylElement(mat)


def simple_reflection(rs: RootSystem, vertex: int) -> WeylElement:
    return reflection(rs, tuple(1 if i == vertex - 1 else 0 for i in range(rs.rank)))


@lru_cache(maxsize=None)
def reflection_mats(rs: RootSystem) -> tuple:
    """The matrices of the reflections in rs.positive_roots, in order."""
    return tuple(reflection(rs, r).mat for r in rs.positive_roots)


def coxeter_element(rs: RootSystem, arrows) -> WeylElement:
    """Coxeter element for an orientation of the Dynkin diagram.

    arrows is an iterable of (source, target) vertex pairs covering the
    diagram.  Simple reflections are multiplied sink first: vertices are
    peeled off in sink order, ties broken by smallest label, and the
    reflection of the first peeled vertex is the leftmost factor.  For
    A2 oriented 1 -> 2 this yields s2 * s1.
    """
    arrows = tuple(tuple(a) for a in getattr(arrows, "arrows", arrows))
    edges = tuple(sorted(tuple(sorted(a)) for a in arrows))
    if edges != rs.dynkin.diagram_edges():
        raise ValueError(
            f"orientation {arrows!r} is not an orientation of the {rs.dynkin} diagram"
        )
    remaining = set(rs.dynkin.vertices())
    order = []
    while remaining:
        sinks = [
            v
            for v in sorted(remaining)
            if not any(s == v and t in remaining for s, t in arrows)
        ]
        if not sinks:
            raise ValueError("orientation has a cycle")
        order.append(sinks[0])
        remaining.discard(sinks[0])
    mat = int_identity(rs.rank)
    for v in reversed(order):
        mat = int_mat_mul(simple_reflection(rs, v).mat, mat)
    c = WeylElement(mat)
    if reflection_length(c) != rs.rank:
        raise RuntimeError("Coxeter element does not have full reflection length")
    return c


def moved_roots(rs: RootSystem, w: WeylElement) -> int:
    """R(w): the positive roots in Mov(w) = im(w - I), as a bitmask over
    rs.positive_roots.

    w preserves the Cartan form, so Mov(w) is the orthogonal complement
    of Fix(w) = ker(w - I): a root lies in Mov(w) iff it pairs to zero
    with every vector of a basis of Fix(w).
    """
    mask = (1 << len(rs.positive_roots)) - 1
    for fixed in nullspace(QQ, _minus_identity(w.mat)):
        scale = lcm(*(x.denominator for x in fixed))
        fixed = [int(x * scale) for x in fixed]
        pairing = [sum(a * x for a, x in zip(row, fixed)) for row in rs.cartan]
        for k, root in enumerate(rs.positive_roots):
            if sum(x * y for x, y in zip(root, pairing)):
                mask &= ~(1 << k)
    return mask


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class NcElement:
    """An element of the noncrossing partition lattice NC(W, c).

    Wraps a Weyl element w known to lie in the absolute-order interval
    [e, c] of the Weyl group of rs; the defining length identity is
    revalidated on construction.  Its moved roots R(w) are computed on
    first use.
    """

    __slots__ = ("rs", "w", "c", "_moved")

    def __init__(
        self, rs: RootSystem, w: WeylElement, c: WeylElement, _checked: bool = False
    ):
        self.rs = rs
        self.w = w
        self.c = c
        self._moved = None
        if not _checked:
            rest = WeylElement(int_mat_mul(w.inverse_mat(), c.mat))
            if reflection_length(w) + reflection_length(rest) != reflection_length(c):
                raise ValueError("element is not below the Coxeter element")

    @property
    def length(self) -> int:
        return reflection_length(self.w)

    @property
    def moved(self) -> int:
        """R(w) as a bitmask over rs.positive_roots; see moved_roots."""
        if self._moved is None:
            self._moved = moved_roots(self.rs, self.w)
        return self._moved

    def __eq__(self, other):
        return (
            isinstance(other, NcElement)
            and other.w.mat == self.w.mat
            and other.c.mat == self.c.mat
        )

    def __hash__(self):
        return hash((self.w.mat, self.c.mat))

    def __repr__(self):
        return f"NcElement({self.w.mat!r})"


def enumerate_nc(rs: RootSystem, c: WeylElement) -> tuple[NcElement, ...]:
    """All elements of [e, c], walked top-down from c through the lower
    covers w*t, t with root in R(w) (Carter's lemma).

    Returned in canonical order: lexicographic on flattened matrices.
    """
    if reflection_length(c) != rs.rank:
        raise ValueError("c does not have full reflection length")
    refls = reflection_mats(rs)
    top = NcElement(rs, c, c, _checked=True)
    found = {c.mat: top}
    level = [top]
    while level:
        below = []
        for w in level:
            for k in _bits(w.moved):
                mat = int_mat_mul(w.w.mat, refls[k])
                if mat not in found:
                    found[mat] = NcElement(rs, WeylElement(mat), c, _checked=True)
                    below.append(found[mat])
        level = below
    return tuple(sorted(found.values(), key=lambda e: e.w.mat))


def nc_leq(u: NcElement, w: NcElement) -> bool:
    """Absolute-order comparison inside [e, c]: whether R(u) is a subset
    of R(w), since R spans the moved space and u <= w iff Mov(u) lies in
    Mov(w) (Brady-Watt)."""
    if u.c.mat != w.c.mat:
        raise ValueError("elements live under different Coxeter elements")
    return u.moved & ~w.moved == 0


def _type_a_permutation(u: NcElement) -> dict[int, int]:
    """The permutation of {1..n+1} given by a type A Weyl element."""
    mat = u.w.mat
    n = len(mat)
    perm: dict[int, int] = {}
    for i in range(1, n + 1):
        col = tuple(mat[r][i - 1] for r in range(n))
        ambient = [0] * (n + 1)
        for k in range(n + 1):
            prev = col[k - 1] if k >= 1 else 0
            cur = col[k] if k < n else 0
            ambient[k] = cur - prev
        plus = [k + 1 for k, x in enumerate(ambient) if x == 1]
        minus = [k + 1 for k, x in enumerate(ambient) if x == -1]
        if len(plus) != 1 or len(minus) != 1:
            raise RuntimeError("matrix does not act as a permutation")
        for key, val in ((i, plus[0]), (i + 1, minus[0])):
            if perm.setdefault(key, val) != val:
                raise RuntimeError("inconsistent permutation extraction")
    return perm


def nc_to_set_partition(u: NcElement) -> tuple[tuple[int, ...], ...]:
    """Cycle partition of {1..rank+1} for a type A element.

    Blocks are sorted ascending, and listed by smallest member.
    """
    perm = _type_a_permutation(u)
    n = len(u.w.mat)
    seen: set[int] = set()
    blocks = []
    for start in range(1, n + 2):
        if start in seen:
            continue
        block = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            block.append(cur)
            seen.add(cur)
            cur = perm[cur]
        blocks.append(tuple(sorted(block)))
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)


def _blocks_cross(first, second) -> bool:
    return any(
        a1 < b1 < a2 < b2
        for a1 in first
        for a2 in first
        for b1 in second
        for b2 in second
    )


def is_noncrossing_partition(blocks) -> bool:
    """Whether no two blocks interleave as a < b < a' < b'."""
    for i, blk in enumerate(blocks):
        for other in blocks[i + 1 :]:
            if _blocks_cross(blk, other) or _blocks_cross(other, blk):
                return False
    return True


class NcLattice:
    """The enumerated interval [e, c] with its order structure.

    Elements are kept in canonical order (lexicographic on flattened
    matrices) and found by their matrices through `position`;
    comparisons are cached as up-set and down-set bitmasks, built from
    the elements' moved-root masks.  In a lattice
    up(i) & up(j) = up(i v j) and down(i) & down(j) = down(i ^ j), so
    joins and meets are lookups of those masks.
    """

    def __init__(self, rs: RootSystem, c: WeylElement, elements=None):
        self.rs = rs
        self.c = c
        self.elements = (
            tuple(elements) if elements is not None else enumerate_nc(rs, c)
        )
        self.position = {e.w.mat: i for i, e in enumerate(self.elements)}
        self._up: list[int] | None = None
        self._down: list[int] | None = None
        self._by_up: dict[int, int] = {}
        self._by_down: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def _masks(self):
        if self._up is None:
            moved = [e.moved for e in self.elements]
            self._up = [
                sum(1 << j for j, s in enumerate(moved) if r & ~s == 0) for r in moved
            ]
            self._down = [
                sum(1 << i for i, r in enumerate(moved) if r & ~s == 0) for s in moved
            ]
            self._by_up = {mask: i for i, mask in enumerate(self._up)}
            self._by_down = {mask: i for i, mask in enumerate(self._down)}
        return self._up, self._down

    def leq(self, i: int, j: int) -> bool:
        up, _ = self._masks()
        return bool((up[i] >> j) & 1)

    def bottom(self) -> int:
        return next(i for i, e in enumerate(self.elements) if e.length == 0)

    def top(self) -> int:
        n = self.rs.rank
        return next(i for i, e in enumerate(self.elements) if e.length == n)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (lower, higher): comparable and one reflection
        length apart, since [e, c] is graded by reflection length."""
        up, _ = self._masks()
        levels = [0] * (self.rs.rank + 2)
        for i, e in enumerate(self.elements):
            levels[e.length] |= 1 << i
        return tuple(
            (i, j)
            for i, e in enumerate(self.elements)
            for j in _bits(up[i] & levels[e.length + 1])
        )

    def join(self, i: int, j: int) -> int:
        up, _ = self._masks()
        k = self._by_up.get(up[i] & up[j])
        if k is None:
            raise RuntimeError("join does not exist; lattice property violated")
        return k

    def meet(self, i: int, j: int) -> int:
        _, down = self._masks()
        k = self._by_down.get(down[i] & down[j])
        if k is None:
            raise RuntimeError("meet does not exist; lattice property violated")
        return k

    def reflection_factorization(self, i: int) -> tuple[int, ...]:
        """Lexicographically first minimal factorization of element i
        into reflections.

        Returns indices into rs.positive_roots; the leftmost factor comes
        first.  Greedy: always take the smallest reflection index that
        drops the length.  By Carter's lemma t*w is shorter than w exactly
        when the root of t lies in R(w), so that index is the lowest bit
        of R(w), and t*w is again below c, so it is found in the lattice
        by its matrix with its R(t*w) already known.
        """
        refls = reflection_mats(self.rs)
        word = []
        e = self.elements[i]
        while e.moved:
            k = next(_bits(e.moved))
            word.append(k)
            e = self.elements[self.position[int_mat_mul(refls[k], e.w.mat)]]
        return tuple(word)
