"""Simply laced root systems and noncrossing partition lattices.

Roots are integer vectors in the basis of simple roots.  The
noncrossing partition lattice NC(W, c) for a Coxeter element c is the
interval [e, c] in the absolute order: u <= w iff reflection lengths add
up along u, u^-1 w, w.

An element w is kept as R(w), the positive roots in its moved space
Mov(w) = im(w - I), as a bitmask; by Brady-Watt u <= w iff R(u) is a
subset of R(w).  For the Coxeter element of an orientation of the
diagram, the masks R(w) are the dimension vectors of the wide
subcategories of the quiver's representations (Ingalls-Thomas,
Compositio 2009), and the whole lattice comes from the quiver's Euler
form.  Hom and Ext1 between indecomposables of a Dynkin quiver are never
both nonzero, so <g, b> = 0 exactly when both vanish.  With
left[b] = {g : <g, b> = 0} and right[b] = {g : <b, g> = 0}:

- the lower covers of R(w) are the R(w*t_b) = R(w) & left[b], one per
  root b in R(w) (Carter's lemma), so NC is walked down from R(c), all
  the positive roots, and an element's length is the rank minus its
  depth in the walk;
- R(t_b*w) = R(w) & right[b], which peels reflection factorizations;
- in type A each root alpha_i + ... + alpha_j of R(w) joins the points
  i and j + 1 of the noncrossing set partition.

Weyl group elements, as integer matrices acting on root coordinates,
are kept for the independent check of the bijection with wide
subcategories: reflection lengths, Coxeter elements and moved roots.
"""
from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import mul

from .linalg import QQ, _integer_row, int_identity, int_mat_mul, int_rank, nullspace
from .value import Value

LETTERS = ("A", "D", "E")


class DynkinType(Value):
    """A simply laced Dynkin type: A_n (n>=1), D_n (n>=4), E_6, E_7, E_8.

    >>> DynkinType.parse("D4").diagram_edges()
    ((1, 2), (2, 3), (2, 4))
    """

    __slots__ = ("letter", "rank")

    def __init__(self, letter: str, rank: int):
        if letter not in LETTERS:
            raise ValueError(f"unknown Dynkin letter {letter!r}")
        if letter == "A" and rank < 1:
            raise ValueError("type A requires rank >= 1")
        if letter == "D" and rank < 4:
            raise ValueError("type D requires rank >= 4")
        if letter == "E" and rank not in (6, 7, 8):
            raise ValueError("type E requires rank 6, 7 or 8")
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "rank", rank)

    @staticmethod
    def parse(text: str) -> "DynkinType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdecimal():
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        return DynkinType(text[0].upper(), int(text[1:].lstrip("0") or "0"))

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"

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
    return prod(h + d for d in dynkin.degrees()) // prod(dynkin.degrees())


class WeylElement:
    """A Weyl group element as an integer matrix in the root basis.

    Hashable; the reflection length is computed once and cached.
    """

    __slots__ = ("mat", "_length")

    def __init__(self, mat):
        self.mat = tuple(tuple(int(x) for x in row) for row in mat)
        self._length = None

    @property
    def rank(self) -> int:
        return len(self.mat)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(int_mat_mul(self.mat, other.mat))

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


class RootSystem(Value):
    """A root system of the given type, in simple-root coordinates."""

    __slots__ = ("dynkin", "cartan", "positive_roots")

    def __init__(
        self,
        dynkin: DynkinType,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "dynkin", dynkin)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "positive_roots", positive_roots)

    @property
    def rank(self) -> int:
        return self.dynkin.rank


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


def _orientation(rs: RootSystem, arrows) -> tuple[tuple[int, int], ...]:
    """The (source, target) pairs of arrows, or of arrows.arrows, checked
    to orient the diagram of rs."""
    arrows = tuple(tuple(a) for a in getattr(arrows, "arrows", arrows))
    edges = tuple(sorted(tuple(sorted(a)) for a in arrows))
    if edges != rs.dynkin.diagram_edges():
        raise ValueError(
            f"orientation {arrows!r} is not an orientation of the {rs.dynkin} diagram"
        )
    return arrows


def coxeter_element(rs: RootSystem, arrows) -> WeylElement:
    """Coxeter element for an orientation of the Dynkin diagram.

    arrows is an iterable of (source, target) vertex pairs covering the
    diagram.  Simple reflections are multiplied sink first: vertices are
    peeled off in sink order, ties broken by smallest label, and the
    reflection of the first peeled vertex is the leftmost factor.  For
    A2 oriented 1 -> 2 this yields s2 * s1.
    """
    arrows = _orientation(rs, arrows)
    # a vertex is peeled once every target of its arrows is
    targets = [0] * rs.rank
    for s, t in arrows:
        targets[s - 1] |= 1 << (t - 1)
    order = [v + 1 for v in linear_extension(targets)]
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
        fixed = _integer_row(fixed)
        pairing = [sum(map(mul, row, fixed)) for row in rs.cartan]
        for k, root in enumerate(rs.positive_roots):
            if sum(map(mul, root, pairing)):
                mask &= ~(1 << k)
    return mask


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def linear_extension(before) -> list[int]:
    """The indices of before, one bitmask row per index, in an order that
    puts every index of before[i] ahead of i: at each step the smallest
    index with nothing left before it.  On a cycle the list stops short,
    at the first step where no index is free."""
    left = (1 << len(before)) - 1
    order = []
    while (free := next((i for i in _bits(left) if not before[i] & left), None)) is not None:
        order.append(free)
        left ^= 1 << free
    return order


def euler_form(arrows, d, e) -> int:
    """<d, e> = sum_v d_v e_v - sum_{a: s->t} d_s e_t over the arrows
    (s, t) of a quiver.

    For representations M, N with these dimension vectors this equals
    dim Hom(M, N) - dim Ext1(M, N).
    """
    total = sum(x * y for x, y in zip(d, e))
    for s, t in arrows:
        total -= d[s - 1] * e[t - 1]
    return total


@lru_cache(maxsize=None)
def euler_pairing(rs: RootSystem, arrows) -> tuple[tuple[int, ...], ...]:
    """pairing[i][j] = <beta_i, beta_j> over the positive roots beta of
    rs, for an orientation's arrows: the one integer product R (E R^T),
    with R the roots as rows and E the identity less the arrow matrix,
    so row s of E R^T is column s of R less column t per arrow s -> t."""
    roots = rs.positive_roots
    cols = list(zip(*roots))
    form = [list(col) for col in cols]
    for s, t in arrows:
        form[s - 1] = [x - y for x, y in zip(form[s - 1], cols[t - 1])]
    return int_mat_mul(roots, form)


@lru_cache(maxsize=None)
def euler_perps(rs: RootSystem, arrows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """left[b] = {g : <g, b> = 0} and right[b] = {g : <b, g> = 0}, as
    bitmasks over rs.positive_roots, for an orientation's arrows.

    Hom and Ext1 between indecomposables of a Dynkin quiver are never
    both nonzero, so <g, b> = 0 exactly when Hom(g, b) = 0 = Ext1(g, b).
    """
    pairing = euler_pairing(rs, arrows)
    right = tuple(sum(1 << g for g, x in enumerate(row) if not x) for row in pairing)
    left = tuple(sum(1 << g for g, x in enumerate(col) if not x) for col in zip(*pairing))
    return left, right


def perp_closure(left, right, mask: int) -> int:
    """The wide subcategory generated by a mask of indecomposables: the
    right perpendicular of its left perpendicular (Geigle-Lenzing;
    Ingalls-Thomas), read off the rows left[s] = {x : Hom(x, s) = 0 =
    Ext1(x, s)} and right[y] = {z : Hom(y, z) = 0 = Ext1(y, z)}."""
    full = (1 << len(left)) - 1
    perp = full
    for s in _bits(mask):
        perp &= left[s]
    closed = full
    for y in _bits(perp):
        closed &= right[y]
    return closed


def enumerate_nc(rs: RootSystem, arrows) -> dict[int, int]:
    """The elements of NC(W, c), for c the Coxeter element of the
    orientation, as {R(w): reflection length of w}.

    Walked down from R(c), every positive root: the lower covers of R(w)
    are R(w) & left[b], one per root b in R(w), and an element's length
    is the rank minus its depth in the walk.
    """
    left, _ = euler_perps(rs, _orientation(rs, arrows))
    top = (1 << len(rs.positive_roots)) - 1
    found = {top: rs.rank}
    level = [top]
    length = rs.rank
    while level:
        length -= 1
        below = []
        for w in level:
            for b in _bits(w):
                u = w & left[b]
                if u not in found:
                    found[u] = length
                    below.append(u)
        level = below
    return found


def nc_to_set_partition(rs: RootSystem, moved: int) -> tuple[tuple[int, ...], ...]:
    """The noncrossing partition of {1..rank+1} of a type A element,
    from its moved roots R(w): each root alpha_i + ... + alpha_j in R(w)
    joins the points i and j + 1, and the blocks are the connected
    components.

    Blocks are sorted ascending, and listed by smallest member.
    """
    if rs.dynkin.letter != "A":
        raise ValueError(f"set partitions need type A, not {rs.dynkin}")
    block = list(range(rs.rank + 2))
    for k in _bits(moved):
        root = rs.positive_roots[k]
        first = root.index(1)
        old, new = block[first + sum(root) + 1], block[first + 1]
        block = [new if b == old else b for b in block]
    blocks: dict[int, list[int]] = {}
    for point in range(1, rs.rank + 2):
        blocks.setdefault(block[point], []).append(point)
    return tuple(sorted(tuple(b) for b in blocks.values()))


class NcLattice:
    """NC(W, c) for the Coxeter element c of an orientation, each element
    w kept as its moved-root mask R(w).

    elements holds the masks in ascending order, lengths their
    reflection lengths, and index finds an element by its mask.  The
    order is inclusion of masks (Brady-Watt).  The masks are the
    dimension vectors of wide subcategories, so a join is the index of
    the perp_closure of the union of two masks under the Euler-form rows
    left and right, and a meet the index of their intersection.  Up-sets
    and down-sets are bitmasks over the elements, each built on first
    use, so a caller that needs one never pays for the other.
    """

    def __init__(self, rs: RootSystem, arrows):
        self.rs = rs
        self.arrows = _orientation(rs, arrows)
        self.left, self.right = euler_perps(rs, self.arrows)
        found = enumerate_nc(rs, self.arrows)
        self.elements = tuple(sorted(found))
        self.lengths = tuple(found[m] for m in self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self._covers: tuple[tuple[int, int], ...] | None = None
        self._up: list[int] | None = None
        self._down: list[int] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def _order_masks(self, upward: bool) -> list[int]:
        """Each element's up-set (upward) or down-set as a bitmask: the
        element with the sets of its upper (lower) covers, built from the
        longest (shortest) elements."""
        n = len(self.elements)
        nexts: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in self.covers():
            if upward:
                nexts[lo].append(hi)
            else:
                nexts[hi].append(lo)
        masks = [0] * n
        for i in sorted(range(n), key=self.lengths.__getitem__, reverse=upward):
            mask = 1 << i
            for k in nexts[i]:
                mask |= masks[k]
            masks[i] = mask
        return masks

    def up_sets(self) -> list[int]:
        """up[i], the elements at or above i, built on first use."""
        if self._up is None:
            self._up = self._order_masks(True)
        return self._up

    def down_sets(self) -> list[int]:
        """down[j], the elements at or below j, built on first use."""
        if self._down is None:
            self._down = self._order_masks(False)
        return self._down

    def _masks(self) -> tuple[list[int], list[int]]:
        """Both up_sets() and down_sets(), for readers of the whole order."""
        return self.up_sets(), self.down_sets()

    def leq(self, i: int, j: int) -> bool:
        return self.elements[i] & ~self.elements[j] == 0

    def top(self) -> int:
        return self.index[(1 << len(self.rs.positive_roots)) - 1]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (lower, higher), ascending: the edges of the walk
        in enumerate_nc, R(w) & left[b] below R(w) for each b in R(w)."""
        if self._covers is None:
            index, left = self.index, self.left
            self._covers = tuple(
                sorted(
                    (index[w & left[b]], i)
                    for i, w in enumerate(self.elements)
                    for b in _bits(w)
                )
            )
        return self._covers

    def join(self, i: int, j: int) -> int:
        union = self.elements[i] | self.elements[j]
        k = self.index.get(perp_closure(self.left, self.right, union))
        if k is None:
            raise RuntimeError("join does not exist; lattice property violated")
        return k

    def meet(self, i: int, j: int) -> int:
        k = self.index.get(self.elements[i] & self.elements[j])
        if k is None:
            raise RuntimeError("meet does not exist; lattice property violated")
        return k

    def reflection_factorization(self, i: int) -> tuple[int, ...]:
        """Lexicographically first minimal factorization of element i
        into reflections.

        Returns indices into rs.positive_roots; the leftmost factor comes
        first.  Greedy: always take the smallest reflection index that
        drops the length.  t*w is shorter than w exactly when the root b
        of t lies in R(w) (Carter's lemma), so that index is the lowest
        bit of R(w), and R(t*w) = R(w) & right[b].
        """
        word = []
        moved = self.elements[i]
        while moved:
            k = (moved & -moved).bit_length() - 1
            word.append(k)
            moved &= self.right[k]
        return tuple(word)
