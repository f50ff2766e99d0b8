"""Lattices of poset maps into a noncrossing partition lattice.

A specialization-closed function assigns to every point of a finite
poset a noncrossing partition, monotonely: smaller points get smaller
partitions.  Under the pointwise order these functions form a lattice;
so do all unconstrained functions.
"""
from __future__ import annotations

import os
from itertools import repeat
from operator import floordiv, mod

from .root_system import NcLattice, linear_extension
from .value import Value

DEFAULT_SIZE_GUARD = 100_000


class SizeGuardError(ValueError):
    """Raised before enumerating a function space, or building a poset,
    that is too large."""


def size_guard_limit() -> int:
    """The enumeration cap, overridable via THICKLAT_SIZE_GUARD."""
    raw = os.environ.get("THICKLAT_SIZE_GUARD")
    if raw is None:
        return DEFAULT_SIZE_GUARD
    # int() refuses more digits than this (Python's default
    # int_max_str_digits), and its message would echo every one
    digits = raw.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    if digits.isdecimal() and len(digits) > 4300:
        raise ValueError(f"THICKLAT_SIZE_GUARD has {len(digits)} digits, past the limit of 4300")
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"THICKLAT_SIZE_GUARD={raw!r} is not an integer") from exc


# Monotone functions are enumerated by one nested generator per point,
# so a poset with many more points would exhaust the interpreter's
# recursion limit, and each function found costs a step per point; a
# poset above this is refused before its order is built.
MAX_POSET_POINTS = 64


def _check_point_count(count: int) -> None:
    if count > MAX_POSET_POINTS:
        raise SizeGuardError(
            f"{count} poset points exceed the cap {MAX_POSET_POINTS}"
        )


def _relation_rows(elements: tuple[str, ...], pairs) -> list[int]:
    """Row i has bit j set when (elements[i], elements[j]) is a pair."""
    pos = {x: i for i, x in enumerate(elements)}
    rows = [0] * len(elements)
    for a, b in pairs:
        if a not in pos or b not in pos:
            raise ValueError(f"relation {(a, b)!r} uses unknown elements")
        rows[pos[a]] |= 1 << pos[b]
    return rows


class FinitePoset(Value):
    """A finite poset on named elements, at most MAX_POSET_POINTS of them.

    leq is the full reflexive-transitive relation as (lower, higher)
    pairs; validated on construction.
    """

    __slots__ = ("elements", "leq")

    def __init__(self, elements: tuple[str, ...], leq: frozenset):
        elems = tuple(elements)
        _check_point_count(len(elems))
        rel = frozenset((str(a), str(b)) for a, b in leq)
        if len(set(elems)) != len(elems):
            raise ValueError("duplicate poset elements")
        up = _relation_rows(elems, rel)
        for i, x in enumerate(elems):
            if not (up[i] >> i) & 1:
                raise ValueError(f"relation is not reflexive at {x!r}")
        pos = {x: i for i, x in enumerate(elems)}
        for a, b in rel:
            i, j = pos[a], pos[b]
            if i != j and (up[j] >> i) & 1:
                raise ValueError(f"antisymmetry fails on {a!r}, {b!r}")
            missing = up[j] & ~up[i]
            if missing:
                c = elems[(missing & -missing).bit_length() - 1]
                raise ValueError(f"transitivity fails on {a!r}, {b!r}, {c!r}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "leq", rel)

    @staticmethod
    def from_covers(elements, covers) -> "FinitePoset":
        """Build from cover pairs (lower, higher) by transitive closure
        (Warshall's algorithm on bit rows)."""
        elements = tuple(str(x) for x in elements)
        _check_point_count(len(elements))
        up = _relation_rows(elements, ((str(a), str(b)) for a, b in covers))
        for i in range(len(elements)):
            up[i] |= 1 << i
        for k in range(len(up)):
            bit, row = 1 << k, up[k]
            for i, other in enumerate(up):
                if other & bit:
                    up[i] = other | row
        rel = frozenset(
            (a, b)
            for a, row in zip(elements, up)
            for j, b in enumerate(elements)
            if (row >> j) & 1
        )
        return FinitePoset(elements, rel)

    def less(self, a: str, b: str) -> bool:
        """Strictly below: a is a proper specialization source of b."""
        return a != b and (a, b) in self.leq

    def topological(self) -> tuple[str, ...]:
        """Elements ordered so that lower ones come first, each time the
        first element with nothing left below it."""
        elems = self.elements
        rows = _relation_rows(elems, ((b, a) for a, b in self.leq))
        below = [row & ~(1 << i) for i, row in enumerate(rows)]
        return tuple(elems[i] for i in linear_extension(below))


def poset_point() -> FinitePoset:
    return FinitePoset.from_covers(("p0",), ())


def poset_chain(n: int) -> FinitePoset:
    if n < 1:
        raise ValueError("chain length must be at least 1")
    _check_point_count(n)
    names = tuple(f"p{i}" for i in range(n))
    return FinitePoset.from_covers(
        names, tuple((f"p{i}", f"p{i+1}") for i in range(n - 1))
    )


def poset_antichain(n: int) -> FinitePoset:
    if n < 1:
        raise ValueError("antichain size must be at least 1")
    _check_point_count(n)
    return FinitePoset.from_covers(tuple(f"p{i}" for i in range(n)), ())


def poset_diamond() -> FinitePoset:
    return FinitePoset.from_covers(
        ("p0", "p1", "p2", "p3"),
        (("p0", "p1"), ("p0", "p2"), ("p1", "p3"), ("p2", "p3")),
    )


class FunctionLattice(Value):
    """A set of functions under the pointwise order, one integer per member.

    A function f into a lattice of width elements is its code, the
    mixed-radix number sum(f(p_k) * width ** (m - 1 - k)) over the m
    points p_k of poset.elements, where f(p) is the index of the value at
    p.  codes ascend (a tuple, or a range when every function is a
    member), so the members ascend as value tuples.  The upper covers
    of member i are the member indices in targets from ends[i - 1] (0
    for i = 0) up to ends[i], ascending: every row in one flat sequence,
    an array of C ints when built here.

    members[i] is the value tuple of member i and upper[i] its cover
    row, both decoded on each access; values_at and row read one point
    or one row without building either.
    """

    __slots__ = ("poset", "width", "codes", "targets", "ends")

    def __init__(self, poset: FinitePoset, width: int = 1, codes=(), targets=(), ends=()):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "ends", ends)

    def __hash__(self):
        # targets and ends may be arrays, which do not hash; equal
        # lattices have equal codes all the same
        return hash((self.poset, self.width, self.codes))

    def values_at(self, k: int, indices):
        """The value at poset.elements[k] of each member in indices."""
        codes = map(self.codes.__getitem__, indices)
        return _point_values(codes, self.width, len(self.poset.elements), k)

    def row(self, i: int):
        """The ascending indices of the members that cover member i."""
        return self.targets[self.ends[i - 1] if i else 0:self.ends[i]]

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        codes, points = self.codes, len(self.poset.elements)
        columns = [_point_values(codes, self.width, points, k) for k in range(points)]
        return tuple(values[1:] for values in zip(codes, *columns))

    @property
    def upper(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.row(i)) for i in range(len(self.ends)))


def _point_values(codes, width: int, points: int, k: int):
    """The value at point k of the function of each code: digit k, most
    significant first, of the code's points digits in base width."""
    place = width ** (points - 1 - k)
    return map(mod, map(floordiv, codes, repeat(place)), repeat(width))


def check_size_guard(count: int, noun: str) -> None:
    """Refuse count items, named by noun, above the size guard."""
    limit = size_guard_limit()
    if count > limit:
        raise SizeGuardError(
            f"{count} {noun} exceed the size guard {limit}; "
            "raise THICKLAT_SIZE_GUARD to proceed"
        )


def all_function_count(poset: FinitePoset, nc: NcLattice) -> int:
    """Number of all functions, len(nc) ** points, under the size guard."""
    count = len(nc) ** len(poset.elements)
    check_size_guard(count, "functions")
    return count


def all_functions(poset: FinitePoset, nc: NcLattice) -> FunctionLattice:
    """Every function from the poset into the lattice, pointwise order.

    The codes are range(len(nc) ** points), each its own index, and the
    covers follow the rule of monotone_functions with no point above
    another: they change one value to an upper cover of it.
    """
    codes = range(all_function_count(poset, nc))
    above = [()] * len(poset.elements)
    # codes, a range, is also the index of each code
    return FunctionLattice(poset, len(nc), codes, *_upper_covers(codes, codes, nc, above))


def _monotone_overflow(limit: int) -> SizeGuardError:
    return SizeGuardError(
        f"monotone functions exceed the size guard {limit}; "
        "raise THICKLAT_SIZE_GUARD to proceed"
    )


def _unrelated_count(poset: FinitePoset, nc: NcLattice, limit: int) -> int | None:
    """On a poset with no point below another every function is
    monotone: their number, len(nc) ** points, refused above limit as
    the enumeration refuses it.  None on any other poset."""
    if len(poset.leq) != len(poset.elements):
        return None
    count = len(nc) ** len(poset.elements)
    if count > limit:
        raise _monotone_overflow(limit)
    return count


def _monotone_codes(poset: FinitePoset, nc: NcLattice, limit: int):
    """Yield the codes of the monotone functions, assigning points in
    topological order and intersecting up-sets.  Called on posets with
    some point below another, the only ones that need the up-sets."""
    order = poset.topological()
    width, points = len(nc), len(order)
    pos = {p: i for i, p in enumerate(poset.elements)}
    weight = [width ** (points - 1 - pos[p]) for p in order]
    lower_in_order = [
        [idx for idx, a in enumerate(order[:k]) if poset.less(a, order[k])]
        for k in range(points)
    ]
    up = nc.up_sets()
    full_mask = (1 << width) - 1
    found = 0
    values = [0] * points

    def rec(k: int, code: int):
        nonlocal found
        if k == points:
            found += 1
            if found > limit:
                raise _monotone_overflow(limit)
            yield code
            return
        allowed = full_mask
        for a in lower_in_order[k]:
            allowed &= up[values[a]]
        w = weight[k]
        while allowed:
            low = allowed & -allowed
            v = low.bit_length() - 1
            values[k] = v
            yield from rec(k + 1, code + v * w)
            allowed ^= low
    yield from rec(0, 0)


def monotone_functions(poset: FinitePoset, nc: NcLattice) -> FunctionLattice:
    """The lattice of monotone (specialization-closed) functions.

    g covers f exactly when g = f[p -> hi] for one point p, with hi an
    upper cover of f(p) in the lattice and hi <= f(q) at every q > p.

    Proof.  Such a g is monotone, and any k with f < k <= g agrees with
    f off p and lies strictly above f(p) at p, so k = g.  Conversely,
    take f < g, let p be maximal among the points where they differ
    and hi an upper cover of f(p) with hi <= g(p).  Then h = f[p -> hi]
    is monotone, as q > p gives hi <= g(p) <= g(q) = f(q), and
    f < h <= g; so if g covers f, g = h.

    The covers of f are therefore read off one mask per point: the
    upper covers of f(p), intersected with the down-sets of f(q) for
    q > p.  On a poset with no point below another every function is
    monotone, and the codes are range(len(nc) ** points), unenumerated,
    as in all_functions.
    """
    limit = size_guard_limit()
    count = _unrelated_count(poset, nc, limit)
    if count is None:
        codes = tuple(sorted(_monotone_codes(poset, nc, limit)))
        index = {code: i for i, code in enumerate(codes)}
    else:
        codes = index = range(count)
    above = [
        [q for q, b in enumerate(poset.elements) if poset.less(a, b)]
        for a in poset.elements
    ]
    targets, ends = _upper_covers(codes, index, nc, above)
    return FunctionLattice(poset, len(nc), codes, targets, ends)


def _upper_covers(codes, index, nc: NcLattice, above):
    """The upper cover rows of the members, by the cover rule of
    monotone_functions, as one flat array of member indices and the row
    ends: f[p -> hi] is the code plus (hi - f(p)) * width ** (m - 1 - p),
    and index maps it to its member.  The down-sets are built only when
    some point lies below another.

    An upper cover hi of f(p) has a larger index, and a change at point
    p adds less than any change at p - 1, so taking the points last to
    first and hi ascending gives each row ascending."""
    # imported on use, as importing the CLI loads only what every
    # command needs
    from array import array

    width, points = len(nc), len(above)
    weight = [width ** (points - 1 - p) for p in range(points)]
    down = nc.down_sets() if any(above) else None
    cover_up_mask = [0] * width
    for lo, hi in nc.covers():
        cover_up_mask[lo] |= 1 << hi
    targets, ends = array("I"), array("I")
    columns = [_point_values(codes, width, points, p) for p in range(points)]
    for code, *values in zip(codes, *columns):
        for p in range(points - 1, -1, -1):
            allowed = cover_up_mask[values[p]]
            for q in above[p]:
                allowed &= down[values[q]]
            w = weight[p]
            base = code - values[p] * w
            while allowed:
                low = allowed & -allowed
                targets.append(index[base + (low.bit_length() - 1) * w])
                allowed ^= low
        ends.append(len(targets))
    return targets, ends


def smashing_count(poset: FinitePoset, nc: NcLattice) -> int:
    """Number of monotone functions, without building cover data."""
    limit = size_guard_limit()
    count = _unrelated_count(poset, nc, limit)
    if count is None:
        count = sum(1 for _ in _monotone_codes(poset, nc, limit))
    return count
