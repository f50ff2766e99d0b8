"""Lattices of poset maps into a noncrossing partition lattice.

A specialization-closed function assigns to every point of a finite
poset a noncrossing partition, monotonely: smaller points get smaller
partitions.  Under the pointwise order these functions form a lattice;
so do all unconstrained functions.
"""
from __future__ import annotations

import os
from itertools import product

from .root_system import NcLattice
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
        """Elements ordered so that lower ones come first."""
        remaining = list(self.elements)
        out = []
        while remaining:
            for x in remaining:
                if not any(y != x and (y, x) in self.leq for y in remaining):
                    out.append(x)
                    remaining.remove(x)
                    break
            else:
                raise RuntimeError("poset order is cyclic?")
        return tuple(out)


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
    """A set of functions under the pointwise order.

    Each member is its value tuple: members[i][k] is the index into the
    noncrossing partition lattice of the value at poset.elements[k].
    upper[i] is the ascending tuple of the indices of the members that
    cover member i.
    """

    __slots__ = ("poset", "members", "upper")

    def __init__(
        self,
        poset: FinitePoset,
        members: tuple[tuple[int, ...], ...] = (),
        upper: tuple[tuple[int, ...], ...] = (),
    ):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "upper", upper)


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

    Its covers follow the rule of monotone_functions with no point above
    another: they change one value to an upper cover of it.
    """
    npts = len(poset.elements)
    all_function_count(poset, nc)
    members = tuple(product(range(len(nc)), repeat=npts))
    upper = _upper_covers(members, nc, [()] * npts)
    return FunctionLattice(poset, members, upper)


def _monotone_value_tuples(poset: FinitePoset, nc: NcLattice, limit: int):
    """Yield value index tuples of monotone functions, assigning points
    in topological order and intersecting upper sets."""
    up, _ = nc._masks()
    order = poset.topological()
    pos = {p: i for i, p in enumerate(poset.elements)}
    order_pos = [pos[p] for p in order]
    lower_in_order = [
        [idx for idx, a in enumerate(order[:k]) if poset.less(a, order[k])]
        for k in range(len(order))
    ]
    full_mask = (1 << len(nc)) - 1
    found = 0
    values = [0] * len(poset.elements)

    def rec(k: int):
        nonlocal found
        if k == len(order):
            found += 1
            if found > limit:
                raise SizeGuardError(
                    f"monotone functions exceed the size guard {limit}; "
                    "raise THICKLAT_SIZE_GUARD to proceed"
                )
            yield tuple(values)
            return
        allowed = full_mask
        for a in lower_in_order[k]:
            allowed &= up[values[order_pos[a]]]
        while allowed:
            low = allowed & -allowed
            values[order_pos[k]] = low.bit_length() - 1
            yield from rec(k + 1)
            allowed ^= low
    yield from rec(0)


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
    upper covers of f(p), intersected with the lower sets of f(q) for
    q > p.
    """
    members = tuple(sorted(_monotone_value_tuples(poset, nc, size_guard_limit())))
    above = [
        [q for q, b in enumerate(poset.elements) if poset.less(a, b)]
        for a in poset.elements
    ]
    return FunctionLattice(poset, members, _upper_covers(members, nc, above))


def _upper_covers(members, nc: NcLattice, above) -> tuple[tuple[int, ...], ...]:
    """The ascending upper cover row of each member: the members
    f[p -> hi], for each point p and each upper cover hi of f(p) in the
    lattice with hi <= f(q) at every point q in above[p]."""
    index = {values: i for i, values in enumerate(members)}
    _, down = nc._masks()
    cover_up_mask = [0] * len(nc)
    for lo, hi in nc.covers():
        cover_up_mask[lo] |= 1 << hi
    points = range(len(above))
    upper = []
    for values in members:
        row = []
        for p in points:
            allowed = cover_up_mask[values[p]]
            for q in above[p]:
                allowed &= down[values[q]]
            head, tail = values[:p], values[p + 1:]
            while allowed:
                low = allowed & -allowed
                row.append(index[head + (low.bit_length() - 1,) + tail])
                allowed ^= low
        row.sort()
        upper.append(tuple(row))
    return tuple(upper)


def smashing_count(poset: FinitePoset, nc: NcLattice) -> int:
    """Number of monotone functions, without building cover data."""
    return sum(1 for _ in _monotone_value_tuples(poset, nc, size_guard_limit()))
