"""Command line interface.

Subcommands: nc (noncrossing partition lattices), thick (wide
subcategory enumeration and the bijection check), specfn (lattices of
functions from a finite poset), figures (reference diagram golden
files), koszul (Koszul homology at rational points).

Output is byte deterministic: JSON is dumped with sorted keys and a
trailing newline, DOT statements are emitted in sorted order, and node
identifiers serialize mathematical content rather than enumeration
indices.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import islice
from math import comb, gcd

from .figures import (
    FIGURE1_COVERS,
    FIGURE1_NODES,
    FIGURE2_COVERS,
    FIGURE2_NODES,
)
from .koszul import MAX_KOSZUL_INPUTS, Poly, PolyRing, RationalPoint, koszul_homology
from .linalg import GF, _integer_matrix
from .quiver_rep import Quiver, TreeModuleError, default_orientation, indecomposable_dims
from .root_system import (
    DynkinType,
    NcLattice,
    build_root_system,
    catalan_number,
    nc_to_set_partition,
)
from .spec_model import (
    MAX_POSET_POINTS,
    FinitePoset,
    SizeGuardError,
    all_function_count,
    all_functions,
    check_size_guard,
    monotone_functions,
    poset_antichain,
    poset_chain,
    poset_diamond,
    poset_point,
    smashing_count,
)
from .thick_enum import quiver_lattice, sorted_dims, thick_masks, verify_bijection

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# polynomial parsing

class PolynomialSyntaxError(ValueError):
    """A parse failure, carrying the 1-based column of the offense."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class ExponentBoundError(PolynomialSyntaxError):
    """A power above MAX_EXPONENT, a power or product above MAX_TERMS or
    with coefficients that could pass MAX_COEFFICIENT_DIGITS, or a number
    above MAX_DIGITS.  A work guard rather than a syntax error, so the
    CLI exits 1 on it."""


# x^n is built by n multiplications, so an unbounded exponent lets one
# short argument run for hours; every exponent is refused above this,
# and so is a power that lifts a variable above it, as nested powers
# multiply exponents.
MAX_EXPONENT = 64
# A power of a t-term base has at most binom(t + e - 1, e) terms, the
# number of degree-e monomials in t letters, and a product of factors
# with t1 and t2 terms at most t1 * t2; a power or a product whose bound
# exceeds this is refused before it is expanded.  `koszul` also refuses
# generators whose terms add up past it, before parsing the next one.
MAX_TERMS = 10_000
# A number in a generator or a coordinate is refused on its text when its
# numerator or denominator could pass this many digits (1e10000000 takes
# seconds to build); under it, a power under MAX_EXPONENT still prints.
MAX_DIGITS = 64
# Python prints no int of more digits than this (its default
# int_max_str_digits); a power or a product is refused before it is
# expanded when _norm says its coefficients could pass it.
MAX_COEFFICIENT_DIGITS = 4300
_COEFFICIENT_CAP = 10 ** MAX_COEFFICIENT_DIGITS

_SYMBOLS = set("+-*/^()")


def _norm(poly: Poly) -> tuple[int, int, int]:
    """(s, d, c): d is the lcm of the coefficients' denominators, s and c
    the sum of the absolute values and the gcd of the numerators over d.
    A coefficient of f * h, a sum of products of a term of each, is over
    d_f * d_h a multiple of c_f * c_h of at most s_f * s_h.  With k =
    gcd(c_f * c_h, d_f * d_h), its numerator and denominator in lowest
    terms are at most s_f * s_h / k and d_f * d_h / k, exactly so for
    one-term factors; (s, d, c) ** e bounds f ** e alike."""
    (nums,), den = _integer_matrix([[c for _, c in poly.terms]])
    return sum(map(abs, nums)), den, gcd(*nums)


def _check_digits(text: str, column: int) -> None:
    """Refuse a number, at its column, whose digits before any decimal
    exponent, plus that exponent, pass MAX_DIGITS."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
    digits = max(sum(map(str.isdecimal, part)) for part in mantissa.split("/"))
    if exponent.isdecimal():
        # one digit more than the bound has is past it, whatever follows
        digits += int(exponent[: len(str(MAX_DIGITS)) + 1])
    if digits > MAX_DIGITS:
        raise ExponentBoundError(
            f"number exceeds the bound of {MAX_DIGITS} digits", column
        )


def _tokenize_poly(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i + 1))
            i = j
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("end", "", len(text) + 1))
    return tokens


def parse_polynomial(ring: PolyRing, text: str) -> Poly:
    """Parse `+ - * ^` expressions with integer or rational coefficients.

    Juxtaposition is rejected: every product needs an explicit `*`.
    An exponent above MAX_EXPONENT, a power that raises some variable's
    exponent above it, or a power or product whose expansion could
    exceed MAX_TERMS terms or have coefficients of more than
    MAX_COEFFICIENT_DIGITS digits raises ExponentBoundError.
    """
    tokens = _tokenize_poly(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr() -> Poly:
        sign = 1
        while peek()[0] in ("+", "-"):
            if advance()[0] == "-":
                sign = -sign
        acc = parse_term().scale(sign)
        while peek()[0] in ("+", "-"):
            op = advance()[0]
            sign = 1 if op == "+" else -1
            while peek()[0] in ("+", "-"):
                if advance()[0] == "-":
                    sign = -sign
            acc = acc + parse_term().scale(sign)
        return acc

    def parse_term() -> Poly:
        acc = parse_factor()
        while True:
            kind, value, column = peek()
            if kind == "*":
                advance()
                acc = acc * parse_factor(acc, column)
                continue
            if kind in ("int", "name", "("):
                raise PolynomialSyntaxError(
                    f"missing operator before {value!r}; "
                    "juxtaposition is not allowed",
                    column,
                )
            return acc

    def parse_factor(left: Poly | None = None, star: int | None = None) -> Poly:
        # a factor multiplying the product `left`, at the `*` in column
        # `star`, is refused before a power in it or the product is
        # expanded
        base = parse_base()
        bound, norm = len(base.terms), None
        exponent = 1
        if peek()[0] == "^":
            caret = advance()[2]
            kind, value, column = advance()
            if kind != "int":
                raise PolynomialSyntaxError(
                    "exponent must be a nonnegative integer", column
                )
            digits = value.lstrip("0") or "0"
            degree = max((max(e, default=0) for e, _ in base.terms), default=0)
            if (
                len(digits) > len(str(MAX_EXPONENT))
                or int(digits) * max(degree, 1) > MAX_EXPONENT
            ):
                raise ExponentBoundError(
                    f"exponent exceeds the bound {MAX_EXPONENT}", column
                )
            exponent = int(digits)
            bound = comb(max(len(base.terms), 1) + exponent - 1, exponent)
            if bound > MAX_TERMS:
                raise ExponentBoundError(
                    f"power may expand beyond the bound of {MAX_TERMS} terms", column
                )
            norm = [x ** exponent for x in _norm(base)]
            if max(norm[:2]) >= _COEFFICIENT_CAP:
                raise ExponentBoundError(
                    "power may have coefficients beyond the bound of "
                    f"{MAX_COEFFICIENT_DIGITS} digits", caret
                )
        if star is not None:
            if len(left.terms) * bound > MAX_TERMS:
                raise ExponentBoundError(
                    f"product may expand beyond the bound of {MAX_TERMS} terms", star
                )
            (s, d, c), (s2, d2, c2) = _norm(left), norm or _norm(base)
            if max(s * s2, d * d2) // gcd(c * c2, d * d2) >= _COEFFICIENT_CAP:
                raise ExponentBoundError(
                    "product may have coefficients beyond the bound of "
                    f"{MAX_COEFFICIENT_DIGITS} digits", star
                )
        return base ** exponent

    def parse_base() -> Poly:
        kind, value, column = advance()
        if kind == "int":
            _check_digits(value, column)
            numerator = int(value)
            if peek()[0] == "/":
                advance()
                dkind, dvalue, dcolumn = advance()
                if dkind == "int":
                    _check_digits(dvalue, dcolumn)
                if dkind != "int" or int(dvalue) == 0:
                    raise PolynomialSyntaxError(
                        "denominator must be a nonzero integer", dcolumn
                    )
                return Poly.const(ring, Fraction(numerator, int(dvalue)))
            return Poly.const(ring, numerator)
        if kind == "name":
            if value not in ring.variables:
                raise PolynomialSyntaxError(
                    f"unknown variable {value!r}", column
                )
            return Poly.variable(ring, value)
        if kind == "(":
            inner = parse_expr()
            closer = advance()
            if closer[0] != ")":
                raise PolynomialSyntaxError("expected ')'", closer[2])
            return inner
        raise PolynomialSyntaxError(
            f"expected a number, variable or '(', got {value!r}"
            if value
            else "unexpected end of input",
            column,
        )

    result = parse_expr()
    kind, value, column = peek()
    if kind != "end":
        raise PolynomialSyntaxError(f"unexpected {value!r}", column)
    return result


# ---------------------------------------------------------------------------
# shared plumbing

def _parse_rational(text: str, column: int) -> Fraction:
    _check_digits(text, column)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse rational number {text!r}") from None


def _parse_orientation(dynkin: DynkinType, text: str | None) -> Quiver:
    if text is None:
        return default_orientation(dynkin)
    arrows = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        parts = chunk.split(">")
        if len(parts) != 2:
            raise ValueError(f"bad arrow {chunk!r}; expected like 1>2")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad arrow {chunk!r}; expected like 1>2") from None
        if not (1 <= s <= dynkin.rank and 1 <= t <= dynkin.rank):
            raise ValueError(
                f"arrow {chunk!r} uses vertices outside 1..{dynkin.rank}"
            )
        arrows.append((s, t))
    return Quiver(dynkin, tuple(arrows))


# NC(W, c) has at least 2^rank elements; past this rank its Catalan number
# is not computed (at rank 200000 that takes half a minute) or printed.
MAX_RANK = 1000


def _past_cap(digits: str, cap: int) -> str:
    """digits without its leading zeros when it has more digits than cap,
    so names a larger number; '' otherwise.  A count is refused on this
    before int() meets it, as int() fails past 4300 digits."""
    digits = digits.lstrip("0")
    return digits if digits.isdecimal() and len(digits) > len(str(cap)) else ""


def _lattice_args(args) -> tuple[DynkinType, Quiver]:
    """The type and orientation of nc, thick and specfn, refused before
    anything is enumerated when NC(W, c) is over the size guard."""
    text = args.type.strip()
    rank = _past_cap(text[1:], MAX_RANK)
    if rank:
        raise SizeGuardError(f"type {text[0].upper()}{rank} exceeds the rank cap {MAX_RANK}")
    dynkin = DynkinType.parse(text)
    if dynkin.rank > MAX_RANK:
        raise SizeGuardError(f"type {dynkin} exceeds the rank cap {MAX_RANK}")
    check_size_guard(catalan_number(dynkin), "elements")
    return dynkin, _parse_orientation(dynkin, args.orientation)


def _orientation_echo(quiver: Quiver) -> str:
    return ",".join(f"{s}>{t}" for s, t in quiver.arrows)


def _partition_label(blocks) -> str:
    shown = [b for b in blocks if len(b) > 1] or list(blocks)
    return ",".join("(" + ",".join(str(x) for x in b) + ")" for b in shown)


def _nc_ids(lattice) -> list[str]:
    """Node identifiers of the lattice's elements: set partitions in
    type A, reflection factorizations otherwise."""
    if lattice.rs.dynkin.letter == "A":
        return [
            _partition_label(nc_to_set_partition(lattice.rs, e))
            for e in lattice.elements
        ]
    return [
        "*".join(f"r{k}" for k in lattice.reflection_factorization(i)) or "e"
        for i in range(len(lattice))
    ]


_escape = json.encoder.encode_basestring_ascii
# the JSON text of a scalar, by its exact type
_SCALARS = {
    str: _escape,
    int: int.__repr__,
    bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
}
# chunks are joined into one piece and written this often, so that
# neither the chunk list nor the piece holds much of the text
_CHUNKS_PER_PIECE = 8192
# the items of an _EncodedList are joined and written this many at a time
_ITEMS_PER_BATCH = 256


class _EncodedList:
    """A JSON list for _write_json, given as an iterable of its items'
    JSON texts, each encoded at indentation 0."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items


def _write_if_full(chunks: list, write) -> None:
    """Write the joined chunks as one piece and clear them, once there
    are _CHUNKS_PER_PIECE of them."""
    if len(chunks) >= _CHUNKS_PER_PIECE:
        write("".join(chunks))
        chunks.clear()


def _write_json(document, write) -> None:
    """Write json.dumps(document, indent=2, sort_keys=True) + "\\n",
    byte for byte, through write(piece) in pieces: the text is never
    held whole.

    With an indent, json.dumps takes its pure-Python encoder.  This
    writer escapes strings with the same C escaper and emits each
    separator, key and scalar as one chunk.  A subtree that is not a
    plain tree of str-keyed dicts, lists, tuples, strs, ints, bools and
    None goes to json.dumps itself, re-indented to its depth: exact, as
    JSON text holds no raw newline inside a string.  An _EncodedList's
    items are re-indented the same way, _ITEMS_PER_BATCH at a time, and
    each batch is written at once.
    """
    chunks: list[str] = []
    append = chunks.append
    scalar = _SCALARS.get

    def walk(value, lead: str, pad: str) -> None:
        # lead is the separator, indentation and key before the value;
        # pad is a newline and the value's own indentation
        kind = type(value)
        convert = scalar(kind)
        if convert is not None:
            append(lead + convert(value))
            return
        if kind is dict and all(type(key) is str for key in value):
            if not value:
                append(lead + "{}")
                return
            inner = pad + "  "
            sep = lead + "{" + inner
            for key in sorted(value):
                item = value[key]
                head = sep + _escape(key) + ": "
                convert = scalar(type(item))
                if convert is None:
                    walk(item, head, inner)
                else:
                    append(head + convert(item))
                sep = "," + inner
            append(pad + "}")
        elif kind is list or kind is tuple:
            if not value:
                append(lead + "[]")
                return
            inner = pad + "  "
            sep = lead + "[" + inner
            for item in value:
                convert = scalar(type(item))
                if convert is None:
                    walk(item, sep, inner)
                else:
                    append(sep + convert(item))
                sep = "," + inner
            append(pad + "]")
        elif kind is _EncodedList:
            items = iter(value.items)
            batch = list(islice(items, _ITEMS_PER_BATCH))
            if not batch:
                append(lead + "[]")
                return
            inner = pad + "  "
            sep = lead + "[" + inner
            while batch:
                append(sep + ",\n".join(batch).replace("\n", inner))
                write("".join(chunks))
                chunks.clear()
                sep = "," + inner
                batch = list(islice(items, _ITEMS_PER_BATCH))
            append(pad + "]")
        else:
            text = json.dumps(value, indent=2, sort_keys=True)
            append(lead + text.replace("\n", pad))
        _write_if_full(chunks, write)

    walk(document, "", "\n")
    append("\n")
    write("".join(chunks))


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(node_ids, edges, write) -> None:
    """Write the DOT digraph of the nodes and the edges, in the order
    given (the callers sort them), through write(piece), in pieces as
    _write_json does."""
    lines = ["digraph thicklat {\n  rankdir=BT;\n"]
    for node in node_ids:
        lines.append(f"  {_dot_quote(node)};\n")
        _write_if_full(lines, write)
    for lo, hi in edges:
        lines.append(f"  {_dot_quote(lo)} -> {_dot_quote(hi)};\n")
        _write_if_full(lines, write)
    lines.append("}\n")
    write("".join(lines))


def _emit(out: str | None, produce) -> None:
    """Pass the write of stdout, or of the file out opened only now,
    to produce, which writes the output through it."""
    if out is None:
        produce(sys.stdout.write)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            produce(handle.write)


def _document(command: str, arguments: dict, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "arguments": arguments,
        "payload": payload,
    }


def _chosen_format(args) -> str:
    if getattr(args, "count", False):
        return "count"
    return args.format


# ---------------------------------------------------------------------------
# nc

def _nc_lattice(dynkin: DynkinType, quiver: Quiver) -> NcLattice:
    return NcLattice(build_root_system(dynkin), quiver)


def _nc_lattice_data(dynkin: DynkinType, quiver: Quiver):
    lattice = _nc_lattice(dynkin, quiver)
    ids = _nc_ids(lattice)
    if len(set(ids)) != len(ids):
        raise RuntimeError("node identifiers collide")
    order = sorted(range(len(ids)), key=lambda i: (lattice.lengths[i], ids[i]))
    nodes = [{"id": ids[i], "length": lattice.lengths[i]} for i in order]
    if dynkin.letter == "A":
        for row, i in zip(nodes, order):
            row["blocks"] = [
                list(b) for b in nc_to_set_partition(lattice.rs, lattice.elements[i])
            ]
    edges = sorted((ids[i], ids[j]) for i, j in lattice.covers())
    return lattice, [ids[i] for i in order], nodes, edges


def cmd_nc(args) -> int:
    dynkin, quiver = _lattice_args(args)
    fmt = _chosen_format(args)
    if fmt == "count":
        # the size of NC(W, c) needs no labels, order or covers
        count = len(_nc_lattice(dynkin, quiver))
        _emit(args.out, lambda write: write(f"{count}\n"))
        return 0
    lattice, ordered_ids, nodes, edges = _nc_lattice_data(dynkin, quiver)
    arguments = {
        "type": str(dynkin),
        "orientation": _orientation_echo(quiver),
        "format": fmt,
    }
    if fmt == "dot":
        _emit(args.out, lambda write: _write_dot(ordered_ids, edges, write))
    else:
        payload = {
            "element_count": len(lattice),
            "cover_count": len(edges),
            "elements": nodes,
            "covers": [list(e) for e in edges],
        }
        document = _document("nc", arguments, payload)
        _emit(args.out, lambda write: _write_json(document, write))
    return 0


# ---------------------------------------------------------------------------
# thick

def _wide_id(dims) -> str:
    return "{" + ";".join("(" + ",".join(map(str, d)) + ")" for d in dims) + "}"


def cmd_thick(args) -> int:
    dynkin, quiver = _lattice_args(args)
    field = GF(args.field)
    fmt = _chosen_format(args)
    arguments = {
        "type": str(dynkin),
        "orientation": _orientation_echo(quiver),
        "field": args.field,
        "format": fmt,
        "verify": bool(args.verify),
    }
    exit_code = 0
    report = None
    if args.verify:
        report = verify_bijection(quiver, field)
        if not report.ok:
            exit_code = 1
    masks = thick_masks(quiver, field)
    if fmt == "count":
        _emit(args.out, lambda write: write(f"{len(masks)}\n"))
        return exit_code
    # a subcategory's mask is the moved roots of its image in NC(W, c)
    lattice = quiver_lattice(quiver)
    if any(mask not in lattice.index for mask in masks):
        raise ValueError("an image is not below the Coxeter element")
    dims = {mask: sorted_dims(quiver, mask) for mask in masks}
    ids = {mask: _wide_id(d) for mask, d in dims.items()}
    order = sorted(masks, key=lambda mask: (mask.bit_count(), ids[mask]))
    if fmt == "dot":
        # inclusion corresponds to the order of NC(W, c), so the covers
        # are the lattice's, read through its masks
        if len(masks) != len(lattice):
            raise RuntimeError("subcategories do not map bijectively onto NC")
        elements = lattice.elements
        edges = sorted(
            (ids[elements[i]], ids[elements[j]]) for i, j in lattice.covers()
        )
        nodes = [ids[mask] for mask in order]
        _emit(args.out, lambda write: _write_dot(nodes, edges, write))
        return exit_code
    nc_ids = _nc_ids(lattice)
    subcats = [
        {
            "id": ids[mask],
            "dimension_vectors": [list(d) for d in dims[mask]],
            "nc_image": nc_ids[lattice.index[mask]],
        }
        for mask in order
    ]
    payload = {"thick_count": len(masks), "subcategories": subcats}
    if report is not None:
        payload["verification"] = {
            "thick_count": report.thick_count,
            "nc_count": report.nc_count,
            "is_bijective": report.is_bijective,
            "is_order_isomorphism": report.is_order_isomorphism,
            "ok": report.ok,
            "failures": list(report.failures),
        }
    document = _document("thick", arguments, payload)
    _emit(args.out, lambda write: _write_json(document, write))
    return exit_code


# ---------------------------------------------------------------------------
# specfn

def _parse_poset_file(path: str) -> FinitePoset:
    points: list[str] = []
    seen = set()
    relations = []

    def note(name: str, lineno: int) -> str:
        if not name or "<" in name or any(c.isspace() for c in name):
            raise ValueError(f"bad point name {name!r} on line {lineno}")
        if name not in seen:
            seen.add(name)
            points.append(name)
        return name

    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("point "):
                note(line[len("point "):].strip(), lineno)
                continue
            if "<" in line:
                left, right = line.split("<", 1)
                a = note(left.strip(), lineno)
                b = note(right.strip(), lineno)
                if a == b:
                    raise ValueError(f"point {a!r} below itself on line {lineno}")
                relations.append((a, b))
                continue
            raise ValueError(
                f"cannot parse line {lineno}: expected 'a<b' or 'point NAME'"
            )
    if not points:
        raise ValueError(f"poset file {path!r} declares no points")
    return FinitePoset.from_covers(tuple(points), tuple(relations))


def _parse_poset(spec: str) -> FinitePoset:
    if spec.startswith("@"):
        return _parse_poset_file(spec[1:])
    if spec == "point":
        return poset_point()
    if spec == "diamond":
        return poset_diamond()
    for prefix, builder in (("chain", poset_chain), ("antichain", poset_antichain)):
        if spec.startswith(prefix) and spec[len(prefix):].isdecimal():
            count = _past_cap(spec[len(prefix):], MAX_POSET_POINTS)
            if count:
                raise SizeGuardError(f"{count} poset points exceed the cap {MAX_POSET_POINTS}")
            n = int(spec[len(prefix):].lstrip("0") or "0")
            if n < 1:
                raise ValueError(f"poset {spec!r} needs at least one point")
            return builder(n)
    raise ValueError(
        f"unknown poset {spec!r}; use point, chainN, antichainN, diamond or @file"
    )


def _function_ranks(lattice, nc_ids):
    """The members' node identifiers, point=value pairs by point name,
    in sorted order; the member at each rank; and the rank of each
    member."""
    names = lattice.poset.elements
    ranked = sorted(range(len(names)), key=names.__getitem__)
    heads = [names[k] + "=" for k in ranked]
    ids = [
        ";".join([head + nc_ids[values[k]] for head, k in zip(heads, ranked)])
        for values in lattice.members
    ]
    n = len(ids)
    if len(set(ids)) != n:
        raise RuntimeError("node identifiers collide")
    order = sorted(range(n), key=ids.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    return [ids[i] for i in order], order, rank


def _ranked_covers(lattice, order, rank):
    """The covers as (rank of lower, rank of higher) pairs, in sorted
    order, read off the members' upper cover rows in rank order.  The
    ids are unique, so the ranks sort as the pairs of ids do."""
    upper = lattice.upper
    for r, i in enumerate(order):
        for s in sorted([rank[j] for j in upper[i]]):
            yield r, s


def cmd_specfn(args) -> int:
    dynkin, quiver = _lattice_args(args)
    poset = _parse_poset(args.poset)
    nc = _nc_lattice(dynkin, quiver)
    fmt = _chosen_format(args)
    if fmt == "count":
        # counted under the same size guard, without labels or covers
        count = smashing_count if args.mode == "monotone" else all_function_count
        total = count(poset, nc)
        _emit(args.out, lambda write: write(f"{total}\n"))
        return 0
    nc_ids = _nc_ids(nc)
    build = monotone_functions if args.mode == "monotone" else all_functions
    lattice = build(poset, nc)
    ids, order, rank = _function_ranks(lattice, nc_ids)
    covers = _ranked_covers(lattice, order, rank)
    if fmt == "dot":
        edges = ((ids[r], ids[s]) for r, s in covers)
        _emit(args.out, lambda write: _write_dot(ids, edges, write))
        return 0
    # each id, point name and value label is escaped once; the members
    # and covers go to the writer as the texts of their items
    quoted = [_escape(x) for x in ids]
    names = poset.elements
    ranked = sorted(range(len(names)), key=names.__getitem__)
    cells = [
        ["\n    " + _escape(names[k]) + ": " + _escape(label) for label in nc_ids]
        for k in ranked
    ]
    members = lattice.members

    def member(r: int) -> str:
        values = members[order[r]]
        return (
            '{\n  "id": ' + quoted[r] + ',\n  "values": {'
            + ",".join([cell[values[k]] for cell, k in zip(cells, ranked)])
            + "\n  }\n}"
        )

    arguments = {
        "type": str(dynkin),
        "orientation": _orientation_echo(quiver),
        "poset": args.poset,
        "mode": args.mode,
        "format": fmt,
    }
    payload = {
        "member_count": len(ids),
        "cover_count": sum(map(len, lattice.upper)),
        "points": list(names),
        "members": _EncodedList(map(member, range(len(ids)))),
        "covers": _EncodedList(
            "[\n  " + quoted[r] + ",\n  " + quoted[s] + "\n]" for r, s in covers
        ),
    }
    document = _document("specfn", arguments, payload)
    _emit(args.out, lambda write: _write_json(document, write))
    return 0


# ---------------------------------------------------------------------------
# figures

def _figure2_matches(functions, partitions) -> bool:
    """Whether the monotone functions, labeled by Figure 1 indices, have
    exactly FIGURE2's labeled nodes and covers."""
    label = [FIGURE1_NODES.index(p) for p in partitions]
    nodes = [tuple(label[v] for v in values) for values in functions.members]
    covers = {
        (nodes[i], nodes[j]) for i, row in enumerate(functions.upper) for j in row
    }
    reference = {(FIGURE2_NODES[i], FIGURE2_NODES[j]) for i, j in FIGURE2_COVERS}
    return set(nodes) == set(FIGURE2_NODES) and covers == reference


def cmd_figures(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    dynkin = DynkinType.parse("A2")
    quiver = default_orientation(dynkin)
    lattice, ordered_ids, nodes, edges = _nc_lattice_data(dynkin, quiver)

    partitions = [nc_to_set_partition(lattice.rs, e) for e in lattice.elements]
    figure1_nodes_match = set(partitions) == set(FIGURE1_NODES)
    computed_covers = {(partitions[i], partitions[j]) for i, j in lattice.covers()}
    figure1_covers_match = computed_covers == set(FIGURE1_COVERS)
    figure1_ok = figure1_nodes_match and figure1_covers_match

    figure1_doc = _document(
        "figures",
        {"figure": 1},
        {
            "element_count": len(lattice),
            "cover_count": len(edges),
            "elements": nodes,
            "covers": [list(e) for e in edges],
        },
    )

    nc_ids = _nc_ids(lattice)
    functions = monotone_functions(poset_chain(2), lattice)
    fn_ids, fn_order, fn_rank = _function_ranks(functions, nc_ids)
    fn_edges = [
        (fn_ids[r], fn_ids[s]) for r, s in _ranked_covers(functions, fn_order, fn_rank)
    ]
    # the labels index FIGURE1_NODES, so they are read only when it matches
    figure2_iso = figure1_nodes_match and _figure2_matches(functions, partitions)
    figure2_doc = _document(
        "figures",
        {"figure": 2},
        {
            "member_count": len(functions.members),
            "cover_count": len(fn_edges),
            "members": fn_ids,
            "covers": [list(e) for e in fn_edges],
        },
    )

    outputs = {
        "figure1.dot": lambda write: _write_dot(ordered_ids, edges, write),
        "figure1.json": lambda write: _write_json(figure1_doc, write),
        "figure2.dot": lambda write: _write_dot(fn_ids, fn_edges, write),
        "figure2.json": lambda write: _write_json(figure2_doc, write),
    }
    for name in sorted(outputs):
        _emit(os.path.join(args.outdir, name), outputs[name])

    summary = _document(
        "figures",
        {"outdir": args.outdir},
        {
            "files": sorted(outputs),
            "figure1_matches_reference": figure1_ok,
            "figure2_isomorphic_to_reference": figure2_iso,
        },
    )
    _emit(None, lambda write: _write_json(summary, write))
    return 0 if figure1_ok and figure2_iso else 1


# ---------------------------------------------------------------------------
# koszul

def _parse_module_spec(text: str, orientation: str | None):
    head, sep, tail = text.partition(":")
    tail = tail.strip()
    if not sep or not (tail.startswith("(") and tail.endswith(")")):
        raise ValueError(
            f"bad module {text!r}; expected like A2:(1,1)"
        )
    # a rank longer than the text cannot be its number of entries
    rank = _past_cap(head.strip()[1:], len(text))
    if rank:
        raise ValueError(f"dimension vector in {text!r} must have {rank} entries")
    dynkin = DynkinType.parse(head)
    try:
        dims = tuple(int(x) for x in tail[1:-1].split(","))
    except ValueError:
        raise ValueError(f"bad dimension vector in {text!r}") from None
    if len(dims) != dynkin.rank:
        raise ValueError(
            f"dimension vector in {text!r} must have {dynkin.rank} entries"
        )
    quiver = _parse_orientation(dynkin, orientation)
    if dims not in indecomposable_dims(quiver):
        raise ValueError(f"{dims!r} is not a positive root of {dynkin}")
    return dims, dynkin, quiver


def cmd_koszul(args) -> int:
    for noun, items in (("variables", args.vars), ("generators", args.gens)):
        count = len(items.split(","))
        if count > MAX_KOSZUL_INPUTS:
            raise SizeGuardError(f"{count} {noun} exceed the cap {MAX_KOSZUL_INPUTS}")
    variables = tuple(v.strip() for v in args.vars.split(","))
    ring = PolyRing(variables)
    gens, terms = [], 0
    for text in args.gens.split(","):
        gens.append(parse_polynomial(ring, text))
        terms += len(gens[-1].terms)
        if terms > MAX_TERMS:
            raise SizeGuardError(
                f"the first {len(gens)} generators have {terms} terms, "
                f"beyond the bound of {MAX_TERMS} terms"
            )
    coords, column = [], 1
    for text in args.at.split(","):
        coords.append(_parse_rational(text, column))
        column += len(text) + 1
    homology = koszul_homology(ring, gens, RationalPoint(coords))
    arguments = {
        "vars": ",".join(variables),
        "gens": args.gens,
        "at": ",".join(str(x) for x in coords),
    }
    payload = {
        "variables": list(variables),
        "generators": [str(g) for g in gens],
        "point": [str(x) for x in coords],
        "ranks": [[n, comb(len(gens), n)] for n in range(len(gens) + 1)],
        "homology": [[n, h] for n, h in enumerate(homology)],
    }
    if args.module is not None:
        dims, dynkin, quiver = _parse_module_spec(args.module, args.orientation)
        arguments["module"] = args.module
        payload["module"] = {
            "type": str(dynkin),
            "orientation": _orientation_echo(quiver),
            "dimension_vector": list(dims),
        }
        payload["module_homology"] = [
            [n, [h * dv for dv in dims]] for n, h in enumerate(homology)
        ]
    document = _document("koszul", arguments, payload)
    _emit(args.out, lambda write: _write_json(document, write))
    return 0


# ---------------------------------------------------------------------------
# entry point

def _add_common_lattice_flags(sub, with_field=False):
    sub.add_argument("--type", required=True, help="Dynkin type, like A3 or D4")
    sub.add_argument(
        "--orientation",
        default=None,
        help="arrow list like 1>2,2>3 (default: small label to large)",
    )
    if with_field:
        sub.add_argument(
            "--field", type=int, required=True, help="prime order of the field"
        )
    sub.add_argument(
        "--format", choices=("json", "dot", "count"), default="json"
    )
    sub.add_argument(
        "--count",
        action="store_true",
        help="shorthand for --format count",
    )
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thicklat",
        description=(
            "Exact computations with noncrossing partition lattices, wide "
            "subcategories of quiver representations, and lattices of "
            "monotone functions from finite posets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nc = sub.add_parser("nc", help="noncrossing partition lattice")
    _add_common_lattice_flags(p_nc)
    p_nc.set_defaults(handler=cmd_nc)

    p_thick = sub.add_parser(
        "thick", help="wide subcategories and the lattice bijection"
    )
    _add_common_lattice_flags(p_thick, with_field=True)
    p_thick.add_argument(
        "--verify",
        action="store_true",
        help="check the bijection onto the noncrossing partition lattice",
    )
    p_thick.set_defaults(handler=cmd_thick)

    p_spec = sub.add_parser(
        "specfn", help="lattices of functions from a finite poset"
    )
    _add_common_lattice_flags(p_spec)
    p_spec.add_argument(
        "--poset",
        required=True,
        help="point, chainN, antichainN, diamond, or @file",
    )
    p_spec.add_argument(
        "--mode", choices=("all", "monotone"), default="monotone"
    )
    p_spec.set_defaults(handler=cmd_specfn)

    p_fig = sub.add_parser("figures", help="write reference diagram files")
    p_fig.add_argument("--outdir", default=".", help="output directory")
    p_fig.set_defaults(handler=cmd_figures)

    p_kos = sub.add_parser("koszul", help="Koszul homology at a point")
    p_kos.add_argument(
        "--vars", required=True, help="comma separated variable names"
    )
    p_kos.add_argument(
        "--gens", required=True, help="comma separated polynomials"
    )
    p_kos.add_argument(
        "--at", required=True, help="comma separated rational coordinates"
    )
    p_kos.add_argument(
        "--module",
        default=None,
        help="tensor with a tree module, like A2:(1,1)",
    )
    p_kos.add_argument(
        "--orientation",
        default=None,
        help="orientation for the module's quiver",
    )
    p_kos.add_argument("--out", default=None, help="write output to this file")
    p_kos.set_defaults(handler=cmd_koszul)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ExponentBoundError, SizeGuardError, OSError) as exc:
        print(f"thicklat: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TreeModuleError) as exc:
        print(f"thicklat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
