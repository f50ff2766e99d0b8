"""Workloads of the thicklat benchmark: the operations each one runs, the
seeded inputs of the library operation, and the oracle for every output.

Each operation runs in a fresh interpreter, as a command-line user would
run it.  Every output is checked against a closed form computed here and,
for the fixed CLI invocations, against the SHA-256 digest of its stdout
recorded in digests.json.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# The benchmark runs two workloads, each made of two groups of operations.
# Runs are long (see BENCHMARK.json) because on a shared host CPU speed can
# drift for a minute at a time; within a fixed total time for all runs,
# that length leaves room for two workloads, so the four groups share them.
# Every group is still reported apart.
GROUPS = {"lattice": ("nc", "specfn"), "algebra": ("thick", "rational")}
WHY = {
    "lattice": "nc and specfn groups: root_system NC order over linalg integer rank, spec_model covers, big JSON; no quiver or Koszul work",
    "algebra": "thick and rational groups: quiver_rep Hom/Ext and Krull-Schmidt over GF(p) and QQ, thick_enum closure, Koszul complexes",
}

KOSZUL8 = ",".join(f"x{i}" for i in range(1, 9))
# Three generators vanish at the point and two do not, so the complex is
# exact there while its differentials keep full rank work.
KOSZUL_MODULE = (
    "koszul --vars a,b,c,d,e "
    "--gens 2*a-1,3*b^2-1/3,c*d-3/2,a*e+b*c+1,d^2-a*c+1/16 "
    "--at 1/2,-1/3,2,3/4,-1 --module E6:(1,2,2,3,2,1)"
)
KOSZUL_MODULE_SMOKE = (
    "koszul --vars a,b,c --gens 2*a-1,b*c-1,a+b --at 1/2,1,1 --module A2:(1,1)"
)

# (summands, total dimension) of each decomposition input.  Decomposition
# cost grows steeply with total dimension, so the sizes are fixed and only
# the summands and base changes are drawn from the seed: every seed then
# sees the same mix of cheap and expensive inputs, the heavy tail included.
DECOMPOSE_SIZES = (
    (2, 8), (2, 10), (2, 12), (2, 14),
    (3, 9), (3, 12), (3, 14), (3, 15), (3, 16),
    (4, 12), (4, 14), (4, 15), (4, 17), (4, 18),
)
DECOMPOSE_SIZES_SMOKE = ((2, 4), (3, 6))


# ---------------------------------------------------------------------------
# closed forms, computed independently of thicklat

def _degrees(letter: str, rank: int) -> tuple[int, ...]:
    if letter == "A":
        return tuple(range(2, rank + 2))
    if letter == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
            8: (2, 8, 12, 14, 18, 20, 24, 30)}[rank]


def fuss_catalan(type_name: str, k: int = 1) -> int:
    """prod_i (k h + d_i) / d_i; k = 1 gives the Coxeter-Catalan number
    |NC(W, c)|, and k gives the monotone functions from a k-chain."""
    degrees = _degrees(type_name[0], int(type_name[1:]))
    h = max(degrees)
    value = Fraction(1)
    for d in degrees:
        value *= Fraction(k * h + d, d)
    return int(value)


def _dot_nodes(text: str) -> int:
    return sum(
        1 for line in text.splitlines()
        if line.startswith('  "') and "->" not in line
    )


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    """One invocation: `kind` is "cli" (args are thicklat CLI arguments) or
    "decompose" (args are the path of a seeded input file)."""

    key: str
    kind: str
    args: list
    check: object  # callable(stdout_text) -> error message or None
    group: str = ""
    properties: list = field(default_factory=list)

    @property
    def digested(self) -> bool:
        return self.kind == "cli"


def _cli(text: str, check) -> Op:
    return Op(key=text, kind="cli", args=text.split(), check=check)


def _payload(out: str) -> dict:
    return json.loads(out)["payload"]


def check_count(expected: int):
    def check(out):
        if out.strip() != str(expected):
            return f"count {out.strip()!r}, expected {expected}"
    return check


def check_dot(expected: int):
    def check(out):
        got = _dot_nodes(out)
        if got != expected:
            return f"{got} DOT nodes, expected {expected}"
    return check


def check_nc_json(expected: int):
    def check(out):
        p = _payload(out)
        if p["element_count"] != expected or len(p["elements"]) != expected:
            return f"{p['element_count']} elements, expected {expected}"
        if p["cover_count"] != len(p["covers"]):
            return "cover_count disagrees with the cover list"
    return check


def check_thick_verify(expected: int):
    def check(out):
        v = _payload(out)["verification"]
        if not (v["ok"] and v["thick_count"] == v["nc_count"] == expected):
            return f"verification {v}, expected ok with {expected} on both sides"
    return check


def check_members(expected: int | None):
    def check(out):
        p = _payload(out)
        if p["member_count"] != len(p["members"]):
            return "member_count disagrees with the member list"
        if p["cover_count"] != len(p["covers"]):
            return "cover_count disagrees with the cover list"
        if expected is not None and p["member_count"] != expected:
            return f"{p['member_count']} members, expected {expected}"
    return check


def check_koszul(nvars: int, vanish: bool, module_dim=None):
    """Koszul homology at a point is binom(n, i) in degree i when every
    generator vanishes there and zero otherwise; over a field, tensoring
    with a module multiplies it by the module's dimension vector."""
    def check(out):
        p = _payload(out)
        want = [[i, comb(nvars, i) if vanish else 0] for i in range(nvars + 1)]
        if p["homology"] != want:
            return f"homology {p['homology']}, expected {want}"
        if module_dim is not None:
            want_m = [[i, [h * d for d in module_dim]] for i, h in want]
            if p["module_homology"] != want_m:
                return f"module homology {p['module_homology']}, expected {want_m}"
    return check


def check_decompose(expected):
    def check(out):
        got = [[tuple(d) for d in dims] for dims in json.loads(out)]
        want = [list(dims) for dims in expected]
        if got != want:
            bad = sum(1 for g, w in zip(got, want) if g != w)
            return f"{bad} of {len(want)} decompositions differ from the summands"
    return check


def cli_ops(group: str, smoke: bool) -> list[Op]:
    """The fixed CLI invocations of a group, with their oracles."""
    ops = _cli_ops(group, smoke)
    for op in ops:
        op.group = group
    return ops


def _cli_ops(workload: str, smoke: bool) -> list[Op]:
    if workload == "nc":
        if smoke:
            return [
                _cli("nc --type A3", check_nc_json(fuss_catalan("A3"))),
                _cli("nc --type A3 --count", check_count(fuss_catalan("A3"))),
                _cli("nc --type A2 --format dot", check_dot(fuss_catalan("A2"))),
            ]
        return [
            _cli("nc --type D5", check_nc_json(fuss_catalan("D5"))),
            _cli("nc --type D5 --count", check_count(fuss_catalan("D5"))),
            _cli("nc --type A5 --format dot", check_dot(fuss_catalan("A5"))),
        ]
    if workload == "thick":
        if smoke:
            return [
                _cli("thick --type A3 --field 2 --count", check_count(fuss_catalan("A3"))),
                _cli("thick --type A3 --field 2 --verify", check_thick_verify(fuss_catalan("A3"))),
                _cli("thick --type A2 --field 3 --verify", check_thick_verify(fuss_catalan("A2"))),
                _cli("thick --type A2 --field 3 --format dot", check_dot(fuss_catalan("A2"))),
            ]
        return [
            _cli("thick --type E6 --field 2 --count", check_count(fuss_catalan("E6"))),
            _cli("thick --type D5 --field 2 --verify", check_thick_verify(fuss_catalan("D5"))),
            _cli("thick --type D4 --field 5 --verify", check_thick_verify(fuss_catalan("D4"))),
            _cli("thick --type D4 --field 3 --format dot", check_dot(fuss_catalan("D4"))),
        ]
    if workload == "specfn":
        # The diamond has no closed form here; its digest pins it.
        if smoke:
            return [
                _cli("specfn --type A2 --poset diamond", check_members(None)),
                _cli("specfn --type A2 --poset chain3 --count", check_count(fuss_catalan("A2", 3))),
                _cli("specfn --type A2 --poset antichain2 --mode all",
                     check_members(fuss_catalan("A2") ** 2)),
            ]
        return [
            _cli("specfn --type D4 --poset diamond", check_members(None)),
            _cli("specfn --type A4 --poset chain3 --count", check_count(fuss_catalan("A4", 3))),
            _cli("specfn --type A4 --poset antichain2 --mode all",
                 check_members(fuss_catalan("A4") ** 2)),
        ]
    if workload == "rational":
        if smoke:
            return [
                _cli("koszul --vars x,y,z --gens x,y,z --at 0,0,0", check_koszul(3, True)),
                _cli(KOSZUL_MODULE_SMOKE, check_koszul(3, False, (1, 1))),
            ]
        return [
            _cli(f"koszul --vars {KOSZUL8} --gens {KOSZUL8} --at {','.join('0' * 8)}",
                 check_koszul(8, True)),
            _cli(KOSZUL_MODULE, check_koszul(5, False, (1, 2, 2, 3, 2, 1))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# seeded decomposition inputs

def _unimodular(rng: random.Random, n: int):
    """A random integer matrix of determinant +-1 and its inverse, as a
    product of 2n elementary row operations."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in mat]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
        for row in inv:
            row[j] -= c * row[i]
    return mat, inv


def _mul(a, b, inner: int):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


def decompose_op(seed: int, smoke: bool, path: Path) -> Op:
    """Write the seeded decomposition inputs to `path` and return the
    operation that decomposes them.

    Each input is a direct sum of D5 tree modules under a random
    unimodular base change at every vertex, over the rationals.
    """
    from thicklat.linalg import QQ
    from thicklat.quiver_rep import (
        base_change, default_orientation, hom_dim, indecomposable_dims, tree_module,
    )
    from thicklat.root_system import DynkinType

    quiver = default_orientation(DynkinType.parse("D5"))
    roots = indecomposable_dims(quiver)
    rng = random.Random(f"decompose:{seed}")
    inputs, expected, properties = [], [], []
    for k, total in DECOMPOSE_SIZES_SMOKE if smoke else DECOMPOSE_SIZES:
        while True:
            summands = [rng.choice(roots) for _ in range(k)]
            if sum(map(sum, summands)) == total:
                break
        modules = [tree_module(quiver, d) for d in summands]
        dims = [sum(m.dim[v] for m in modules) for v in range(quiver.rank)]
        changes = [_unimodular(rng, d) for d in dims]
        maps = []
        for a, (s, t) in enumerate(quiver.arrows):
            block = [[0] * dims[s - 1] for _ in range(dims[t - 1])]
            row = col = 0
            for m in modules:
                for i, r in enumerate(m.maps[a]):
                    block[row + i][col:col + len(r)] = r
                row += m.dim[t - 1]
                col += m.dim[s - 1]
            b_t, _ = changes[t - 1]
            _, binv_s = changes[s - 1]
            maps.append(_mul(_mul(b_t, block, dims[t - 1]), binv_s, dims[s - 1]))
        inputs.append({"dim": dims, "maps": maps})
        expected.append(sorted(summands))
        reps = [base_change(m, QQ) for m in modules]
        end = sum(hom_dim(x, y) for x in reps for y in reps)
        properties.append({"summands": k, "total_dim": total, "dim_end": end})
    path.write_text(json.dumps({"type": "D5", "inputs": inputs}), encoding="utf-8")
    return Op(
        key="decompose", kind="decompose", args=[str(path)],
        check=check_decompose(expected), group="rational", properties=properties,
    )


def ops_for(workload: str, seed: int, smoke: bool, scratch: Path) -> list[Op]:
    ops = []
    for group in GROUPS[workload]:
        ops += cli_ops(group, smoke)
        if group == "rational":
            ops.append(decompose_op(seed, smoke, scratch / f"decompose-{seed}.json"))
    return ops


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
