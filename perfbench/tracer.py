"""Run one thicklat operation with timing wrappers around the public
functions of its layers, then write the spans to a file.

    python tracer.py SPANS_FILE OP_ID cli ARGS...
    python tracer.py SPANS_FILE OP_ID decompose INPUT_FILE

A span is (name, start, end, parent, operation id).  Spans are kept in
memory and written when the operation ends; `summarize` derives call
counts, inclusive time and self time from them.  Functions called
millions of times per operation are only counted, and per-element field
operations are not wrapped at all.  Operations run one at a time, so no
layer waits on a queue and the trace has no wait figures.
"""
from __future__ import annotations

import json
import sys
import weakref
from array import array
from time import perf_counter

# Functions wrapped in a span, by thicklat module.
SPANNED = {
    "linalg": ("int_mat_mul", "int_rank", "rref", "nullspace", "solve", "rank"),
    "root_system": ("enumerate_nc", "nc_leq", "NcLattice.covers", "NcLattice.join"),
    "quiver_rep": (
        "tree_module", "hom_basis", "ext_cocycle_basis", "kernel_rep",
        "cokernel_rep", "extension_middle", "morphism_from_coeffs", "decompose_dims",
    ),
    "thick_enum": ("enumerate_thick", "wide_to_nc", "simples_of", "verify_bijection"),
    "spec_model": ("monotone_functions", "all_functions"),
    "koszul": (
        "koszul_complex", "tensor", "evaluate", "homology_dims", "koszul_tensor_module",
    ),
    "cli": ("cmd_nc", "cmd_thick", "cmd_specfn", "cmd_koszul"),
}
# Called millions of times per operation: counted, not timed.
COUNTED = {"root_system": ("NcLattice.leq",), "koszul": ("Poly.__mul__",)}
# A lazy cache: the first call on each object does the work and is a span;
# later calls return the cached value and are only counted.
FIRST_CALL = {"root_system": ("NcLattice._masks",)}

# Per-layer metrics: (wrapped name, statistic).  "cli" sums the cli.cmd_*
# spans, whose self time is labelling, sorting and JSON/DOT encoding.
PER_LAYER = [
    ("linalg.int_mat_mul", "calls"), ("linalg.int_mat_mul", "s"),
    ("linalg.int_rank", "calls"), ("linalg.int_rank", "s"),
    ("linalg.rref", "calls"), ("linalg.rref", "s"),
    ("linalg.nullspace", "calls"), ("linalg.nullspace", "s"),
    ("linalg.solve", "calls"), ("linalg.solve", "s"),
    ("linalg.rank", "calls"), ("linalg.rank", "s"),
    ("root_system.enumerate_nc", "s"),
    ("root_system.nc_leq", "calls"), ("root_system.nc_leq", "s"),
    ("root_system.NcLattice._masks", "s"),
    ("root_system.NcLattice.covers", "s"),
    ("root_system.NcLattice.leq", "calls"),
    ("root_system.NcLattice.join", "calls"), ("root_system.NcLattice.join", "s"),
    ("quiver_rep.tree_module", "calls"), ("quiver_rep.tree_module", "s"),
    ("quiver_rep.hom_basis", "calls"), ("quiver_rep.hom_basis", "s"),
    ("quiver_rep.ext_cocycle_basis", "calls"), ("quiver_rep.ext_cocycle_basis", "s"),
    ("quiver_rep.kernel_rep", "calls"),
    ("quiver_rep.cokernel_rep", "calls"),
    ("quiver_rep.extension_middle", "calls"),
    ("quiver_rep.decompose_dims", "calls"), ("quiver_rep.decompose_dims", "self_s"),
    ("quiver_rep.decompose_dims", "split_yield"),
    ("quiver_rep.decompose_dims", "candidates"),
    ("thick_enum.enumerate_thick", "self_s"),
    ("thick_enum.wide_to_nc", "calls"), ("thick_enum.wide_to_nc", "s"),
    ("thick_enum.simples_of", "s"),
    ("thick_enum.verify_bijection", "self_s"),
    ("spec_model.monotone_functions", "self_s"),
    ("spec_model.all_functions", "s"),
    ("koszul.koszul_complex", "s"),
    ("koszul.tensor", "calls"), ("koszul.tensor", "s"),
    ("koszul.Poly.__mul__", "calls"),
    ("koszul.evaluate", "calls"), ("koszul.evaluate", "s"),
    ("koszul.homology_dims", "s"),
    ("koszul.koszul_tensor_module", "s"),
    ("cli", "self_s"),
]
UNITS = {"calls": "count", "candidates": "count", "s": "s", "self_s": "s",
         "split_yield": "ratio"}


def metric_name(name: str, stat: str) -> str:
    return f"{name}.{stat}"


class Trace:
    """Spans in parallel arrays, in start order, so a parent always comes
    before its children."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: list[int] = []

    def _id(self, name: str) -> int:
        self.names.append(name)
        self._active.append(0)
        self.counts.setdefault(name, 0)
        return len(self.names) - 1

    def spanned(self, fn, name: str):
        nid = self._id(name)
        stack, active = self._stack, self._active
        name_of, parent, outermost = self.name_of, self.parent, self.outermost
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(active[nid] == 0)
            end.append(0.0)
            stack.append(i)
            active[nid] += 1
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                active[nid] -= 1
                stack.pop()

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def first_call(self, fn, name: str):
        timed = self.spanned(fn, name)
        plain = self.counted(fn, name + ".cached")
        seen = weakref.WeakSet()

        def wrapper(obj, *args, **kwargs):
            if obj in seen:
                return plain(obj, *args, **kwargs)
            seen.add(obj)
            return timed(obj, *args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        header = {
            "op_id": self.op_id, "names": self.names, "counts": self.counts,
            "missing": self.missing, "spans": len(self.start),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.outermost, self.start, self.end):
                arr.tofile(handle)


def install(trace: Trace) -> None:
    """Wrap every listed function, rebinding it in each thicklat module
    that imported it by name, and on its class for methods."""
    import importlib

    import thicklat  # noqa: F401  (loads every layer)
    import thicklat.cli  # noqa: F401

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "thicklat" or n.startswith("thicklat."))]
    for table, make in ((SPANNED, trace.spanned), (COUNTED, trace.counted),
                        (FIRST_CALL, trace.first_call)):
        for mod_name, qualnames in table.items():
            module = importlib.import_module(f"thicklat.{mod_name}")
            for qualname in qualnames:
                name = f"{mod_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    trace.missing.append(name)
                    continue
                wrapped = make(original, name)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def read(path: str):
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "i", "b", "d", "d"):
            arr = array(code)
            arr.fromfile(handle, n)
            arrays.append(arr)
    return header, arrays


def summarize(path: str) -> dict:
    """Per wrapped name: calls, inclusive seconds of the outermost spans
    (so recursion is not counted twice) and self seconds (duration minus
    direct children).  Decomposition splits and candidates are counted
    from the spans' parent links."""
    header, (name_of, parent, outermost, start, end) = read(path)
    names = header["names"]
    stats = {name: {"calls": calls, "s": 0.0, "self_s": 0.0}
             for name, calls in header["counts"].items()}
    n = len(start)
    child = [0.0] * n
    dur = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    decompose = names.index("quiver_rep.decompose_dims") if "quiver_rep.decompose_dims" in names else -1
    candidate = names.index("quiver_rep.morphism_from_coeffs") if "quiver_rep.morphism_from_coeffs" in names else -1
    candidates = 0
    splitting = set()
    for i in range(n):
        entry = stats[names[name_of[i]]]
        entry["calls"] += 1
        entry["self_s"] += dur[i] - child[i]
        if outermost[i]:
            entry["s"] += dur[i]
        p = parent[i]
        if name_of[i] == candidate and p >= 0 and name_of[p] == decompose:
            candidates += 1
            splitting.add(p)
    entry = stats.setdefault("quiver_rep.decompose_dims", {"calls": 0, "s": 0.0, "self_s": 0.0})
    entry.update(candidates=candidates, splits=len(splitting))
    cli_spans = [v for k, v in stats.items() if k.startswith("cli.")]
    stats["cli"] = {
        "calls": sum(v["calls"] for v in cli_spans),
        "s": sum(v["s"] for v in cli_spans),
        "self_s": sum(v["self_s"] for v in cli_spans),
    }
    return {"op_id": header["op_id"], "missing": header["missing"],
            "spans": n, "stats": stats}


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics of one pass, summed over its operations."""
    total: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary["stats"].items():
            acc = total.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    out = {}
    for name, stat in PER_LAYER:
        entry = total.get(name, {})
        if stat == "split_yield":
            tried = entry.get("candidates", 0)
            value = entry.get("splits", 0) / tried if tried else 0.0
        else:
            value = entry.get(stat, 0)
        out[metric_name(name, stat)] = value
    return out


def main(argv: list[str]) -> int:
    spans_path, op_id, kind, args = argv[0], int(argv[1]), argv[2], argv[3:]
    trace = Trace(op_id)
    install(trace)
    try:
        if kind == "cli":
            import thicklat.cli
            return thicklat.cli.main(args)
        import decompose
        return decompose.main(args)
    finally:
        sys.stdout.flush()
        trace.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
