"""The thicklat benchmark.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # both, one report
    python3 perfbench/run.py --workload algebra --smoke --seconds 2
    python3 perfbench/run.py --record-digests

Run from anywhere; the repository root is the parent of this directory and
the program is taken from its src/.  Each workload is a closed loop with
one client: its operations run one at a time, each in a fresh interpreter,
which is what a command-line user pays (every in-process cache starts
cold).  Passes over the operations, in a seeded order, repeat until the
next operation would overrun --seconds, set-up samples included.

End-to-end metrics (--trace 0): wall_s and cpu_s are the time of one pass
as the sum of each operation's median over the run, peak_rss_mib the
largest operation median of ru_maxrss, and setup_s the median time of a
fresh interpreter that imports the CLI and builds its parser.  The report
also gives them for each group of operations (nc, specfn, thick,
rational), with the failed-operation ratio.

With --trace 1 traced and untraced passes alternate; the traced ones run
each operation under tracer.py and give the per-layer metrics, and the
untraced ones give the tracing overhead.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  A
record of the run, with its metadata and per-operation figures, is
written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.GROUPS)
GROUPS = tuple(g for groups in workloads.GROUPS.values() for g in groups)
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
OVERHEAD = "trace.overhead_s"
SETUP_REPS = 15
# Every operation must end this long after a run starts, so that a run
# exits well within three minutes even when the program hangs.
RUN_LIMIT_S = 170


def child_env() -> dict:
    """The inherited environment without Python or thicklat settings, plus
    a fixed hash seed and the source tree on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "THICKLAT_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """The small process that starts every operation; see launcher.py."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def run(self, argv: list[str], stdout_path: Path, timeout: int = RUN_LIMIT_S) -> dict:
        """Run one child to completion; wall time, rusage and exit status."""
        err_path = stdout_path.with_suffix(".err")
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(err_path),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        result = json.loads(line)
        result["stderr"] = err_path.read_text(errors="replace")[-400:]
        return result

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_op(op, op_id: int, traced: bool, launcher: Launcher, digests: dict,
           timeout: int = RUN_LIMIT_S) -> dict:
    stdout_path = OUT / f"op{op_id}.out"
    spans_path = OUT / f"op{op_id}.spans"
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                str(op_id), op.kind, *op.args]
    elif op.kind == "cli":
        argv = [sys.executable, "-m", "thicklat.cli", *op.args]
    else:
        argv = [sys.executable, str(HERE / "decompose.py"), *op.args]
    result = launcher.run(argv, stdout_path, timeout)
    result["key"] = op.key
    result["group"] = op.group
    error = None
    if result["timed_out"]:
        error = f"timed out after {timeout} s"
    elif result["exit"] != 0:
        error = f"exit status {result['exit']}: {result['stderr'].strip()}"
    else:
        data = stdout_path.read_bytes()
        try:
            error = op.check(data.decode())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
        if error is None and op.digested:
            want = digests.get(op.key)
            if want is None:
                error = "no recorded stdout digest"
            elif workloads.sha256(data) != want:
                error = "stdout differs from the recorded digest"
    result["error"] = error
    if traced and result["exit"] == 0:
        result["trace"] = tracer.summarize(str(spans_path))
    return result


def run_pass(ops, rng: random.Random, traced: bool, pass_no: int, launcher, digests,
             limit: float, deadline=None, times=None) -> dict:
    """Run every operation once, in a seeded order.  With a deadline, stop
    before an operation whose median time so far would overrun it; no
    operation runs past `limit`."""
    order = list(ops)
    rng.shuffle(order)
    results = []
    for k, op in enumerate(order):
        if deadline is not None and perf_counter() + statistics.median(times[op.key]) > deadline:
            break
        timeout = max(1, int(limit - perf_counter()))
        results.append(run_op(op, 1000 * pass_no + k, traced, launcher, digests, timeout))
    record = {
        "traced": traced,
        "complete": len(results) == len(ops),
        "wall_s": sum(r["wall_s"] for r in results),
        "failed": sum(1 for r in results if r["error"]),
        "ops": results,
    }
    if traced:
        record["layers"] = tracer.layer_metrics(
            [r["trace"] for r in results if "trace" in r])
    return record


def per_op(passes, field: str, group: str | None = None) -> dict:
    """Median of one figure per operation, over the given passes."""
    values: dict[str, list] = {}
    for p in passes:
        for op in p["ops"]:
            if group in (None, op["group"]):
                values.setdefault(op["key"], []).append(op[field])
    return {key: statistics.median(v) for key, v in values.items()}


def end_to_end(passes, group: str | None = None) -> dict:
    """Time and CPU of a pass as the sum of each operation's median, and
    peak memory as the largest operation median."""
    return {
        "wall_s": sum(per_op(passes, "wall_s", group).values()),
        "cpu_s": sum(per_op(passes, "cpu_s", group).values()),
        "peak_rss_mib": max(per_op(passes, "rss_mib", group).values()),
    }


def warm_bytecode(env: dict) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "thicklat"), str(HERE)],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )


def measure_setup(launcher: Launcher) -> list[float]:
    """Wall time of a fresh interpreter that imports the CLI, builds its
    parser and exits; one unmeasured warm-up, then SETUP_REPS samples."""
    argv = [sys.executable, "-c", "from thicklat.cli import build_parser; build_parser()"]
    times = []
    for rep in range(SETUP_REPS + 1):
        result = launcher.run(argv, OUT / "setup.out")
        if result["exit"] != 0:
            raise RuntimeError(f"importing thicklat.cli failed: {result['stderr'].strip()}")
        if rep:
            times.append(result["wall_s"])
    return times


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def tail_percentile(values: list[float]):
    """The highest percentile with at least ten samples above it, as
    (percentile, value), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def run_passes(ops, rng, deadline: float, limit: float, trace: bool, launcher,
               digests) -> list:
    """Passes until the next operation (untraced) or pass (traced) would
    overrun the deadline; traced and untraced passes alternate under
    tracing, and at least one of each kind runs."""
    passes = []
    times: dict[str, list] = {}
    while True:
        traced = trace and len(passes) % 2 == 0
        may_stop = len(passes) >= (2 if trace else 1)
        if trace and may_stop and perf_counter() + statistics.median(
                p["elapsed_s"] for p in passes) > deadline:
            break
        started = perf_counter()
        record = run_pass(ops, rng, traced, len(passes), launcher, digests, limit,
                          deadline if may_stop and not trace else None, times)
        record["elapsed_s"] = perf_counter() - started
        if record["ops"]:
            passes.append(record)
        for op in record["ops"]:
            times.setdefault(op["key"], []).append(op["wall_s"])
        if not record["complete"]:
            break
    return passes


def run_workload(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    meta = metadata()
    digests = workloads.load_digests()
    ops = workloads.ops_for(workload, seed, smoke, OUT)
    warm_bytecode(env)
    with Launcher(env) as launcher:
        start = perf_counter()
        setup = measure_setup(launcher)
        passes = run_passes(ops, random.Random(f"{workload}:{seed}"), start + seconds,
                            start + RUN_LIMIT_S, trace, launcher, digests)
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    metrics = {}
    problems = []
    if trace:
        for name in traced_passes[0]["layers"]:
            values = [p["layers"][name] for p in traced_passes]
            stat = name.rsplit(".", 1)[1]
            if tracer.UNITS[stat] == "count" and len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
            value = values[0] if tracer.UNITS[stat] == "count" else statistics.median(values)
            metrics[name] = {"value": value, "unit": tracer.UNITS[stat]}
        overhead = (sum(per_op(traced_passes, "wall_s").values())
                    - sum(per_op(plain, "wall_s").values()))
        metrics[OVERHEAD] = {"value": overhead, "unit": "s"}
    else:
        for name, value in end_to_end(plain).items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "metadata": meta, "setup_s": setup,
        "inputs": [op.properties for op in ops if op.properties],
        "passes": passes, "problems": problems,
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    name = f"{workload}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(record: dict) -> None:
    """Human-readable summary of one workload run."""
    w = record["workload"]
    meta = record["metadata"]
    print(f"== {w}  seed {record['seed']}  trace {record['trace']}  "
          f"python {meta['python']}  nproc {meta['nproc']}  cpu {meta['cpu_model']}  "
          f"load {meta['loadavg_at_start'][0]:.2f}  git {meta['git_sha']}")
    plain = [p for p in record["passes"] if not p["traced"]]
    print(f"{w}: {len(record['passes'])} passes ({len(plain)} untraced), "
          f"{record['attempted']} operations")
    for key, wall in per_op(plain, "wall_s").items():
        print(f"  op  {wall:8.3f} s  {key}")
    for p in record["passes"]:
        for op in p["ops"]:
            if op["error"]:
                print(f"  FAILED {op['key']}: {op['error']}")
    for problem in record["problems"]:
        print(f"  TRACE PROBLEM {problem}")
    missing = sorted({name for p in record["passes"] for op in p["ops"]
                      for name in op.get("trace", {}).get("missing", ())})
    if missing:
        print(f"  not traced, absent from the program: {', '.join(missing)}")
    for props in record["inputs"]:
        for k, item in enumerate(props):
            print(f"  input {k:2d}: summands {item['summands']}  total_dim {item['total_dim']}"
                  f"  dim_end {item['dim_end']}")
    for name, m in record["metrics"].items():
        print(f"{w}.{name} {m['value']:.6g} {m['unit']}")
    walls = [p["wall_s"] for p in plain if p["complete"]]
    tail = tail_percentile(walls)
    if tail is None:
        print(f"{w}.wall_s max {max(walls):.6g} s over n={len(walls)} whole passes "
              "(too few for a percentile with ten samples beyond it)")
    else:
        print(f"{w}.wall_s p{tail[0]:.0f} {tail[1]:.6g} s over n={len(walls)} whole passes")
    _failed_ratio(w, [op for p in record["passes"] for op in p["ops"]])
    setup = statistics.median(record["setup_s"])
    for group in workloads.GROUPS[w]:
        for name, value in end_to_end(plain, group).items():
            print(f"{group}.{name} {value:.6g} {END_TO_END[name]}")
        print(f"{group}.setup_s {setup:.6g} s")
        _failed_ratio(group, [op for p in record["passes"] for op in p["ops"]
                              if op["group"] == group])


def _failed_ratio(name: str, ops: list) -> None:
    failed = sum(1 for op in ops if op["error"])
    print(f"{name}.failed_ratio {failed / len(ops):.6g} ratio ({failed} of {len(ops)})")


def record_digests() -> int:
    """Run every fixed CLI invocation once and store its stdout digest;
    refuses if any output fails its closed-form check."""
    OUT.mkdir(parents=True, exist_ok=True)
    digests = {}
    with Launcher(child_env()) as launcher:
        for smoke in (False, True):
            for group in GROUPS:
                for op in workloads.cli_ops(group, smoke):
                    result = launcher.run([sys.executable, "-m", "thicklat.cli", *op.args],
                                          OUT / "digest.out")
                    data = (OUT / "digest.out").read_bytes()
                    error = op.check(data.decode()) if result["exit"] == 0 else result["stderr"]
                    if error:
                        print(f"{op.key}: {error}", file=sys.stderr)
                        return 1
                    digests[op.key] = workloads.sha256(data)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny variant of each workload, for the benchmark's tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the stdout digests of the fixed invocations")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thicklat" / "cli.py").is_file():
        print(f"error: no thicklat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_digests:
        return record_digests()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        report(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
