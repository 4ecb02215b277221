"""Benchmark of the hardyheat CLI on three pinned workloads.

    python3 bench/run.py --workload verify-1d-all --seed 0 --seconds 40 --trace 0
    python3 bench/run.py              # every workload in turn, one table each
    python3 bench/run.py --smoke

Closed loop, one client: every iteration is a fresh child interpreter
(bench/workload.py), started only after the previous one has exited, with
BLAS pinned to the number of CPUs this process may use.

``--trace 0`` measures the end-to-end metrics over as many iterations as
fit in ``--seconds`` (at least three); each metric is the median over the
iterations. Each child first times its cold import of ``hardyheat.cli`` and
``hardyheat.suites``, which every CLI call pays: that is setup_s, and it is
not part of wall_s. ``--trace 1`` measures the per-layer metrics: one untraced
iteration, two traced iterations, one with BLAS at one thread, then traced
and untraced iterations in turn while time remains. Per-layer times are
medians over the traced iterations; counts come from the first traced
iteration and must repeat exactly in every other.

Every iteration checks its outputs against bench/expected/ and compares the
sha256 of its store with the first iteration at the same thread count.
With ``--workload``, the last line of stdout is one JSON object: correct,
attempted, failed and the metrics named in BENCHMARK.json for the mode. ``--smoke`` runs each workload
once at reduced sizes, traced and untraced, and checks that every metric is
produced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-1d-all", "verify-2d-operator", "artifacts-1d")
MIN_ITERATIONS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A child could not produce a result; the run prints no metrics."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    # The same variables the CLI's --threads sets; here they are in place
    # before the child imports numpy, since it imports the package early.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Runner:
    """Starts children one at a time inside a scratch directory of the checkout."""

    def __init__(self, workload: str, seed: int, smoke: bool, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.threads = nproc()
        self.smoke = smoke
        self.scratch = scratch
        self.ops: list[list] = []
        self.digests: dict[int, str] = {}
        self.notes: set[str] = set()
        self.durations: list[float] = []

    def fits(self, deadline: float) -> bool:
        """Whether one more iteration, as long as the longest so far, ends by the deadline."""
        return time.monotonic() + max(self.durations, default=0.0) <= deadline

    def iteration(self, trace: bool = False, threads: int | None = None) -> dict:
        start = time.monotonic()
        threads = self.threads if threads is None else threads
        work = Path(tempfile.mkdtemp(prefix="it-", dir=self.scratch))
        result = work / "result.json"
        cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--threads", str(threads),
               "--work", str(work), "--result", str(result)]
        cmd += ["--trace"] * trace + ["--smoke"] * self.smoke
        try:
            proc = subprocess.run(cmd, env=child_env(threads), cwd=work, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0 or not result.exists():
                raise BenchError(f"{self.workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            res = json.loads(result.read_text())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.ops.extend(res["ops"])
        self.notes.update(res["notes"])
        self.durations.append(time.monotonic() - start)
        first = self.digests.setdefault(threads, res["digest"])
        self.ops.append([f"store sha256 repeats at {threads} threads", res["digest"] == first,
                         None if res["digest"] == first else res["digest"]])
        return res

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(r: Runner, seconds: float) -> dict:
    its = []
    deadline = time.monotonic() + seconds
    min_its = 1 if r.smoke else MIN_ITERATIONS
    while len(its) < min_its or r.fits(deadline):
        its.append(r.iteration())
    walls = [it["wall_s"] for it in its]
    setups = [it["setup_s"] for it in its]
    rss = [it["peak_rss_kb"] / 1024.0 for it in its]
    print(f"{r.workload}: {len(its)} iterations, store sha256 {its[0]['digest'][:16]}")
    print(f"  wall_s samples: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"  setup_s samples: {' '.join(f'{s:.3f}' for s in setups)}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _coverage(trace: dict) -> float:
    """Share of the CLI window covered by the union of the intervals of named work."""
    lo, hi = trace["window"]
    covered, end = 0.0, lo
    for t0, t1 in sorted(trace["named"]):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            covered += t1 - t0
            end = t1
    return covered / (hi - lo)


def layer_metrics(trace: dict) -> dict:
    """Every per-layer metric of one traced iteration, as name -> (value, unit)."""
    spans = trace["spans"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def distinct_ratio(name):
        calls = get(name, "calls")
        return get(name, "distinct") / calls if calls else 0.0

    def self_sum(prefix, exclude=()):
        return sum(v["self_s"] for k, v in spans.items()
                   if k.startswith(prefix) and k not in exclude)

    m = {}

    def calls(name):
        m[f"{name}.calls"] = (get(name, "calls"), "count")

    def incl(name):
        m[f"{name}.s"] = (get(name, "s"), "s")

    def self_(name):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")

    def ratio(name):
        m[f"{name}.distinct_ratio"] = (distinct_ratio(name), "ratio")

    incl("scenario.load_scenario")
    calls("grids.build_grid"), incl("grids.build_grid")
    m["specfun.self_s"] = (self_sum("specfun."), "s")
    calls("operators.assemble_operator"), self_("operators.assemble_operator")
    ratio("operators.assemble_operator")
    for name in ("operators.killing_term", "operators.exterior_power_tail"):
        calls(name), incl(name), ratio(name)
    calls("operators.with_truncation"), incl("operators.with_truncation")
    incl("operators.forms")
    for name in ("operators.save_operator", "operators.load_operator"):
        incl(name)
        m[f"{name}.bytes"] = (get(name, "bytes"), "bytes")
    for fn in ("evolve", "heat_kernel", "minimal_solution", "duhamel_residual"):
        calls(f"evolution.{fn}"), self_(f"evolution.{fn}")
    calls("estimators.t_ref"), incl("estimators.t_ref"), ratio("estimators.t_ref")
    calls("estimators.lambda_min"), incl("estimators.lambda_min")
    m["estimators.diagnostics.self_s"] = (
        self_sum("estimators.", exclude=("estimators.t_ref", "estimators.lambda_min")), "s")
    for suite in ("constants", "operator", "kernel", "sharp", "lp"):
        self_(f"suites.{suite}")
    incl("runstore.save_report"), incl("runstore.cached_report")
    runs = get("runstore.run", "calls")
    m["runstore.hit_ratio"] = (get("runstore.run", "hits") / runs if runs else 0.0, "ratio")
    self_("cli.main"), incl("cli.writers")
    m["cli.artifact_bytes"] = (trace["store_bytes"], "bytes")
    for k in ("expm", "eigh"):
        calls(f"kernel.{k}"), incl(f"kernel.{k}")
        m[f"kernel.{k}.n3"] = (get(f"kernel.{k}", "n3"), "n3")
    calls("kernel.quad"), incl("kernel.quad")
    m["kernel.s"] = (sum(get(f"kernel.{k}", "s") for k in ("expm", "eigh", "quad")), "s")
    m["trace.coverage"] = (_coverage(trace), "ratio")
    return m


def traced(r: Runner, seconds: float) -> dict:
    deadline = time.monotonic() + seconds
    plain = [r.iteration()]
    runs = [r.iteration(trace=True) for _ in range(MIN_TRACED)]
    single = r.iteration(threads=1)
    while not r.smoke and r.fits(deadline):
        trace = len(runs) <= len(plain)
        (runs if trace else plain).append(r.iteration(trace=trace))
    per_run = []
    for it in runs:
        it["trace"]["store_bytes"] = it["store_bytes"]
        per_run.append(layer_metrics(it["trace"]))
    counts = {k: v for k, (v, unit) in per_run[0].items() if unit in ("count", "bytes", "n3")}
    for other in per_run[1:]:
        same = all(other[k][0] == v for k, v in counts.items())
        r.ops.append(["trace counts repeat", same, None])
    m = {k: (v if k in counts else statistics.median(p[k][0] for p in per_run), unit)
         for k, (v, unit) in per_run[0].items()}
    traced_wall = statistics.median(it["wall_s"] for it in runs)
    plain_wall = statistics.median(it["wall_s"] for it in plain)
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["blas.threads1_wall_s"] = (single["wall_s"], "s")
    print(f"{r.workload}: {len(runs)} traced, {len(plain)} untraced iterations, "
          f"traced wall {traced_wall:.3f} s, untraced {plain_wall:.3f} s, "
          f"--threads 1 wall {single['wall_s']:.3f} s")
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": nproc(),
        "threads": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def declared(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            scratch: Path) -> tuple[Runner, dict]:
    r = Runner(workload, seed, smoke, scratch)
    metrics = traced(r, seconds) if trace else end_to_end(r, seconds)
    return r, metrics


def print_table(workload: str, metrics: dict, r: Runner) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {workload} {name} = {value:.6g} {unit}")
    frac = r.failed / len(r.ops)
    print(f"  {workload} check_fail_frac = {frac:.6g} ({r.failed} of {len(r.ops)} operations failed)")
    for note in sorted(r.notes):
        print(f"  note: {note}")
    for name, _, detail in [op for op in r.ops if not op[1]][:20]:
        print(f"  FAILED {name}: {detail}")


def smoke(scratch: Path) -> int:
    want = {m["name"] for m in declared("end_to_end")} | {m["name"] for m in declared("per_layer")}
    bad = 0
    for w in WORKLOADS:
        got = {}
        for trace in (False, True):
            r, metrics = measure(w, 0, 0, trace, True, scratch)
            print_table(w, metrics, r)
            bad += r.failed
            got.update(metrics)
        missing = sorted(want - set(got))
        nonfinite = sorted(k for k, (v, _) in got.items() if not math.isfinite(v))
        if missing or nonfinite:
            print(f"{w}: missing metrics {missing}, non-finite {nonfinite}")
            bad += 1
    print("smoke: OK" if bad == 0 else f"smoke: {bad} problems")
    return 0 if bad == 0 else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, every workload once")
    args = ap.parse_args()
    if not (ROOT / "src" / "hardyheat" / "__init__.py").is_file():
        print(f"error: no hardyheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env:", json.dumps(environment(), sort_keys=True))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        if args.smoke:
            return smoke(scratch)
        results = [(w, *measure(w, args.seed, args.seconds, bool(args.trace), False, scratch))
                   for w in ([args.workload] if args.workload else WORKLOADS)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    for w, r, metrics in results:
        print_table(w, metrics, r)
    if not args.workload:
        return 0
    names = [m["name"] for m in declared("per_layer" if args.trace else "end_to_end")]
    print(json.dumps({
        "correct": r.failed == 0,
        "attempted": len(r.ops),
        "failed": r.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
