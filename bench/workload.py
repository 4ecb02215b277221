"""One iteration of one benchmark workload, run in a fresh interpreter.

run.py starts this script as a child process, one at a time:

    python3 bench/workload.py --workload NAME --seed N --threads N \
        --work DIR --result FILE [--trace] [--smoke]

The child imports the package from ``src/`` of the checkout before any clock
starts, drives the public CLI entry point ``hardyheat.cli.main`` against a
fresh store under ``DIR``, then checks every output against the pinned
references in ``bench/expected/`` and writes one JSON result to ``FILE``:
wall time (first to last CLI call), peak RSS, the operations with their
verdicts, a sha256 over every file the store holds and, with ``--trace``,
the span statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

_NUMPY_REPR = "np.float64("

# Grid spacings of the reduced-size smoke runs (run.py --smoke).
SMOKE_H = {
    "verify-1d-all": [0.04, 0.02, 0.01],
    "verify-2d-operator": [0.2, 0.1],
    "artifacts-1d": [0.015625],
}


class Context:
    """State of one iteration: the store, the CLI timing window and the operations."""

    def __init__(self, args):
        self.work = Path(args.work)
        self.out = self.work / "store"
        self.threads = str(args.threads)
        self.seed = str(args.seed)
        self.smoke = args.smoke
        self.ops: list[list] = []
        self.notes: list[str] = []
        self.first = None
        self.last = None
        raw = json.loads((BENCH / "scenarios" / f"{args.workload}.json").read_text())
        if self.smoke:
            raw["h"] = SMOKE_H[args.workload]
            self.scenario_path = self.work / "scenario.json"
            self.scenario_path.write_text(json.dumps(raw))
        else:
            self.scenario_path = BENCH / "scenarios" / f"{args.workload}.json"
        self.scenario = raw

    def cli(self, *argv: str) -> tuple[int, str]:
        """Call ``hardyheat.cli.main`` with the global flags; return (exit code, stdout)."""
        import hardyheat.cli

        full = ["--threads", self.threads, "--out", str(self.out), "--seed", self.seed, *argv]
        buf = io.StringIO()
        t0 = time.perf_counter()
        if self.first is None:
            self.first = t0
        try:
            with contextlib.redirect_stdout(buf):
                code = hardyheat.cli.main(full)
        except SystemExit as exc:  # argparse errors
            code = exc.code
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code = traceback.format_exc(limit=-1).strip()
        finally:
            self.last = time.perf_counter()
        return code, buf.getvalue()

    def op(self, name: str, ok: bool, detail=None) -> bool:
        self.ops.append([name, bool(ok), None if ok else repr(detail)[:300]])
        return bool(ok)


# ---------------------------------------------------------------------------
# comparison against pinned references
# ---------------------------------------------------------------------------

def close(measured, ref, rtol: float, atol: float) -> bool:
    """Structural comparison: numbers within rtol/atol, everything else exactly."""
    if isinstance(ref, bool) or isinstance(measured, bool):
        return type(measured) is type(ref) and measured == ref
    if isinstance(ref, (int, float)) and isinstance(measured, (int, float)):
        if not (math.isfinite(ref) and math.isfinite(measured)):
            return measured == ref
        return abs(measured - ref) <= atol + rtol * abs(ref)
    if isinstance(ref, list) and isinstance(measured, list):
        return len(ref) == len(measured) and all(
            close(m, r, rtol, atol) for m, r in zip(measured, ref))
    if isinstance(ref, dict) and isinstance(measured, dict):
        return ref.keys() == measured.keys() and all(
            close(measured[k], ref[k], rtol, atol) for k in ref)
    return measured == ref


def compare_values(ctx: Context, workload: str, values: dict) -> None:
    """One operation per pinned reference value (skipped in smoke runs)."""
    if ctx.smoke:
        return
    exp = json.loads((BENCH / "expected" / f"{workload}.json").read_text())
    tol = exp["tolerance"]
    ctx.op("value set matches references", values.keys() == exp["values"].keys(),
           sorted(set(values) ^ set(exp["values"])))
    for name, ref in exp["values"].items():
        if name not in values:
            continue
        ok = close(values[name], ref["value"], ref.get("rtol", tol["rtol"]), ref.get("atol", tol["atol"]))
        ctx.op(f"value {name}", ok, {"measured": values[name], "ref": ref["value"]})


def compare_checks(ctx: Context, workload: str, report: dict) -> None:
    """Pinned verdict and reference measured value of every check in a report."""
    if ctx.smoke:
        for c in report["checks"]:
            ctx.op(f"verdict {c['name']}", c["pass"], c["measured"])
        return
    exp = json.loads((BENCH / "expected" / f"{workload}.json").read_text())
    tol = exp["tolerance"]
    got = {c["name"]: c for c in report["checks"]}
    ctx.op("check set matches references", list(got) == list(exp["checks"]),
           sorted(set(got) ^ set(exp["checks"])))
    for name, ref in exp["checks"].items():
        c = got.get(name)
        if c is None:
            continue
        ctx.op(f"verdict {name}", c["pass"] is ref["pass"], c["pass"])
        ok = close(c["measured"], ref["measured"], ref.get("rtol", tol["rtol"]), ref.get("atol", tol["atol"]))
        ctx.op(f"value {name}", ok, {"measured": c["measured"], "ref": ref["measured"]})


# ---------------------------------------------------------------------------
# workloads: run() is timed, check() is not
# ---------------------------------------------------------------------------

def run_verify_1d_all(ctx: Context):
    scn = str(ctx.scenario_path)
    forced, cached = ctx.work / "forced.json", ctx.work / "cached.json"
    code, _ = ctx.cli("--force", "verify", "--suite", "all", "--scenario", scn, "--report", str(forced))
    ctx.op("verify --force exit code", code == 0, code)
    code, out = ctx.cli("verify", "--suite", "all", "--scenario", scn, "--report", str(cached))
    ctx.op("verify (cached) exit code", code == 0, code)
    ctx.op("second verify served from the cache", "(cached report" in out, out[:200])
    return forced, cached


def check_verify_1d_all(ctx: Context, state) -> None:
    forced, cached = state
    if not ctx.op("report written", forced.exists() and cached.exists()):
        return
    ctx.op("cached report equals the forced report", forced.read_bytes() == cached.read_bytes())
    compare_checks(ctx, "verify-1d-all", json.loads(forced.read_text()))


def run_verify_2d_operator(ctx: Context):
    forced = ctx.work / "forced.json"
    code, _ = ctx.cli("--force", "verify", "--suite", "operator",
                      "--scenario", str(ctx.scenario_path), "--report", str(forced))
    ctx.op("verify --force exit code", code == 0, code)
    return forced


def check_verify_2d_operator(ctx: Context, forced) -> None:
    if ctx.op("report written", forced.exists()):
        compare_checks(ctx, "verify-2d-operator", json.loads(forced.read_text()))


def run_artifacts_1d(ctx: Context):
    import hardyheat.operators

    s = ctx.scenario
    code, _ = ctx.cli("assemble", "--d", str(s["d"]), "--alpha", str(s["alpha"]),
                      "--domain=" + ",".join(str(v) for v in s["domain"]),
                      "--h", repr(s["h"][0]), "--c", s["c"], "--name", "op")
    ctx.op("assemble exit code", code == 0, code)
    loaded = None
    if code == 0:
        try:
            loaded = hardyheat.operators.load_operator(str(ctx.out / "operators" / "op"))
        except ValueError as exc:  # checksum, format or parse failure
            ctx.op("load_operator checksum and format", False, exc)
        else:
            ctx.op("load_operator checksum and format", True)
    scn = str(ctx.scenario_path)
    code, _ = ctx.cli("--force", "evolve", "--scenario", scn)
    ctx.op("evolve exit code", code == 0, code)
    code, _ = ctx.cli("--force", "kernel", "--t", "0.5", "--scenario", scn)
    ctx.op("kernel exit code", code == 0, code)
    return loaded


def _csv_last_column(ctx: Context, path: Path):
    """Header and value column of an i,j,value or x,u CSV."""
    import numpy as np

    lines = path.read_text().splitlines()
    cells = [r[r.rindex(",") + 1:] for r in lines[1:]]
    if cells and cells[0].startswith(_NUMPY_REPR):
        # The kernel writer formats numpy scalars with repr(), which numpy >= 2
        # spells np.float64(x). Reported, not failed: the numbers are what the
        # gate checks, and a fix must not read as a failure.
        ctx.notes.append(f"{path.name}: values written as np.float64(...), not plain floats")
        cells = [c[len(_NUMPY_REPR):-1] if c.startswith(_NUMPY_REPR) else c for c in cells]
    return lines[0], np.array([float(c) for c in cells])


def check_artifacts_1d(ctx: Context, loaded) -> None:
    import numpy as np

    from hardyheat.grids import build_grid
    from hardyheat.operators import assemble_operator
    from hardyheat.scenario import load_scenario

    values = {}
    scn = dataclasses.replace(load_scenario(str(ctx.scenario_path)), seed=int(ctx.seed))
    if loaded is not None:
        header, H = loaded
        op = assemble_operator(build_grid(scn.domain_spec(), scn.h_levels[0]), scn.params, c=scn.c)
        ctx.op("reloaded H equals the in-memory H bit for bit",
               H.shape == op.H.shape and np.array_equal(H, op.H))
        ctx.op("reloaded H is symmetric", np.array_equal(H, H.T))
        values.update({
            "operator.n": header["n"],
            "operator.c": header["c"],
            "operator.diag_sum": float(np.sum(np.diag(H))),
            "operator.offdiag_sum": float(np.sum(H) - np.sum(np.diag(H))),
        })
    traj = ctx.out / "trajectories" / scn.run_id()
    if ctx.op("evolve report written", (traj / "report.json").exists()):
        rep = json.loads((traj / "report.json").read_text())
        head, u = _csv_last_column(ctx, traj / rep["files"][-1])
        values.update({
            "evolve.times": rep["times"],
            "evolve.converged_by": rep["report"]["converged_by"],
            "evolve.probe_growth": rep["report"]["probe_growth"],
            "evolve.state_header": head,
            "evolve.final_mass": float(np.sum(u) * scn.h_levels[0]),
            "evolve.final_max": float(np.max(u)),
        })
    base = ctx.out / "kernels" / f"{scn.run_id()}-t0.5"
    kcsv, kjson = Path(f"{base}.csv"), Path(f"{base}.json")
    if ctx.op("kernel artifact written", kcsv.exists() and kjson.exists()):
        head, p = _csv_last_column(ctx, kcsv)
        kh = json.loads(kjson.read_text())
        n = kh["n"]
        i = np.arange(n)
        diag = p[i * n - i * (i - 1) // 2] if p.size == n * (n + 1) // 2 else p[:0]
        values.update({
            "kernel.header": head,
            "kernel.rows": int(p.size),
            "kernel.t_absolute": kh["t_absolute"],
            "kernel.min": float(np.min(p)),
            "kernel.max": float(np.max(p)),
            "kernel.sum": float(np.sum(p)),
            "kernel.trace": float(np.sum(diag)),
        })
    compare_values(ctx, "artifacts-1d", values)


WORKLOADS = {
    "verify-1d-all": (run_verify_1d_all, check_verify_1d_all),
    "verify-2d-operator": (run_verify_2d_operator, check_verify_2d_operator),
    "artifacts-1d": (run_artifacts_1d, check_artifacts_1d),
}


def store_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file of the store (relative path and bytes), and its total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return h.hexdigest(), total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    # The cold import every CLI call pays: setup_s, kept out of wall_s.
    t0 = time.perf_counter()
    import hardyheat.cli  # noqa: F401
    import hardyheat.suites  # noqa: F401
    setup = time.perf_counter() - t0
    import hardyheat.runstore  # noqa: F401
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    ctx = Context(args)
    run, check = WORKLOADS[args.workload]
    state = run(ctx)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = ctx.last - ctx.first
    # Taken before the checks, whose own package calls are not the workload's.
    spans = tracer.summary() if tracer is not None else None
    try:
        check(ctx, state)
    except Exception:  # malformed output: report it with the other operations
        ctx.op("outputs readable", False, traceback.format_exc(limit=-1).strip())
    digest, store_bytes = store_digest(ctx.out)
    result = {
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_kb": peak_kb,
        "ops": ctx.ops,
        "notes": ctx.notes,
        "digest": digest,
        "store_bytes": store_bytes,
    }
    if spans is not None:
        result["trace"] = dict(spans, window=[ctx.first, ctx.last])
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
