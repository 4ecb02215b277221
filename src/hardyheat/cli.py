"""Command line interface.

Subcommands: constants, assemble, evolve, kernel, verify, sweep.  Global
flags: --out (store root; default $HARDYHEAT_OUT or ./hardyheat-runs),
--force, --threads, --seed.  Exit codes: 0 all good, 1 failed checks or a
violated invariant, 2 configuration/contract errors.

At module level only ``errors`` and ``threads``, which import no numpy, are
loaded; the rest comes after argument parsing, so that --threads can pin the
BLAS thread count through the environment before numpy loads.  The setting
is recorded in every report, and it also bounds the worker processes that
format and parse artifact CSV blocks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, ContractError, InvariantViolation, ParameterDomainError
from .threads import THREAD_VARS

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardyheat",
        description="Fractional Dirichlet heat flow with an inverse-power potential",
    )
    ap.add_argument("--out", default=None, help="run store root (default $HARDYHEAT_OUT or ./hardyheat-runs)")
    ap.add_argument("--force", action="store_true", help="ignore cached reports")
    ap.add_argument("--threads", type=int, default=None,
                    help="pin the BLAS/OpenMP thread count; also bounds the worker "
                         "processes that format or parse artifact CSV blocks")
    ap.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print A(d,alpha), c*, beta* (and beta(c)) as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", default=None, help='coupling, number or "F*cstar"')

    p = sub.add_parser("assemble", help="assemble an operator and write the CSV+JSON artifact")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--domain", required=True, help="a,b for d=1 or a1,b1,a2,b2 for d=2")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--c", default="0", help='coupling, number or "F*cstar"')
    p.add_argument("--k", type=float, default=None, help="potential truncation level")
    p.add_argument("--name", default=None, help="artifact base name (default: scenario hash)")

    p = sub.add_parser("evolve", help="run a scenario evolution, write per-time CSV states")
    p.add_argument("--scenario", required=True)

    p = sub.add_parser("kernel", help="write a heat-kernel matrix as CSV triples")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t", type=float, required=True, help="time in T_ref units")

    p = sub.add_parser("verify", help="run a check suite on a scenario")
    p.add_argument("--suite", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--report", default=None, help="also copy the report JSON here")

    p = sub.add_parser("sweep", help="verify a suite across many scenario files")
    p.add_argument("--suite", required=True)
    p.add_argument("--scenarios", nargs="+", required=True)
    return ap


def _apply_threads(n: int | None) -> None:
    if n is None:
        return
    if n < 1:
        print(f"error: --threads must be >= 1, got {n}", file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    if "numpy" in sys.modules:  # BLAS fixed its thread count when numpy loaded
        print(f"warning: --threads {n} comes after numpy was loaded; BLAS keeps its "
              "thread count, though reports record the setting", file=sys.stderr)


def _store_root(args) -> str:
    if args.out:
        return args.out
    return os.environ.get("HARDYHEAT_OUT", "./hardyheat-runs")


def _cmd_constants(args) -> int:
    from .scenario import parse_coupling
    from .specfun import FractionalParams, beta_of_c, hardy_constant, intensity_constant

    params = FractionalParams(d=args.d, alpha=args.alpha)
    out = {
        "d": params.d,
        "alpha": params.alpha,
        "intensity": intensity_constant(params),
        "c_star": hardy_constant(params),
        "beta_star": params.beta_star,
    }
    if args.c is not None:
        c = parse_coupling(args.c, params)
        out["c"] = c
        out["beta"] = beta_of_c(c, params)
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _cmd_assemble(args) -> int:
    from .grids import build_grid
    from .operators import assemble_operator, save_operator
    from .runstore import RunStore
    from .scenario import is_level, parse_coupling
    from .specfun import FractionalParams

    if args.k is not None and not is_level(args.k):
        raise ConfigError(f"--k must be a finite positive truncation level, got {args.k}")
    params = FractionalParams(d=args.d, alpha=args.alpha)
    try:
        vals = [float(v) for v in args.domain.split(",")]
    except ValueError:
        vals = []
    if len(vals) not in (2, 4):
        raise ConfigError(f"--domain must be 2 or 4 comma-separated numbers, got {args.domain!r}")
    domain = vals if len(vals) == 2 else [vals[0:2], vals[2:4]]
    grid = build_grid(domain, args.h)
    c = parse_coupling(args.c, params)
    op = assemble_operator(grid, params, c=c, k=args.k)
    store = RunStore(_store_root(args))
    name = args.name or f"op-d{args.d}-a{args.alpha:g}-h{args.h:g}-c{c:.6g}"
    csv_path, json_path = save_operator(op, store.path("operators", name))
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def _load_scenario_with_overrides(args, path: str):
    """The scenario at ``path`` with --seed applied."""
    import dataclasses

    from .scenario import is_seed, load_scenario

    if args.seed is not None and not is_seed(args.seed):
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    scn = load_scenario(path)
    if args.seed is not None:
        scn = dataclasses.replace(scn, seed=args.seed)
    return scn


def _cmd_evolve(args) -> int:
    from .estimators import t_ref
    from .evolution import evolve, minimal_solution
    from .grids import build_grid
    from .operators import assemble_operator, write_csv
    from .runstore import NUMERICS_EPOCH, RunStore, load_current, write_json
    from .scenario import build_u0

    scn = _load_scenario_with_overrides(args, args.scenario)
    store = RunStore(_store_root(args))
    outdir = store.path("trajectories", scn.run_id())
    report_path = os.path.join(outdir, "report.json")
    if not args.force and load_current(report_path) is not None:
        print(f"cached: {outdir}")
        return 0
    grid = build_grid(scn.domain_spec(), scn.h_levels[-1])
    u0 = build_u0(scn.u0_spec, grid)
    os.makedirs(outdir, exist_ok=True)
    op = assemble_operator(grid, scn.params, c=scn.c, k=None)
    times = scn.resolve_times(t_ref(op))
    if scn.c > 0.0:
        traj, rep = minimal_solution(op, u0, times, k_schedule=scn.k_schedule)
    else:
        traj = evolve(op, u0, times)
        rep = {"mode": "free", "converged": True, "converged_by": "no potential"}
    coords = grid.nodes.reshape(grid.n, -1).T
    head = ",".join(f"x{i + 1}" for i in range(grid.dim)) + ",u"
    for idx, state in enumerate(traj.states):
        write_csv(os.path.join(outdir, f"state_{idx:03d}.csv"), head, [(*coords, state)])
    rep_out = {
        "scenario": scn.to_dict(),
        "times": [float(t) for t in traj.times],
        "files": [f"state_{i:03d}.csv" for i in range(len(traj.times))],
        "report": rep,
        "numerics": NUMERICS_EPOCH,
    }
    write_json(report_path, rep_out)
    print(f"wrote {outdir}")
    return 0


def _cmd_kernel(args) -> int:
    from .estimators import t_ref
    from .evolution import heat_kernel
    from .grids import build_grid
    from .operators import assemble_operator, triangle_blocks, write_csv
    from .runstore import RunStore, write_json

    scn = _load_scenario_with_overrides(args, args.scenario)
    if not (0.0 < args.t < float("inf")):
        raise ContractError(f"kernel time must be positive and finite, got {args.t}")
    store = RunStore(_store_root(args))
    grid = build_grid(scn.domain_spec(), scn.h_levels[-1])
    op = assemble_operator(grid, scn.params, c=scn.c, k=None)
    t_abs = args.t * t_ref(op)
    ker = heat_kernel(op, t_abs)
    base = store.path("kernels", f"{scn.run_id()}-t{args.t:g}")
    sha = write_csv(base + ".csv", "i,j,value", triangle_blocks(ker.P))
    header = {
        "scenario": scn.to_dict(),
        "t_factor": args.t,
        "t_absolute": t_abs,
        "n": grid.n,
        "h": grid.h,
        "convention": "entries are exp(-tH)_ij / h^d (density)",
        "sha256": sha,
    }
    write_json(base + ".json", header)
    print(f"wrote {base}.csv")
    return 0


def _print_checks(report: dict) -> None:
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        measured = c["measured"]
        if isinstance(measured, float):
            measured = f"{measured:.6g}"
        print(f"[{status}] {c['name']}: measured={measured} expected={c['expected']} tol={c['tolerance']}")


def _cmd_verify(args) -> int:
    from .runstore import RunStore, write_json

    # the suite's rules are checked by run_suite, before anything is computed
    scn = _load_scenario_with_overrides(args, args.scenario)
    store = RunStore(_store_root(args))
    report, cached = store.run(scn, args.suite, force=args.force)
    if cached:
        print(f"(cached report {scn.run_id()})")
    _print_checks(report)
    n_fail = sum(1 for c in report["checks"] if not c["pass"])
    print(f"suite={args.suite} checks={len(report['checks'])} failures={n_fail}")
    if args.report:
        write_json(args.report, report)
    return 0 if report["passed"] else 1


def _cmd_sweep(args) -> int:
    from .runstore import RunStore

    store = RunStore(_store_root(args))
    worst = 0
    for path in args.scenarios:
        scn = _load_scenario_with_overrides(args, path)
        report, cached = store.run(scn, args.suite, force=args.force)
        n_fail = sum(1 for c in report["checks"] if not c["pass"])
        tag = "ok" if report["passed"] else f"{n_fail} FAILED"
        src = "cache" if cached else "run"
        print(f"{path}: {tag} ({len(report['checks'])} checks, {src})")
        if not report["passed"]:
            worst = 1
    return worst


_COMMANDS = {
    "constants": _cmd_constants,
    "assemble": _cmd_assemble,
    "evolve": _cmd_evolve,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _apply_threads(args.threads)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterDomainError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
