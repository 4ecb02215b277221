"""Check suites: named, tolerance-tagged verdicts for one scenario.

Each suite turns a scenario into a report dict

    {"suite", "scenario", "checks": [{name, measured, expected, tolerance,
     pass}], "seed", "grid_levels", "passed"}

with no timestamps or environment echoes beyond the recorded thread count,
so reruns are bit-identical.  Suites assert structural invariants (symmetry,
positivity, monotonicity, shrink-under-refinement); the desk-scale tolerance
numbers mirror the package's acceptance tests.

Each suite lives here whole: its runner (``_RUNNERS``), its name in
``SUITES`` and its parse-time rules on a scenario (``validate_for_suite``).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, InvariantViolation
from .estimators import (
    _ENVELOPE_DECADES,
    blowup_diagnostic,
    critical_envelope_exponent,
    kernel_sandwich,
    lambda_min,
    lp_scan,
    singularity_exponent,
    sobolev_quotient,
    t_ref,
    ultracontractive_envelope,
    weighted_l1_bound,
    weighted_row_mass,
)
from .evolution import default_k_levels, duhamel_residual, evolve, heat_kernel, minimal_solution
from .grids import build_grid, halves
from .operators import DiscreteOperator, FormEvaluator, assemble_operator
from .scenario import Scenario, build_u0
from .specfun import beta_of_c, coupling_regime, hardy_constant, multiplier
from .threads import thread_setting

__all__ = ["run_suite", "validate_for_suite", "all_parts", "SUITES"]


def _check(name, measured, expected, tolerance, ok) -> dict:
    return {
        "name": name,
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


def run_suite(scn: Scenario, suite: str) -> dict:
    """Validate ``scn`` for ``suite``, run it and return the report.

    A scenario that breaks a rule of the suite (for 'all', of any part it
    runs) raises ConfigError before anything is assembled.  The parts of one
    call share a ``_Run``: the grids and u0 that validation built, each
    level's operator with its cached spectra, and each level's bottom
    eigenvalues, so that each level is assembled and each eigenproblem
    solved once per call.  Nothing of it outlives the call.
    """
    run = _Run(scn, suite)
    if suite == "all":
        checks = [
            dict(c, name=f"{part}.{c['name']}")
            for part in all_parts(scn)
            for c in _RUNNERS[part](scn, run)
        ]
    else:
        checks = _RUNNERS[suite](scn, run)
    return {
        "suite": suite,
        "scenario": scn.to_dict(),
        "checks": checks,
        "seed": scn.seed,
        "grid_levels": list(scn.h_levels),
        "threads": thread_setting(),
        "passed": all(c["pass"] for c in checks),
    }


class _Run:
    """What the parts of one ``run_suite`` call share.

    Grids and u0 come from the validation.  Each level's untruncated
    (k = None) operator is assembled the first time it is asked for and kept:
    it holds O(n) numbers, so ``lp`` reuses the levels that ``operator``
    built, ``blowup`` hands every level to the diagnostic, and ``kernel`` and
    ``sharp`` share the finest one with its cached H spectrum.  Bottom
    eigenvalues are kept per operator as scalars, so no level solves one
    twice; a reference time is 1/lambda of the free one.
    """

    def __init__(self, scn: Scenario, suite: str):
        grids, self._u0 = validate_for_suite(scn, suite)  # for 'all', also each part's rules
        self._grids = dict(zip(scn.h_levels, grids))
        self._scn = scn
        self._ops: dict[float, DiscreteOperator] = {}
        self._bottom: dict[tuple, float] = {}

    def operator(self, h: float):
        if h not in self._ops:
            self._ops[h] = assemble_operator(self._grids[h], self._scn.params, c=self._scn.c, k=None)
        return self._ops[h]

    def u0(self, grid) -> np.ndarray:
        return self._u0[grid.h]

    def lambda_min(self, op) -> float:
        key = (op.grid.h, op.c, op.k)
        if key not in self._bottom:
            self._bottom[key] = lambda_min(op)
        return self._bottom[key]

    def t_ref(self, op) -> float:
        return t_ref(op, self.lambda_min(op.free))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def _run_constants(scn: Scenario, run: _Run) -> list[dict]:
    p = scn.params
    c_star = hardy_constant(p)
    b_star = p.beta_star
    checks = []
    lam_star = multiplier(b_star, p)
    rel = abs(lam_star - c_star) / c_star
    checks.append(_check("critical_matches_multiplier", rel, 0.0, "rel 1e-10", rel <= 1e-10))
    betas = np.linspace(0.15, 0.85, 5) * (p.d - p.alpha)
    sym = max(
        abs(multiplier(b, p) - multiplier(p.d - p.alpha - b, p)) / c_star for b in betas
    )
    checks.append(_check("multiplier_symmetric", sym, 0.0, "rel 1e-10", sym <= 1e-10))
    off = max(multiplier(0.8 * b_star, p), multiplier(1.2 * b_star, p))
    checks.append(_check("multiplier_peak_at_center", off, f"< {c_star:.12g}", "strict", off < c_star))
    worst = 0.0
    for f in (0.2, 0.5, 0.8, 0.95, 1.0):
        c = f * c_star
        worst = max(worst, abs(multiplier(beta_of_c(c, p), p) - c) / c_star)
    checks.append(_check("beta_roundtrip", worst, 0.0, "rel 1e-10", worst <= 1e-10))
    return checks


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

def _harmonicity_defect(op) -> float:
    """RMS relative defect of L0 acting on op.weight over the probe band (1-d, as the tail)."""
    grid, beta = op.grid, op.beta
    target = multiplier(beta, op.params) * grid.radii ** (-beta - op.params.alpha)
    lhs = op.free.apply(op.weight)
    rhs = target + op.weighted_tail
    band = _probe_band(grid)
    rel = np.abs(lhs[band] - rhs[band]) / np.abs(rhs[band])
    return float(np.sqrt(np.mean(rel**2)))


def _jump_extremes(op) -> tuple[float, float]:
    """(max |J - J^T|, min J_ij with J_ii = 0), by blocks of rows: no n x n temporary.

    Each block of rows of J and the matching block of its columns are read
    from the table (``op.J``) on their own, so an offset error in reading it
    shows as asymmetry.
    """
    J, n, d = op.J, op.n, op.grid.dim
    asym, jmin = 0.0, np.inf
    for s in op.row_blocks():
        rows = J[s].reshape(-1, n)
        cols = J[(slice(None),) * d + (s,)].reshape(n, -1)
        asym = max(asym, float(np.max(np.abs(rows - cols.T))))
        jmin = min(jmin, float(np.min(rows)))
    return asym, jmin


def _probe_band(grid) -> np.ndarray:
    R = grid.inradius
    return (grid.radii >= 0.25 * R) & (grid.face_distance >= 0.25 * R)


def _interior_vectors(grid, seed: int, count: int) -> list[np.ndarray]:
    """Smooth seeded bumps supported on the probe band."""
    rng = np.random.default_rng(seed)
    band = _probe_band(grid)
    out = []
    r = grid.radii
    R = grid.inradius
    for _ in range(count):
        centre = rng.uniform(0.35 * R, 0.6 * R) * rng.choice([-1.0, 1.0])
        width = rng.uniform(0.05 * R, 0.12 * R)
        prof = np.exp(-0.5 * ((r - abs(centre)) / width) ** 2)
        f = np.where(band, prof, 0.0)
        if grid.dim == 1:
            side = grid.nodes * centre > 0
            f = np.where(side, f, 0.0)
        out.append(f)
    return out


def _run_operator(scn: Scenario, run: _Run) -> list[dict]:
    p = scn.params
    c_star = hardy_constant(p)
    checks = []
    ground_state = p.d == 1 and scn.c > 0.0 and coupling_regime(scn.c, p) != "supercritical"
    defects, gaps, epss = [], [], []
    for h in scn.h_levels:
        op = run.operator(h)
        grid = op.grid
        asym, jmin = _jump_extremes(op)
        checks.append(_check(f"jump_symmetric_h{h:g}", asym, 0.0, "exact", asym == 0.0))
        checks.append(_check(f"jump_nonnegative_h{h:g}", jmin, ">= 0", "exact", jmin >= 0.0))
        # L0 1 = kappa: the row sums of J cancel against the diagonal
        rowgap = float(np.max(np.abs(op.free.apply(np.ones(op.n)) - op.kappa) / op.kappa))
        checks.append(
            _check(f"rowsum_matches_killing_h{h:g}", rowgap, 0.0, "rel 1e-10", rowgap <= 1e-10)
        )
        if ground_state:
            defects.append(_harmonicity_defect(op))
            ev = FormEvaluator(op)
            vecs = _interior_vectors(grid, scn.seed, 3)
            w = op.weight
            forms = ev.weighted(np.column_stack(vecs)).tolist()
            gaps.append(
                max(abs(ev.hardy(w * f) - q) / max(1.0, abs(q)) for f, q in zip(vecs, forms))
            )
            # the row mass of exp(-tH) against w is its action on w: no kernel is formed
            (wt,) = evolve(op, w, [0.1 * run.t_ref(op)]).states
            epss.append(float(np.max(wt / w) - 1.0))
    # the loop ends on the finest grid, so op is the untruncated operator there
    lam_free = run.lambda_min(op.free)
    checks.append(_check("free_bottom_positive", lam_free, "> 0", "strict", lam_free > 0.0))
    if scn.c > 0.0:
        lam_c = run.lambda_min(op)
        checks.append(
            _check("potential_lowers_bottom", lam_c, f"< {lam_free:.6g}", "strict", lam_c < lam_free)
        )
        if scn.c <= 0.9 * c_star:
            checks.append(_check("hardy_bottom_positive", lam_c, "> 0", "strict", lam_c > 0.0))
    if len(defects) >= 2:
        ratios = [a / b for a, b in zip(defects, defects[1:])]
        checks.append(
            _check(
                "harmonicity_defect_shrinks",
                ratios,
                ">= 1.5 per halving",
                "factor 1.5",
                all(r >= 1.5 for r in ratios),
            )
        )
    if len(gaps) >= 2:
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        checks.append(
            _check(
                "weighted_identity_defect_shrinks",
                ratios,
                "<= 0.7 per halving",
                "factor 0.7",
                all(r <= 0.7 for r in ratios),
            )
        )
    if len(epss) >= 2:
        # the invariant is on the positive excess over row mass 1; a
        # negative eps means the grid operator is strictly sub-Markov there
        excess = [max(e, 0.0) for e in epss]
        checks.append(
            _check(
                "weighted_submarkov_excess_shrinks",
                epss,
                "positive part nonincreasing",
                "abs 1e-12",
                all(b <= a + 1e-12 for a, b in zip(excess, excess[1:])),
            )
        )
    return checks


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _extremes(ker) -> tuple[float, float]:
    """min and max of a kernel's P, by row slabs."""
    lo, hi = np.inf, -np.inf
    for _, P in ker.slabs():
        lo, hi = min(lo, float(np.min(P))), max(hi, float(np.max(P)))
    return lo, hi


def _run_kernel(scn: Scenario, run: _Run) -> list[dict]:
    op = run.operator(scn.h_levels[-1])
    grid = op.grid
    tr = run.t_ref(op)
    times = scn.resolve_times(tr)
    kernels = [heat_kernel(op, float(t)) for t in times]
    checks = []
    # every kernel stays in its parity blocks; P is reduced a row slab at a time
    extremes = [_extremes(k) for k in kernels]
    asym = max(k.asymmetry() / hi for k, (_, hi) in zip(kernels, extremes))
    checks.append(_check("kernel_symmetric", asym, 0.0, "rel 1e-10", asym <= 1e-10))
    kmin = min(lo for lo, _ in extremes)
    checks.append(_check("kernel_positive", kmin, "> 0", "strict", kmin > 0.0))
    if len(times) >= 2:
        t1, t2 = float(times[0]), float(times[1])
        rhs = heat_kernel(op, t1 + t2)
        _, scale = _extremes(rhs)
        # P(t1) P(t2) h^d - P(t1 + t2) is the lift of K_p(t1) K_p(t2) - K_p(t1 + t2):
        # formed block by block, in place, so that rhs then lifts to the defect
        for a, b, d in zip(kernels[0].blocks, kernels[1].blocks, rhs.blocks):
            np.subtract(a @ b, d, out=d)
        ck = max(float(np.max(np.abs(P))) for _, P in rhs.slabs()) / scale
        del rhs
        checks.append(_check("chapman_kolmogorov", ck, 0.0, "rel 1e-8", ck <= 1e-8))
    sand = kernel_sandwich(kernels, scn.inner_half_width)
    checks.append(
        _check("sandwich_lower_positive", sand["c_lower"], "> 0", "strict", sand["c_lower"] > 0.0)
    )
    checks.append(
        _check(
            "sandwich_spread_finite",
            sand["spread_max"],
            "finite",
            "isfinite",
            bool(np.isfinite(sand["spread_max"])),
        )
    )
    span = float(times[-1] / times[0])
    if span >= 10**_ENVELOPE_DECADES:
        env = ultracontractive_envelope(kernels)
        checks.append(
            _check(
                "envelope_finite",
                env["envelope"],
                "finite",
                "isfinite",
                bool(np.isfinite(env["envelope"])) and env["envelope"] > 0.0,
            )
        )
        if coupling_regime(scn.c, scn.params) == "critical" and len(kernels) >= 3:
            crit = critical_envelope_exponent(kernels)
            checks.append(
                _check(
                    "critical_exponent_within_cap",
                    crit["gamma_fit"],
                    f"<= {crit['cap']:.4g}",
                    "cap + 0.1",
                    crit["within_cap"],
                )
            )
    mid = kernels[len(kernels) // 2]
    if scn.c > 0.0:
        wrm = weighted_row_mass(mid)
        checks.append(
            _check("weighted_row_mass_eps", wrm["eps"], "<= 0.05", "abs 0.05", wrm["eps"] <= 0.05)
        )
    else:
        mass = max(float(np.max(np.sum(P, axis=1) * grid.cell_volume)) for _, P in mid.slabs())
        checks.append(
            _check("free_row_mass_submarkov", mass, "<= 1", "abs 1e-12", mass <= 1.0 + 1e-12)
        )
    R = grid.inradius
    radii = [0.2 * R, 0.1 * R, 0.05 * R, 4 * grid.h, 2 * grid.h]
    u0s = [(grid.radii <= r).astype(float) for r in radii if np.any(grid.radii <= r)]
    wl1 = weighted_l1_bound(mid, u0s)
    checks.append(
        _check(
            "weighted_l1_within_certificate",
            max(wl1["ratios"]),
            f"<= {wl1['bound']:.6g}",
            "certificate",
            wl1["all_within"],
        )
    )
    return checks


# ---------------------------------------------------------------------------
# sharp (singularity + sharp-constant checks, c <= c*)
# ---------------------------------------------------------------------------

def _run_sharp(scn: Scenario, run: _Run) -> list[dict]:
    p = scn.params
    op = run.operator(scn.h_levels[-1])
    grid = op.grid
    tr = run.t_ref(op)
    times = [float(t) for t in scn.resolve_times(tr)]
    if times[0] > 0.0:
        # the source-term residual check integrates from the start
        times = [0.0] + times
    u0 = run.u0(grid)
    checks = []
    try:
        traj, rep = minimal_solution(op, u0, times, k_schedule=scn.k_schedule)
        checks.append(_check("minimal_monotone", True, True, "-1e-12 floor", True))
        checks.append(
            _check("minimal_converged", rep["converged_by"], "saturation or tolerance", "-", rep["converged"])
        )
    except InvariantViolation as exc:
        checks.append(_check("minimal_monotone", str(exc), "monotone in k", "-1e-12 floor", False))
        return checks
    beta = op.beta
    fit = singularity_exponent(traj.states[-1], grid, target=-beta)
    checks.append(
        _check(
            "singularity_slope",
            fit.slope,
            -beta,
            f"max(0.05, 2*stderr={2 * fit.stderr:.2g})",
            bool(fit.verdict),
        )
    )
    critical = coupling_regime(scn.c, p) == "critical"
    p_exp = 0.5 * (1.0 + p.d / (p.d - p.alpha)) if critical else p.d / (p.d - p.alpha)
    ev = FormEvaluator(op)
    sq = sobolev_quotient(ev, p_exp, seed=scn.seed)
    checks.append(
        _check(
            "sobolev_quotient_finite",
            sq["best_quotient"],
            "finite",
            "isfinite",
            bool(np.isfinite(sq["best_quotient"])) and sq["n_flagged"] == 0,
        )
    )
    res65 = duhamel_residual(traj, n_quad=65)
    worst65 = max(res65.values())
    checks.append(_check("duhamel_residual_65", worst65, "<= 1e-3", "rel 1e-3", worst65 <= 1e-3))
    res129 = duhamel_residual(traj, n_quad=129)
    t_last = float(traj.times[-1])
    ratio = res129[t_last] / res65[t_last] if res65[t_last] > 0 else 0.0
    checks.append(
        _check("duhamel_residual_halves", ratio, "<= 0.6", "factor", ratio <= 0.6)
    )
    return checks


# ---------------------------------------------------------------------------
# lp (integrability thresholds across refinement)
# ---------------------------------------------------------------------------

def _run_lp(scn: Scenario, run: _Run) -> list[dict]:
    p = scn.params
    profiles = []
    for h in scn.h_levels:
        op = run.operator(h)
        times = scn.resolve_times(run.t_ref(op))
        traj = evolve(op, run.u0(op.grid), times)
        profiles.append((op.grid, traj.states[-1]))
    beta = op.beta
    thr = p.d / beta
    checks = []
    strict_cases = [
        ("lp_p1", 1.0, "CONVERGENT"),
        ("lp_far_above_threshold", 1.5 * thr, "DIVERGENT"),
    ]
    for name, pexp, want in strict_cases:
        scan = lp_scan(profiles, pexp, beta)
        checks.append(
            _check(
                name,
                scan["classification"],
                want,
                f"expected exponent {scan['expected_exponent']:+.3f}",
                scan["classification"] == want,
            )
        )
        if name == "lp_far_above_threshold" and scan["classification"] == "DIVERGENT":
            gap = abs(scan["exponent_fit"] - scan["expected_exponent"])
            checks.append(
                _check("lp_far_exponent_match", scan["exponent_fit"],
                       scan["expected_exponent"], "abs 0.15", gap <= 0.15)
            )
    # Exponents within 10 percent of the threshold d/beta sit below the
    # resolution floor: the mass increments there are driven by the finest
    # cells, whose effective decay rate differs from the target by a few
    # hundredths, and the large p multiplies that bias past the margin.
    # For those we check the scan against the profile's own measured decay
    # rate instead of asserting the limiting classification.
    fit = singularity_exponent(profiles[-1][1], profiles[-1][0])
    beta_eff = -fit.slope if fit.slope < 0.0 else beta
    for name, pexp in (
        ("lp_below_threshold_consistent", 0.9 * thr),
        ("lp_above_threshold_consistent", 1.1 * thr),
    ):
        scan = lp_scan(profiles, pexp, beta)
        eff_exp = p.d - pexp * beta_eff
        gap = abs(scan["exponent_fit"] - eff_exp)
        checks.append(
            _check(
                name,
                {"classification": scan["classification"],
                 "exponent_fit": scan["exponent_fit"]},
                f"exponent near {eff_exp:+.3f} from measured decay rate",
                "abs 0.3",
                gap <= 0.3,
            )
        )
    return checks


# ---------------------------------------------------------------------------
# blowup (c > c*)
# ---------------------------------------------------------------------------

def _run_blowup(scn: Scenario, run: _Run) -> list[dict]:
    ops = [run.operator(h) for h in scn.h_levels]
    finest = ops[-1]
    try:
        rep = blowup_diagnostic(
            ops, run.u0(finest.grid), scn.t0_factor * run.t_ref(finest), k_schedule=scn.k_schedule
        )
    except InvariantViolation as exc:  # the probe fell as k grew
        return [_check("probe_monotone_in_k", str(exc), "strictly increasing", "strict", False)]
    checks = [
        _check(
            "lambda_min_decreasing",
            rep.lambda_mins,
            "strictly decreasing",
            "strict",
            rep.lambda_decreasing,
        ),
        _check(
            "lambda_gaps_growing",
            rep.gaps,
            "growing",
            "strict",
            rep.gaps_growing,
        ),
        _check(
            "probe_monotone_in_k",
            rep.probe_values,
            "strictly increasing",
            "strict",
            rep.probe_growing,
        ),
        _check(
            "mechanism_slope_positive",
            rep.mechanism_slope,
            "> 0",
            "strict",
            rep.mechanism_slope > 0.0,
        ),
        _check(
            "mechanism_slope_matches",
            rep.mechanism_slope,
            rep.mechanism_expected,
            "rel 0.25",
            abs(rep.mechanism_slope - rep.mechanism_expected)
            <= 0.25 * rep.mechanism_expected,
        ),
        _check("verdict_blowup", rep.blow_up, True, "-", rep.blow_up),
    ]
    return checks


_RUNNERS = {
    "constants": _run_constants,
    "operator": _run_operator,
    "kernel": _run_kernel,
    "sharp": _run_sharp,
    "lp": _run_lp,
    "blowup": _run_blowup,
}
SUITES = (*_RUNNERS, "all")
_ALL_PARTS = ("constants", "operator", "kernel", "sharp", "lp")


def all_parts(scn: Scenario) -> tuple[str, ...]:
    """The suites that 'all' runs on ``scn``: lp only from 3 grid levels on."""
    return tuple(p for p in _ALL_PARTS if p != "lp" or len(scn.h_levels) >= 3)


def validate_for_suite(scn: Scenario, suite: str) -> tuple[list, dict]:
    """Every rule ``suite`` places on a scenario; 'all' adds those of its parts.

    Every grid level must build, whatever the suite, and u0 must build on
    every grid where the suite builds it.  Returns what it built, so that a
    run builds neither again: the grids, coarse to fine, and u0 keyed by the
    h of each grid it was built on.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    grids = [build_grid(scn.domain_spec(), h) for h in scn.h_levels]
    finest = grids[-1]
    supercritical = coupling_regime(scn.c, scn.params) == "supercritical"
    c_vs = f"c* ({hardy_constant(scn.params):.6g}), got c = {scn.c:.6g}"
    names = ("all", *all_parts(scn)) if suite == "all" else (suite,)
    u0s = {}
    for name in names:
        if name in ("sharp", "kernel", "lp", "all") and supercritical:
            raise ConfigError(f"suite {name!r} requires c <= {c_vs}")
        if name == "blowup" and not supercritical:
            raise ConfigError(f"suite 'blowup' requires c > {c_vs}")
        if name in ("sharp", "lp") and scn.c <= 0.0:
            raise ConfigError(f"suite {name!r} requires a positive coupling")
        levels = {"operator": 2, "lp": 3, "blowup": 3}.get(name, 1)
        if len(scn.h_levels) < levels:
            raise ConfigError(f"suite {name!r} needs at least {levels} grid levels")
        if name in ("lp", "blowup") and not halves(scn.h_levels):  # their estimators' rule
            raise ConfigError(
                f"suite {name!r}: grids must halve h between levels, got {list(scn.h_levels)}"
            )
        if name == "kernel":
            try:
                finest.inner_box(scn.inner_half_width)
            except ConfigError as exc:
                raise ConfigError(
                    f"suite 'kernel' compares kernels on the finest grid (h = {finest.h:g}): {exc}"
                ) from None
        if name in ("sharp", "lp"):  # both fit the profile slope on the finest grid
            try:
                finest.slope_window()
            except (ConfigError, ContractError) as exc:  # window empty or too few nodes
                raise ConfigError(
                    f"suite {name!r} fits a slope on the finest grid (h = {finest.h:g}): {exc}"
                ) from None
        if name == "blowup":  # the probe runs the truncation schedule on the finest grid
            vmax = float(np.max(finest.potential(scn.c, scn.params.alpha)))
            ks = default_k_levels(vmax) if scn.k_schedule is None else list(scn.k_schedule)
            if len({min(k, vmax) for k in ks}) < 2:
                raise ConfigError(
                    f"suite 'blowup': the truncation schedule {ks} gives fewer than 2 distinct "
                    f"potentials min(V, k) on the finest grid (h = {finest.h:g}, max V = "
                    f"{vmax:.6g}), so the probe cannot grow; refine h or list k levels below max V"
                )
        for grid in {"sharp": [finest], "blowup": [finest], "lp": grids}.get(name, []):
            if grid.h not in u0s:
                u0s[grid.h] = build_u0(scn.u0_spec, grid)
    return grids, u0s
