"""Quantitative diagnostics built on top of kernels, trajectories and forms.

Everything here turns raw semigroup output into the handful of numbers the
check suites assert on: two-sided kernel comparisons against the ground-state
product, ultracontractive envelopes, local singularity exponents, integrability
scans across grid refinement, weighted mass bounds, sharp-constant probes for
the weighted Sobolev quotient, and the joint refinement/truncation blow-up
diagnostic for supercritical couplings.  Kernel estimators take the ground-state
weight w from the kernel's operator (``op.weight``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh  # noqa: F401  unused; bench/spans.py traces this name
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import ConfigError, ContractError
from .evolution import KernelMatrix, minimal_solution
from .grids import Grid, halves
from .operators import DiscreteOperator, FormEvaluator
from .specfun import coupling_regime, hardy_constant

__all__ = [
    "lambda_min",
    "t_ref",
    "kernel_sandwich",
    "ultracontractive_envelope",
    "critical_envelope_exponent",
    "singularity_exponent",
    "ExponentFit",
    "lp_scan",
    "weighted_l1_bound",
    "weighted_row_mass",
    "sobolev_quotient",
    "blowup_diagnostic",
    "BlowupReport",
]


def lambda_min(op: DiscreteOperator) -> float:
    """Smallest eigenvalue of H by one implicitly restarted Lanczos solve on
    ``op.apply``, so H itself is never formed.

    Every off-diagonal entry of H is -J < 0, so by Perron-Frobenius the bottom
    eigenvalue is simple with a positive eigenvector, and the all-ones start
    vector always overlaps it (truncated and supercritical operators too).  A
    fixed start also keeps the result independent of ARPACK's own random state,
    so reports stay byte-reproducible.
    """
    H = LinearOperator((op.n, op.n), matvec=op.apply, dtype=float)
    lam = eigsh(H, k=1, which="SA", v0=np.ones(op.n), tol=0.0, return_eigenvectors=False)
    return float(lam[0])


def t_ref(op: DiscreteOperator, lam_free: float | None = None) -> float:
    """Reference time 1/lambda_1(L0): the free ground-state relaxation time.

    ``lam_free`` is lambda_min(op.free) when the caller has solved it already.
    """
    lam = lambda_min(op.free) if lam_free is None else lam_free
    if lam <= 0.0:
        raise ContractError(f"free operator bottom eigenvalue must be > 0, got {lam}")
    return 1.0 / lam


# ---------------------------------------------------------------------------
# kernel comparisons
# ---------------------------------------------------------------------------

_ENVELOPE_DECADES = 1.5  # the t-span, in decades, that an envelope must cover


def _weighted_sups(kernels: list[KernelMatrix]) -> list[float]:
    """sup over the grid of p_t(x, y) / (w(x) w(y)) for each kernel, w = ``op.weight``,
    by row slabs of P."""
    w = kernels[0].operator.weight
    return [
        max(float(np.max(np.divide(P, np.multiply.outer(w[rows], w), out=P))) for rows, P in k.slabs())
        for k in kernels
    ]


def kernel_sandwich(kernels: list[KernelMatrix], inner_half_width: float | None = None) -> dict:
    """Two-sided comparison of p_t against w(x) w(y) on an inner box.

    The box is ``Grid.inner_box(inner_half_width)``: by default half the
    inradius, strictly inside the domain and holding at least 2 nodes.

    For each kernel the ratio field R = p_t / (w w) is reduced, a row slab of
    P at a time, to its min (the lower comparison constant at that t), max,
    and spread max/min.
    """
    if not kernels:
        raise ContractError("at least one kernel is required")
    op = kernels[0].operator
    mask = op.grid.inner_box(inner_half_width)
    w = op.weight
    per_t = []
    for ker in kernels:
        rmin, rmax = np.inf, -np.inf
        for rows, P in ker.slabs():
            inner = mask[rows]
            if np.any(inner):
                R = P[inner][:, mask] / np.multiply.outer(w[rows][inner], w[mask])
                rmin, rmax = min(rmin, float(np.min(R))), max(rmax, float(np.max(R)))
        per_t.append(
            {
                "ratio_min": rmin,
                "ratio_max": rmax,
                "spread": rmax / rmin if rmin > 0.0 else np.inf,
            }
        )
    return {
        "n_nodes": int(np.sum(mask)),
        "per_t": per_t,
        "spread_max": max(p["spread"] for p in per_t),
        "c_lower": min(p["ratio_min"] for p in per_t),
    }


def ultracontractive_envelope(kernels: list[KernelMatrix]) -> dict:
    """sup over the grid and over t of t^(d/alpha) * p_t(x,y) / (w(x) w(y)).

    The exponent d/alpha matches the short-time on-diagonal scale of the free
    kernel; finiteness of the envelope over a wide t-range is the
    quantitative upper-bound check.  The t-grid must span at least 1.5
    decades so that the envelope actually probes both time regimes.
    """
    if not kernels:
        raise ContractError("at least one kernel is required")
    t_all = [k.t for k in kernels]
    if max(t_all) < 10**_ENVELOPE_DECADES * min(t_all):
        raise ContractError(
            f"t-grid must span >= {_ENVELOPE_DECADES} decades, got [{min(t_all):g}, {max(t_all):g}]"
        )
    p = kernels[0].operator.params
    expn = p.d / p.alpha
    per_t = []
    for ker, sup in zip(kernels, _weighted_sups(kernels)):
        per_t.append({"t": ker.t, "value": sup * ker.t**expn})
    vals = [q["value"] for q in per_t]
    i_max = int(np.argmax(vals))
    return {
        "exponent": expn,
        "per_t": per_t,
        "envelope": vals[i_max],
        "t_at_max": per_t[i_max]["t"],
    }


def critical_envelope_exponent(kernels: list[KernelMatrix]) -> dict:
    """Fit sup_x,y p_t/(ww) ~ t^-gamma and compare with the critical cap.

    At the critical coupling the two-sided comparison only supports an
    envelope with exponent p/(p-1) where p = (1 + d/(d-alpha))/2, weaker than
    the subcritical d/alpha rate; the fitted gamma should not exceed the cap.
    """
    if len(kernels) < 3:
        raise ContractError("need at least 3 kernel times to fit an exponent")
    prm = kernels[0].operator.params
    p_crit = 0.5 * (1.0 + prm.d / (prm.d - prm.alpha))
    cap = p_crit / (p_crit - 1.0)
    ts = np.array([k.t for k in kernels])
    sups = np.array(_weighted_sups(kernels))
    small = ts <= np.median(ts)
    slope = float(np.polyfit(np.log(ts[small]), np.log(sups[small]), 1)[0])
    gamma_fit = -slope
    return {
        "gamma_fit": gamma_fit,
        "cap": cap,
        "p": p_crit,
        "within_cap": bool(gamma_fit <= cap + 0.1),
    }


# ---------------------------------------------------------------------------
# local exponent of a profile near the origin
# ---------------------------------------------------------------------------

@dataclass
class ExponentFit:
    slope: float
    stderr: float
    n_nodes: int
    verdict: bool | None = None


def singularity_exponent(u: np.ndarray, grid: Grid, target: float | None = None) -> ExponentFit:
    """Least-squares slope of log u against log |x| on a radial window.

    The window and its node count are ``Grid.slope_window``'s: (2h, 0.1 *
    half-width).  With a ``target`` the verdict checks
    |slope - target| <= max(0.05, 2 * stderr).
    """
    uv = np.asarray(u, dtype=float)
    if uv.shape != (grid.n,):
        raise ContractError(f"profile must have shape ({grid.n},), got {uv.shape}")
    mask = grid.slope_window()
    n_in = int(np.sum(mask))
    if np.any(uv[mask] <= 0.0):
        raise ContractError("profile must be strictly positive on the fit window")
    lx = np.log(grid.radii[mask])
    ly = np.log(uv[mask])
    coef, cov = np.polyfit(lx, ly, 1, cov=True)
    slope = float(coef[0])
    stderr = float(np.sqrt(cov[0, 0]))
    verdict = None
    if target is not None:
        verdict = bool(abs(slope - target) <= max(0.05, 2.0 * stderr))
    return ExponentFit(slope=slope, stderr=stderr, n_nodes=n_in, verdict=verdict)


# ---------------------------------------------------------------------------
# integrability scan across refinement
# ---------------------------------------------------------------------------

def lp_scan(profiles: list[tuple[Grid, np.ndarray]], p: float, beta: float) -> dict:
    """Classify sum |u|^p h^d across >= 3 halving refinements.

    For a |x|^-beta profile the discrete mass behaves like S_l = S_inf -
    const * h_l^(d - p beta) (convergent) or grows like h_l^(d - p beta)
    (divergent), so the increment ratio between consecutive halvings reveals
    the sign of d - p beta without knowing the constants.
    """
    if len(profiles) < 3:
        raise ContractError("integrability scan needs at least 3 refinement levels")
    if p < 1.0:
        raise ConfigError(f"p must be >= 1, got {p}")
    hs, sums = [], []
    for grid, u in profiles:
        uv = np.asarray(u, dtype=float)
        if uv.shape != (grid.n,):
            raise ContractError("profile shape does not match its grid")
        hs.append(grid.h)
        sums.append(float(grid.cell_volume * np.sum(np.abs(uv) ** p)))
    if not halves(hs):
        raise ContractError(f"grids must halve h between levels, got {hs}")
    inc = np.diff(sums)
    d_dim = profiles[0][0].dim
    expected = d_dim - p * beta
    if np.all(inc > 0.0):
        exps = np.log2(inc[:-1] / inc[1:])
        e_fit = float(np.mean(exps))
        if e_fit <= -0.02:
            cls = "DIVERGENT"
        elif e_fit >= 0.02:
            cls = "CONVERGENT"
        else:
            cls = "AMBIGUOUS"
    else:
        # increments shrink to roundoff or oscillate: no divergence signal
        e_fit = float("nan")
        cls = "CONVERGENT"
    return {
        "exponent_fit": e_fit,
        "expected_exponent": expected,
        "classification": cls,
    }


# ---------------------------------------------------------------------------
# weighted mass bounds
# ---------------------------------------------------------------------------

def weighted_row_mass(kernel: KernelMatrix) -> dict:
    """Excess of the kernel's action on w over w itself (sub-invariance gap).

    Reports eps = max_i ( (exp(-tH) w)_i / w_i - 1 ).  Nonpositive eps means
    w is an exact supersolution on the grid; a small positive eps shrinking
    under refinement is the discrete signature of the same bound.  P w is
    formed by row slabs of P.
    """
    op = kernel.operator
    w = op.weight
    ratios = np.concatenate([P @ w for _, P in kernel.slabs()]) * op.grid.cell_volume / w
    return {
        "eps": float(np.max(ratios) - 1.0),
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
    }


def weighted_l1_bound(kernel: KernelMatrix, u0_list: list[np.ndarray]) -> dict:
    """L2 norm of the evolved state against the weighted L1 size of the data.

    For each u0, ratio = ||exp(-tH) u0||_{L2,h} / ||u0||_{L1(w),h}.  All
    ratios are bounded by max(p_t/(ww)) * ||w||_{L2,h}, which is reported as
    the certificate; the point of the check is that concentrating u0 near the
    singularity does not break the bound.  Every P u0 is formed in one walk
    over the row slabs of P.
    """
    op = kernel.operator
    hd = op.grid.cell_volume
    w = op.weight
    (ratio_cap,) = _weighted_sups([kernel])
    w_l2 = float(np.sqrt(hd * np.sum(w**2)))
    bound = ratio_cap * w_l2
    u0s = [np.asarray(u0, dtype=float) for u0 in u0_list]
    parts = [[P @ uv for uv in u0s] for _, P in kernel.slabs()]
    ratios = []
    for uv, Pu in zip(u0s, zip(*parts)):
        ut = np.concatenate(Pu) * hd
        num = float(np.sqrt(hd * np.sum(ut**2)))
        den = float(hd * np.sum(np.abs(uv) * w))
        if den <= 0.0:
            raise ContractError("initial state has zero weighted L1 mass")
        ratios.append(num / den)
    return {
        "ratios": ratios,
        "bound": bound,
        "all_within": bool(max(ratios) <= bound * (1.0 + 1e-9)),
    }


# ---------------------------------------------------------------------------
# sharp-constant probe for the weighted Sobolev quotient
# ---------------------------------------------------------------------------

def sobolev_quotient(evaluator: FormEvaluator, p: float, seed: int = 0) -> dict:
    """max over test vectors of ||f^2||_{L^p(w^2)} / weighted_form(f).

    Test set: 50 interior-supported Gaussian vectors (fixed seed)
    plus near-singular profiles |x|^-gamma for 8 gammas from 0.1 to 0.95
    times the weight exponent.  Vectors whose form value vanishes at
    roundoff scale are flagged and skipped rather than producing an infinite
    quotient.
    """
    op = evaluator.op
    if p <= 1.0:
        raise ConfigError(f"quotient exponent p must exceed 1, got {p}")
    beta = op.beta
    grid = op.grid
    w2 = grid.radii ** (-2.0 * beta)
    hd = grid.cell_volume
    rng = np.random.default_rng(seed)
    interior = grid.face_distance >= 0.25 * grid.half_width
    samples: list[tuple[str, np.ndarray]] = []
    for i in range(50):
        f = np.zeros(grid.n)
        f[interior] = rng.standard_normal(int(np.sum(interior)))
        samples.append((f"random-{i}", f))
    for g in np.linspace(0.1 * beta, 0.95 * beta, 8):
        samples.append((f"profile-{g:.4f}", grid.radii ** (-float(g))))
    denoms = evaluator.weighted(np.column_stack([f for _, f in samples]))
    best = -np.inf
    best_label = None
    flagged = []
    quotients = []
    for (label, f), denom in zip(samples, denoms.tolist()):
        scale = hd * float(np.sum(f * f * w2))
        if denom <= 1e-12 * max(scale, 1e-300):
            flagged.append(label)
            continue
        num = (hd * float(np.sum((f * f) ** p * w2))) ** (1.0 / p)
        q = num / denom
        quotients.append(q)
        if q > best:
            best, best_label = q, label
    return {
        "n_samples": len(samples),
        "n_flagged": len(flagged),
        "flagged": flagged,
        "best_quotient": best,
        "best_label": best_label,
        "quotients_median": float(np.median(quotients)),
    }


# ---------------------------------------------------------------------------
# supercritical blow-up diagnostic
# ---------------------------------------------------------------------------

@dataclass
class BlowupReport:
    c_star: float
    lambda_mins: list[float]
    gaps: list[float]
    probe_k: list[float]
    probe_values: list[float]
    probe_growth: float
    mechanism_slope: float
    mechanism_expected: float
    lambda_decreasing: bool
    gaps_growing: bool
    probe_growing: bool

    @property
    def blow_up(self) -> bool:
        """All three signatures at once: the diagnostic's verdict."""
        return self.lambda_decreasing and self.gaps_growing and self.probe_growing


def blowup_diagnostic(
    ops: list[DiscreteOperator], u0: np.ndarray, t0: float, k_schedule=None
) -> BlowupReport:
    """Joint refinement/truncation probe of instantaneous mass loss for c > c*.

    ``ops`` are the untruncated operators of one coupling, coarse to fine;
    ``u0`` is the initial datum on the finest grid and ``t0`` the absolute
    probe time.  ContractError for fewer than 3 levels or levels that do not
    halve h (``grids.halves``); ConfigError unless ``coupling_regime`` calls
    their c supercritical.

    Three signatures are collected: (i) the bottom eigenvalue of H across
    halving grids must decrease with growing gaps (spectral collapse), (ii)
    the evolved value at the node nearest the origin must grow along the
    truncation schedule without saturating, and (iii) the discrete weighted
    mass sum over an inner ball, which for c > c* diverges logarithmically in
    1/h with slope equal to the sphere measure (2 in 1d, 2*pi in 2d) -- the
    coupling-independent fingerprint of the mechanism.  The probe is
    ``minimal_solution`` on the finest grid, so a probe value that falls as k
    grows raises InvariantViolation.  The report owns the verdicts of (i) and
    (ii), ``lambda_decreasing``, ``gaps_growing`` and ``probe_growing`` (which
    needs at least 2 truncation levels), and ``blow_up``, their conjunction.
    """
    if len(ops) < 3:
        raise ContractError("blow-up diagnostic needs at least 3 grid levels")
    hs = [lvl.grid.h for lvl in ops]
    if not halves(hs):
        raise ContractError(f"grids must halve h between levels, got {hs}")
    op = ops[-1]
    params, c = op.params, op.c
    c_star = hardy_constant(params)
    if coupling_regime(c, params) != "supercritical":
        raise ConfigError(
            f"blow-up diagnostic expects a supercritical coupling; got c={c:g}, "
            f"c*={c_star:g}"
        )
    beta_star = params.beta_star
    lam_mins, mech = [], []
    for lvl in ops:
        grid = lvl.grid
        lam_mins.append(lambda_min(lvl))
        r0 = 0.5 * grid.inradius
        ball = grid.radii <= r0
        mech.append(
            float(
                grid.cell_volume
                * np.sum(grid.radii[ball] ** (-2.0 * beta_star - params.alpha))
            )
        )
    gaps = [a - b for a, b in zip(lam_mins, lam_mins[1:])]
    slope = float(np.polyfit(np.log(1.0 / np.array(hs)), mech, 1)[0])
    expected = 2.0 if params.d == 1 else 2.0 * np.pi
    # probe along the truncation schedule on the finest grid
    _, probe = minimal_solution(op, u0, [t0], k_schedule)
    probes = probe["probe_values"]
    return BlowupReport(
        c_star=c_star,
        lambda_mins=lam_mins,
        gaps=gaps,
        probe_k=probe["k_levels"],
        probe_values=probes,
        probe_growth=probe["probe_growth"],
        mechanism_slope=slope,
        mechanism_expected=expected,
        lambda_decreasing=bool(np.all(np.diff(lam_mins) < 0.0)),
        gaps_growing=bool(np.all(np.diff(gaps) > 0.0)),  # >= 3 levels give >= 2 gaps
        # a single level (max V <= 1 on this grid) cannot show growth
        probe_growing=bool(len(probes) >= 2 and np.all(np.diff(probes) > 0.0)),
    )
