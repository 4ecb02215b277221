"""Scenario files: flat JSON descriptions of a parameter study.

A scenario is a single flat JSON object (no nesting beyond typed arrays),
hand-editable and diff-friendly.  Keys:

    d        int, 1 or 2                                   (required)
    alpha    float in (0, min(2, d))                       (required)
    c        float, or string "F" or "F*cstar", F a float  (required)
    domain   [a, b] for d=1, [a1, b1, a2, b2] for d=2      (required)
    h        list of grid spacings, coarse to fine         (required)
    u0       "ball:R" | "bump" | "bump:S" | "point" | "csv:PATH"  (required)
    times    list of floats, or strings "F*tref"           (required)
    times_unit  "tref" (default) or "absolute"
    k        list of truncation levels (default: automatic schedule)
    seed     non-negative int (default 0)
    inner_half_width  float (default half the inradius)
    t0_factor  float (default 0.1; blow-up probe time in T_ref units)

Unknown keys are rejected with a message listing them; missing required keys
are rejected naming the field, and every real must be a finite number.  Couplings written as fractions of the
critical value are resolved before any run, by the same rule as the CLI's
--c flag (``parse_coupling``).  A scenario file that cannot be read is a
ConfigError, as is one that does not parse.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .specfun import FractionalParams, hardy_constant

__all__ = [
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "build_u0",
    "parse_coupling",
]

_REQUIRED = ("d", "alpha", "c", "domain", "h", "u0", "times")
_OPTIONAL = {
    "times_unit": "tref",
    "k": None,
    "seed": 0,
    "inner_half_width": None,
    "t0_factor": 0.1,
}
_COUPLING_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*(\*\s*cstar\s*)?$")
_TREF_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*\*\s*tref\s*$")


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario; couplings resolved to absolute numbers."""

    d: int
    alpha: float
    c: float
    c_spec: str | float
    domain: tuple[float, ...]
    h_levels: tuple[float, ...]
    u0_spec: str
    time_factors: tuple[float, ...]
    times_unit: str
    k_schedule: tuple[float, ...] | None
    seed: int
    inner_half_width: float | None
    t0_factor: float

    @property
    def params(self) -> FractionalParams:
        return FractionalParams(d=self.d, alpha=self.alpha)

    def domain_spec(self):
        if self.d == 1:
            return list(self.domain)
        return [list(self.domain[0:2]), list(self.domain[2:4])]

    def resolve_times(self, tref: float) -> np.ndarray:
        if self.times_unit == "absolute":
            return np.array(self.time_factors)
        return np.array([f * tref for f in self.time_factors])

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "alpha": self.alpha,
            "c": self.c,
            "c_spec": self.c_spec,
            "domain": list(self.domain),
            "h": list(self.h_levels),
            "u0": self.u0_spec,
            "times": list(self.time_factors),
            "times_unit": self.times_unit,
            "k": None if self.k_schedule is None else list(self.k_schedule),
            "seed": self.seed,
            "inner_half_width": self.inner_half_width,
            "t0_factor": self.t0_factor,
        }

    def run_id(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _is_real(v) -> bool:
    """The one rule for a real-valued entry: a finite number.

    JSON true/false are bools, and bool is an int; Python's json also reads
    Infinity, NaN, 1e999 (inf) and integers past the float range.
    """
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def is_level(v) -> bool:
    """A truncation level is a finite positive number: the rule of ``k`` and of --k."""
    return _is_real(v) and v > 0


def is_seed(v) -> bool:
    """A seed is a non-negative integer, as numpy's generators take it: the rule of ``seed`` and of --seed."""
    return type(v) is int and v >= 0  # bool is an int subclass


def _type_error(key, want, got):
    return ConfigError(f"scenario key {key!r} must be {want}, got {got!r}")


def _factor(m) -> float | None:
    """F of a matched "F..." spec string; None without a match or when F is no finite float."""
    try:
        f = float(m.group(1)) if m else None
    except ValueError:
        return None
    return f if _is_real(f) else None


def parse_coupling(spec, params: FractionalParams) -> float:
    """Resolve a coupling: a number, or a string "F" or "F*cstar" (F times c*).

    The one coupling rule of scenario files and the command line.
    """
    if _is_real(spec):
        c = float(spec)
    else:
        m = _COUPLING_RE.match(spec) if isinstance(spec, str) else None
        f = _factor(m)
        if f is None:
            raise ConfigError(f"bad coupling 'c' = {spec!r}; use a number or \"F*cstar\"")
        c = f * hardy_constant(params) if m.group(2) else f
    if not (0.0 <= c < np.inf):
        raise ConfigError(f"coupling c must be >= 0 and finite, resolved to {c:g}")
    return c


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a flat JSON object")
    unknown = sorted(set(raw) - set(_REQUIRED) - set(_OPTIONAL))
    if unknown:
        raise ConfigError(f"unknown scenario keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing scenario key: {missing[0]!r}")

    d = raw["d"]
    if type(d) is not int or d not in (1, 2):  # bool is an int subclass
        raise _type_error("d", "1 or 2", d)
    alpha = raw["alpha"]
    if not _is_real(alpha) or not (0.0 < alpha < min(2, d)):
        raise _type_error("alpha", f"a number in (0, {min(2, d)})", alpha)
    c_spec = raw["c"]
    c = parse_coupling(c_spec, FractionalParams(d=d, alpha=float(alpha)))

    dom = raw["domain"]
    want_len = 2 * d
    if not isinstance(dom, list) or len(dom) != want_len or not all(
        _is_real(v) for v in dom
    ):
        raise _type_error("domain", f"a list of {want_len} finite numbers", dom)
    pairs = [(float(dom[2 * i]), float(dom[2 * i + 1])) for i in range(d)]
    for a, b in pairs:
        if not (a < 0.0 < b):
            raise ConfigError(f"domain must contain 0 strictly inside, got {dom}")

    hs = raw["h"]
    if _is_real(hs):
        hs = [hs]
    if not isinstance(hs, list) or not hs or not all(
        _is_real(v) and v > 0 for v in hs
    ):
        raise _type_error("h", "a list of finite positive spacings", raw["h"])
    hs = [float(v) for v in hs]
    if any(b <= a for a, b in zip(hs[1:], hs[:-1])):
        raise ConfigError(f"grid levels must go coarse to fine, got {hs}")

    u0_spec = raw["u0"]
    if not isinstance(u0_spec, str):
        raise _type_error("u0", "a string spec", u0_spec)
    _parse_u0(u0_spec)

    times_unit = raw.get("times_unit", _OPTIONAL["times_unit"])
    if times_unit not in ("tref", "absolute"):
        raise _type_error("times_unit", '"tref" or "absolute"', times_unit)
    tlist = raw["times"]
    if not isinstance(tlist, list) or not tlist:
        raise _type_error("times", "a nonempty list", tlist)
    factors = []
    for item in tlist:
        if _is_real(item):
            factors.append(float(item))
        elif isinstance(item, str):
            f = _factor(_TREF_RE.match(item))
            if f is None:
                raise _type_error("times", 'finite numbers or "F*tref" strings', item)
            if times_unit == "absolute":
                raise ConfigError('"F*tref" time entries require times_unit "tref"')
            factors.append(f)
        else:
            raise _type_error("times", 'finite numbers or "F*tref" strings', item)
    if any(f <= 0 for f in factors) or any(
        b <= a for a, b in zip(factors, factors[1:])
    ):
        raise ConfigError(f"times must be positive and strictly increasing, got {tlist}")

    ks = raw.get("k", _OPTIONAL["k"])
    if ks is not None:
        if not isinstance(ks, list) or not all(is_level(v) for v in ks):
            raise _type_error("k", "a list of finite positive levels", ks)
        ks = tuple(float(v) for v in ks)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ConfigError(f"k schedule must be strictly increasing, got {list(ks)}")

    seed = raw.get("seed", _OPTIONAL["seed"])
    if not is_seed(seed):
        raise _type_error("seed", "a non-negative integer", seed)
    ihw = raw.get("inner_half_width", _OPTIONAL["inner_half_width"])
    if ihw is not None and (not _is_real(ihw) or ihw <= 0):
        raise _type_error("inner_half_width", "a finite positive number", ihw)
    t0f = raw.get("t0_factor", _OPTIONAL["t0_factor"])
    if not _is_real(t0f) or t0f <= 0:
        raise _type_error("t0_factor", "a finite positive number", t0f)

    return Scenario(
        d=d,
        alpha=float(alpha),
        c=c,
        c_spec=c_spec,
        domain=tuple(v for p in pairs for v in p),
        h_levels=tuple(hs),
        u0_spec=u0_spec,
        time_factors=tuple(factors),
        times_unit=times_unit,
        k_schedule=ks,
        seed=seed,
        inner_half_width=None if ihw is None else float(ihw),
        t0_factor=float(t0f),
    )


def _parse_u0(spec: str) -> tuple[str, float | str | None]:
    """The one reading of a u0 spec: (kind, its radius, path or None), or ConfigError."""
    if spec == "point":
        return "point", None
    if spec == "bump":
        return "bump", 0.2
    for kind in ("ball", "bump"):
        if spec.startswith(kind + ":"):
            try:
                r = float(spec[len(kind) + 1:])
            except ValueError:
                raise ConfigError(f"bad u0 spec {spec!r}: radius is not a number") from None
            if not (_is_real(r) and r > 0):
                raise ConfigError(f"bad u0 spec {spec!r}: radius must be finite and positive")
            return kind, r
    if spec.startswith("csv:"):
        if not spec[4:]:
            raise ConfigError("u0 spec 'csv:' needs a file path")
        return "csv", spec[4:]
    raise ConfigError(
        f"unknown u0 spec {spec!r}; use 'ball:R', 'bump', 'bump:S', 'point' or 'csv:PATH'"
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"scenario file {path} is unreadable: {exc}")
    return scenario_from_dict(raw)


def build_u0(spec: str, grid) -> np.ndarray:
    """Materialize a u0 spec on a grid (unit height or unit cell mass).

    A csv file must hold one finite, nonnegative value per node, not all zero;
    anything else is a ConfigError here, before any operator is assembled.
    """
    kind, arg = _parse_u0(spec)
    r = grid.radii
    if kind == "ball":
        u0 = (r <= arg).astype(float)
        if not np.any(u0 > 0.0):
            raise ConfigError(f"u0 {spec!r} covers no grid cell at h = {grid.h:g}")
        return u0
    if kind == "bump":
        return np.exp(-0.5 * (r / arg) ** 2)
    if kind == "point":
        u0 = np.zeros(grid.n)
        u0[int(np.argmin(r))] = 1.0 / grid.cell_volume
        return u0
    try:
        vals = np.loadtxt(arg, delimiter=",", ndmin=1)
    except (OSError, ValueError) as exc:  # missing file or a non-number
        raise ConfigError(f"u0 csv {arg!r} is unreadable: {exc}") from None
    if vals.shape != (grid.n,):
        raise ConfigError(
            f"u0 csv {arg!r} must hold one value per line, one line per node: "
            f"read shape {vals.shape}, grid has {grid.n} nodes"
        )
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"u0 csv {arg!r} holds non-finite values")
    if np.any(vals < 0.0):
        raise ConfigError(f"u0 csv {arg!r} holds negative values, min = {float(np.min(vals)):.3e}")
    if not np.any(vals > 0.0):
        raise ConfigError(f"u0 csv {arg!r} holds no positive value")
    return vals.astype(float)
