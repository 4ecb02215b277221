"""Content-addressed persistence of scenario runs.

Layout under the store root:

    scenarios/<id>.json     the resolved scenario as submitted
    reports/<id>.<suite>.json   one report per (scenario, suite)
    operators/ trajectories/ kernels/   artifact directories for the CLI

where <id> is the first 16 hex digits of the sha256 of the canonical scenario
JSON.  Re-running an identical (scenario, suite) pair returns the stored
report unchanged unless forced, or unless the report was computed under a
different numerics epoch (its ``numerics`` field) or thread setting (its
``threads`` field): the threaded BLAS inside the dense eigensolves moves
report values by roundoff with the thread count.  Reports carry no
timestamps, so a rerun with the same seed and thread count is bit-identical.
Reports are written to a temporary file and renamed into place, so a killed
run leaves the previous report or none, never a truncated one; a report that
does not parse is treated as missing.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress

from .errors import ConfigError
from .scenario import Scenario
from .threads import thread_setting

__all__ = ["RunStore", "NUMERICS_EPOCH", "load_current"]

_SUBDIRS = ("scenarios", "reports", "operators", "trajectories", "kernels")

# Raised whenever a change to the numerics may move report values, so that a
# store filled by older code is recomputed rather than served.
#   1  dense matrix exponential propagator (reports carry no stamp)
#   2  exponential action for trajectories, cached eigendecomposition for
#      kernels and the Duhamel check
#   3  closed-form assembly: 2-d killing term from incomplete beta values,
#      1-d exterior tail from Gauss hypergeometric values (no quadrature)
#   4  bottom eigenvalue (lambda_min, t_ref) by Lanczos from a positive start
#      vector instead of a dense eigvalsh
#   5  H is never stored: Lanczos acts through L0 v - W v, the weighted form is
#      g^T L0 g - sum f^2 w (L0 w), and the operator suite's weighted row mass
#      is the exponential action on w instead of a full kernel
#   6  matrix-free operator: J v by FFT of the jump-offset table, and the 1-d
#      table A h^-alpha k^(-1-alpha) exact in the offset k (no node differences)
#   7  matrix-free exponential action: a truncated Taylor series through
#      op.apply with the exact shift and 1-norm, instead of expm_multiply on
#      a dense -tH
#   8  constants from math.gamma instead of a Lanczos gamma, and beta(c) by
#      bisection to adjacent doubles instead of bisection plus secant polish
#   9  the blowup suite's signature checks report blowup_diagnostic's verdicts,
#      so a probe with a single truncation level fails probe_monotone_in_k
#  10  mirror-parity spectra: on an axis with a == -b the nodes are exact
#      mirror images and diag and kappa exactly even, and kernels and the
#      Duhamel check are solved in parity blocks of H, so values on such boxes
#      move by roundoff; boxes without one keep their bytes
#  11  parity blocks solved by numpy's LAPACK (?syevd) instead of scipy's, so
#      dense solves and products run on one BLAS; kernels and the Duhamel
#      check move by roundoff
#  12  kernels held as parity blocks and reduced by row slabs: kernel_symmetric
#      is the blocks' asymmetry and chapman_kolmogorov the lifted defect of
#      the block products, so both move by roundoff
#  13  bottom eigenvalue by a restarted Lanczos in numpy instead of ARPACK's
#      eigsh: lambda_min, t_ref and every value read at t_ref move by roundoff
#  14  2-d kappa and the 1-d exterior tail as numpy series, not scipy.special,
#      and Golub-Welsch nodes for the 2-d neighbour weights: 2-d values and
#      the 1-d weighted checks move by roundoff
NUMERICS_EPOCH = 14


def load_current(path: str) -> dict | None:
    """The JSON report at ``path``, or None if absent, unreadable or from
    another epoch."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (FileNotFoundError, ValueError):  # ValueError: not JSON (e.g. truncated)
        return None
    if isinstance(report, dict) and report.get("numerics") == NUMERICS_EPOCH:
        return report
    return None


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Yield ``<path>.<pid>.tmp`` open for writing and rename it onto ``path``; on any
    error it is removed, so ``path`` keeps its previous bytes (or stays absent)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    """Write ``obj`` as sorted, indented JSON through ``atomic_open``."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


class RunStore:
    def __init__(self, root: str):
        self.root = root
        for sub in _SUBDIRS:
            os.makedirs(os.path.join(root, sub), exist_ok=True)

    def path(self, sub: str, name: str) -> str:
        if sub not in _SUBDIRS:
            raise ConfigError(f"unknown store subdirectory {sub!r}")
        return os.path.join(self.root, sub, name)

    def _report_path(self, scn: Scenario, suite: str) -> str:
        return self.path("reports", f"{scn.run_id()}.{suite}.json")

    def cached_report(self, scn: Scenario, suite: str) -> dict | None:
        """The stored report, if it is of this epoch and was computed at the current thread setting."""
        report = load_current(self._report_path(scn, suite))
        if report is not None and report.get("threads") == thread_setting():
            return report
        return None

    def save_report(self, scn: Scenario, suite: str, report: dict) -> str:
        write_json(self.path("scenarios", f"{scn.run_id()}.json"), scn.to_dict())
        rpath = self._report_path(scn, suite)
        write_json(rpath, report)
        return rpath

    def run(self, scn: Scenario, suite: str, force: bool = False) -> tuple[dict, bool]:
        """Return (report, from_cache).  Executes the suite only on a miss."""
        if not force:
            cached = self.cached_report(scn, suite)
            if cached is not None:
                return cached, True
        from .suites import run_suite

        report = run_suite(scn, suite)
        report["numerics"] = NUMERICS_EPOCH
        self.save_report(scn, suite, report)
        return report, False
