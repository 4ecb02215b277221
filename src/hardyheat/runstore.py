"""Content-addressed persistence of scenario runs.

Layout under the store root:

    scenarios/<id>.json     the resolved scenario as submitted
    reports/<id>.<suite>.json   one report per (scenario, suite)
    operators/ trajectories/ kernels/   artifact directories for the CLI

where <id> is the first 16 hex digits of the sha256 of the canonical scenario
JSON.  Re-running an identical (scenario, suite) pair returns the stored
report unchanged unless forced, or unless the report was computed under a
different numerics epoch (its ``numerics`` field).  Reports carry no
timestamps, so a rerun with the same seed and thread count is bit-identical.
Reports are written to a temporary file and renamed into place, so a killed
run leaves the previous report or none, never a truncated one; a report that
does not parse is treated as missing.
"""

from __future__ import annotations

import json
import os

from .errors import ConfigError
from .scenario import Scenario

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
NUMERICS_EPOCH = 4


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


def write_json(path: str, obj) -> None:
    """Write ``obj`` as sorted, indented JSON atomically (temp file, then rename)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


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
        return load_current(self._report_path(scn, suite))

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
