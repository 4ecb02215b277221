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
NUMERICS_EPOCH = 2


def load_current(path: str) -> dict | None:
    """The JSON report at ``path``, or None if absent or from another epoch."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        report = json.load(fh)
    return report if report.get("numerics") == NUMERICS_EPOCH else None


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
        spath = self.path("scenarios", f"{scn.run_id()}.json")
        blob = json.dumps(scn.to_dict(), sort_keys=True, indent=2)
        with open(spath, "w") as fh:
            fh.write(blob + "\n")
        rpath = self._report_path(scn, suite)
        with open(rpath, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
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
