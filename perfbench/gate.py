"""The benchmark's output-correctness gate.

Every cell result is reduced to the simulated statistics a speed-only
change must leave identical (:data:`STAT_FIELDS`).  On the recorded seed
those are checked against the digests in ``perfbench/digests.json``; on
any seed, repeats must agree with each other and one cell per workload
must agree with the ``scalar`` reference engine.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

STAT_FIELDS = ("accesses", "refresh_commands", "rows_refreshed",
               "stall_ns", "cmrpo", "eto")


def cell_stats(result) -> dict:
    """The digest-relevant statistics of one ``SimulationResult``."""
    totals = result.totals
    return {
        "accesses": totals.accesses,
        "refresh_commands": totals.refresh_commands,
        "rows_refreshed": totals.rows_refreshed,
        "stall_ns": totals.stall_ns,
        "cmrpo": result.cmrpo,
        "eto": result.eto,
    }


def digest(stats: dict) -> str:
    """Stable 16-hex-digit digest of :func:`cell_stats` (exact floats)."""
    doc = {field: stats[field] for field in STAT_FIELDS}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    """The recorded ``{"seed": n, "workloads": {name: {label: hex}}}``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Gate:
    """Counts attempted and failed operations and keeps failure messages."""

    def __init__(self, workload: str, seed: int, digests: dict | None) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        recorded = digests or {}
        self._expected = (
            recorded.get("workloads", {}).get(workload)
            if recorded.get("seed") == seed else None
        )
        #: label -> digest of the first result seen for each cell
        self.seen: dict[str, str] = {}

    @property
    def checks_digests(self) -> bool:
        """True when this seed has recorded digests to compare against."""
        return self._expected is not None

    def op(self, ok: bool, message: str | None = None) -> bool:
        """Count one operation; a failed one keeps ``message``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message or "operation failed")
        return ok

    def cell(self, label: str, stats: dict) -> str | None:
        """Why one cell's statistics are wrong, or None when they are right.

        A label seen before must reproduce its first digest on any seed;
        on the recorded seed it must also match ``digests.json``.
        """
        got = digest(stats)
        first = self.seen.setdefault(label, got)
        if got != first:
            return (f"{label}: digest {got} differs from the first "
                    f"repeat's {first} ({stats})")
        if self._expected is not None and self._expected.get(label) != got:
            return (f"{label}: digest {got} != recorded "
                    f"{self._expected.get(label)} ({stats})")
        return None

    def missing_digests(self) -> list[str]:
        """Recorded labels this run never produced (a shrunken workload)."""
        if self._expected is None:
            return []
        return sorted(set(self._expected) - set(self.seen))
