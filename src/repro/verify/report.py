"""Admission-gate report structures (JSON-exportable for CI artifacts)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.resilience.failures import (
    RESOLVED_DEGRADED,
    RESOLVED_RETRIED,
    RegionFault,
)


@dataclass
class CheckResult:
    """One static check over one patched region."""

    name: str  # "encoding" | "target" | "cfg" | "oracle"
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        return f"{'ok  ' if self.passed else 'FAIL'} {self.name}: {self.detail or 'clean'}"


@dataclass
class RegionVerdict:
    """Every check outcome for one patched region."""

    start: int
    end: int
    kind: str
    checks: list[CheckResult] = field(default_factory=list)
    #: Per-trial differential-oracle outcomes ("match", "mismatch: ...",
    #: "inconclusive: ..."); empty when the oracle was capped out.
    oracle_trials: list[str] = field(default_factory=list)

    @property
    def admitted(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
            "admitted": self.admitted,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "oracle_trials": list(self.oracle_trials),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegionVerdict":
        return cls(
            start=data["start"],
            end=data["end"],
            kind=data["kind"],
            checks=[CheckResult(c["name"], c["passed"], c.get("detail", ""))
                    for c in data.get("checks", ())],
            oracle_trials=list(data.get("oracle_trials", ())),
        )


@dataclass
class VerifyReport:
    """Admission verdict for one rewritten binary."""

    binary: str
    target: str
    seed: int
    regions: list[RegionVerdict] = field(default_factory=list)
    #: Regions whose differential oracle was skipped by the region cap
    #: (static checks always run on every region; never silent).
    oracle_skipped: int = 0
    #: Every fault the isolated pipeline attributed to a region: worker
    #: crashes, watchdog kills, in-process verify errors — with the
    #: attempt that faulted and how it was resolved.  Empty on
    #: fault-free runs, so serial and process ledgers stay identical.
    faults: list[RegionFault] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.admitted for r in self.regions)

    @property
    def degraded_starts(self) -> frozenset[int]:
        """Regions quarantined and re-admitted on the trap fallback."""
        return frozenset(f.start for f in self.faults
                         if f.resolution == RESOLVED_DEGRADED)

    @property
    def quarantined_starts(self) -> frozenset[int]:
        """Regions whose fault was not healed by a retry (degraded or
        excluded — either way, not the fault-free output)."""
        return frozenset(f.start for f in self.faults
                         if f.resolution != RESOLVED_RETRIED)

    @property
    def releasable(self) -> bool:
        """True when every region was either admitted outright or
        successfully degraded to the verified trap fallback.  Strictly
        weaker than :attr:`ok` (which refuses degraded releases)."""
        degraded = self.degraded_starts
        return all(r.admitted or r.start in degraded for r in self.regions)

    @property
    def admitted_starts(self) -> frozenset[int]:
        return frozenset(r.start for r in self.regions if r.admitted)

    @property
    def rejected(self) -> list[RegionVerdict]:
        return [r for r in self.regions if not r.admitted]

    def counts(self) -> dict[str, int]:
        return {
            "regions": len(self.regions),
            "admitted": sum(r.admitted for r in self.regions),
            "rejected": len(self.rejected),
            "oracle_skipped": self.oracle_skipped,
            "region_faults": len(self.faults),
            "degraded": len(self.degraded_starts),
        }

    def as_dict(self) -> dict:
        return {
            "binary": self.binary,
            "target": self.target,
            "seed": self.seed,
            "ok": self.ok,
            "counts": self.counts(),
            "regions": [r.as_dict() for r in self.regions],
            "faults": [f.as_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyReport":
        return cls(
            binary=data["binary"],
            target=data["target"],
            seed=data["seed"],
            regions=[RegionVerdict.from_dict(r)
                     for r in data.get("regions", ())],
            oracle_skipped=data.get("counts", {}).get("oracle_skipped", 0),
            faults=[RegionFault.from_dict(f)
                    for f in data.get("faults", ())],
        )

    def to_json(self) -> str:
        """The canonical ledger serialization.  Every producer — the
        ``verify`` CLI, the rewrite cache, the batch service streaming
        ledgers to fleet clients — goes through this one function, so a
        ledger fetched over the service is *byte-identical* to one
        written locally for the same release."""
        return json.dumps(self.as_dict(), indent=1, sort_keys=True) + "\n"

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "VerifyReport":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def summary(self) -> str:
        c = self.counts()
        head = (f"verify {self.binary} -> {self.target}: "
                f"{c['admitted']}/{c['regions']} regions admitted")
        lines = [head]
        if self.oracle_skipped:
            lines.append(
                f"  note: oracle skipped on {self.oracle_skipped} regions (cap)")
        for fault in self.faults:
            lines.append(f"  FAULT {fault}")
        for region in self.rejected:
            for failure in region.failures:
                lines.append(
                    f"  REJECT {region.start:#x}..{region.end:#x} "
                    f"[{region.kind}] {failure.name}: {failure.detail}")
        if self.degraded_starts:
            lines.append(
                f"  degraded to trap fallback: {len(self.degraded_starts)} region(s)")
        lines.append(f"admission verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)
