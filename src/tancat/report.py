"""Check reports: named verdicts with symbolic witnesses.

Every checker in the package returns a CheckReport.  A failing verdict
carries a witness string — the offending input plus the nonzero difference
polynomial — so failures are reproducible by eye.  Reports serialize
deterministically (sorted keys, verdicts sorted by name at assembly time
where order is not meaningful).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    title: str
    verdicts: list[Verdict] = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: str | None = None) -> None:
        self.verdicts.append(Verdict(name, bool(passed), None if passed else witness))

    def check(self, name: str, difference,
              context: str | Callable[[], str] = "") -> None:
        """Record an exact-identity verdict: passes iff `difference` is zero.

        `difference` is anything with an is_zero() (Polynomial, PolyMap) or a
        boolean.  `context` prefixes the witness; pass a zero-argument
        callable to build it only when the check fails.
        """
        ok = difference if isinstance(difference, bool) else difference.is_zero()
        if ok:
            self.add(name, True)
            return
        if callable(context):
            context = context()
        if isinstance(difference, bool):
            self.add(name, False, context or "condition violated")
            return
        self.add(name, False,
                 context + (": " if context else "") + f"nonzero difference {difference}")

    def merge(self, other: "CheckReport", prefix: str = "") -> None:
        for v in other.verdicts:
            name = f"{prefix}{v.name}" if prefix else v.name
            self.verdicts.append(Verdict(name, v.passed, v.witness))

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def sort(self) -> "CheckReport":
        self.verdicts.sort(key=lambda v: v.name)
        return self

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            line = f"  [{mark}] {v.name}"
            if v.witness:
                line += f"  ({v.witness})"
            lines.append(line)
        lines.append(f"  => {'all passed' if self.passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)
