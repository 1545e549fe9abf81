"""Check reports: named verdicts with symbolic witnesses.

Every checker in the package returns a CheckReport.  A failing verdict
carries a witness string — the offending input plus the nonzero difference
polynomial — so failures are reproducible by eye.  Reports serialize
deterministically (sorted keys, verdicts sorted by name at assembly time
where order is not meaningful).

The module imports nothing beyond `collections`, which the interpreter
loads at startup, so `import tancat.poly` pays for no module the kernel
does not use; `json` is imported by `to_json` when it runs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable


class Verdict(namedtuple("Verdict", "name passed witness", defaults=(None,))):
    """One immutable verdict: its name, whether it passed, and a witness."""

    __slots__ = ()

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class CheckReport:
    """A titled list of verdicts."""

    def __init__(self, title: str, verdicts: list[Verdict] | None = None):
        self.title = title
        self.verdicts = [] if verdicts is None else verdicts

    def __eq__(self, other):
        if not isinstance(other, CheckReport):
            return NotImplemented
        return (self.title, self.verdicts) == (other.title, other.verdicts)

    def __repr__(self) -> str:
        return f"CheckReport(title={self.title!r}, verdicts={self.verdicts!r})"

    # A class attribute, so that a tracer can wrap it for every report.
    def add(self, name: str, passed: bool, witness: str | None = None) -> None:
        self.verdicts.append(Verdict(name, bool(passed), None if passed else witness))

    def check(self, name: str, difference,
              context: str | Callable[[], str] = "") -> None:
        """Record a verdict that passes iff `difference` vanishes.

        `difference` is one value that must be zero, anything with an
        is_zero() (Polynomial, PolyMap), or a boolean.  `context` prefixes
        the witness; pass a zero-argument callable to build it only when the
        check fails.  An identity of two sides goes through `equal`.
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

    def equal(self, name: str, lhs, rhs,
              context: str | Callable[[], str] = "") -> None:
        """Record the exact identity lhs = rhs.

        Equal sides pass without building `lhs - rhs`.  Otherwise the
        verdict is `check(name, lhs - rhs, context)`, so its witness shows
        the difference, and sides that `==` tells apart but whose
        difference is zero still pass: comparing first can only save time,
        never flip a verdict.
        """
        if lhs == rhs:
            self.add(name, True)
        else:
            self.check(name, lhs - rhs, context)

    def merge(self, other: CheckReport, prefix: str = "") -> None:
        for v in other.verdicts:
            name = f"{prefix}{v.name}" if prefix else v.name
            self.verdicts.append(Verdict(name, v.passed, v.witness))

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failing(self) -> str:
        """The names of the failing verdicts joined by "; ", "" when none fail."""
        return "; ".join(v.name for v in self.verdicts if not v.passed)

    def sort(self) -> CheckReport:
        self.verdicts.sort(key=lambda v: v.name)
        return self

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }

    def to_json(self) -> str:
        import json
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
