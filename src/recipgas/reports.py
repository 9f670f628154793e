"""Verification reports: structured results with text and JSON rendering.

Reports are deterministic: identical inputs (including seeds) produce
byte-identical output.  The JSON schema is versioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        if self.detail:
            return "%-4s %s: %s" % (mark, self.name, self.detail)
        return "%-4s %s" % (mark, self.name)


@dataclass
class Report:
    title: str
    items: list = field(default_factory=list)
    side_conditions: list = field(default_factory=list)
    witness: dict | None = None
    extras: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.items.append(CheckItem(name, passed, detail))

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.items)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_text(self) -> str:
        lines = ["== %s ==" % self.title]
        for i in self.items:
            lines.append("  " + i.line())
        if self.side_conditions:
            lines.append("  side conditions:")
            for s in self.side_conditions:
                lines.append("    %s" % s)
        if self.witness is not None:
            lines.append("  witness point:")
            for k in sorted(self.witness):
                lines.append("    %s = %s" % (k, self.witness[k]))
        for k in sorted(self.extras):
            lines.append("  %s: %s" % (k, self.extras[k]))
        lines.append("verdict: %s" % self.verdict)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "title": self.title,
            "verdict": self.verdict,
            "checks": [{"name": i.name, "passed": i.passed,
                        "detail": i.detail} for i in self.items],
            "side_conditions": list(self.side_conditions),
            "witness": self.witness,
            "extras": {k: str(v) for k, v in sorted(self.extras.items())},
        }

