"""Small pass/fail report records shared by the verifiers."""

from __future__ import annotations


class Report:
    """Named checks with verdicts plus free-form numeric data."""

    __slots__ = ("title", "checks", "data")

    def __init__(self, title):
        self.title = title
        self.checks = []
        self.data = {}

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        return ok

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def refuse(self, prefix):
        """Raise ValueError("<prefix>: <failed check names>") if any failed."""
        if not self.ok:
            raise ValueError(
                f"{prefix}: " + "; ".join(n for n, _ in self.failures()))

    def as_dict(self):
        return {
            "title": self.title,
            "pass": self.ok,
            "checks": [
                {"name": name, "pass": ok, **({"detail": detail} if detail else {})}
                for name, ok, detail in self.checks
            ],
            "data": self.data,
        }

    def __repr__(self):
        return f"Report({self.title!r}, ok={self.ok})"
