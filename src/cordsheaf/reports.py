"""Report containers shared by the validators and the round-trip checks."""

from __future__ import annotations


class ValidationReport:
    """Outcome of a relation/invariant check: failures plus advisory notes.

    A failure entry records which family of constraints broke and where;
    notes carry non-fatal flags (degenerate-component conventions and the
    like) that downstream reports surface verbatim.
    """

    __slots__ = ("failures", "notes")

    def __init__(self):
        self.failures: list[dict] = []
        self.notes: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, family: str, location: str, expected, got) -> None:
        self.failures.append({
            "family": family,
            "location": location,
            "expected": str(expected),
            "got": str(got),
        })

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_json(self) -> dict:
        return {"failures": self.failures, "notes": self.notes}

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return f"ValidationReport({state})"


class DiffReport:
    """Entrywise differences between an expected and a computed object."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[dict] = []

    @property
    def empty(self) -> bool:
        return not self.entries

    def add(self, location: str, expected, got) -> None:
        self.entries.append({
            "location": location,
            "expected": str(expected),
            "got": str(got),
        })

    def to_json(self) -> list[dict]:
        return list(self.entries)

    def __repr__(self) -> str:
        state = "empty" if self.empty else f"{len(self.entries)} difference(s)"
        return f"DiffReport({state})"
