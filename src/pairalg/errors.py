"""Shared exception types and verdict containers."""

from dataclasses import dataclass, field


class PairAlgError(Exception):
    """Base class for all library errors."""


class StructureError(PairAlgError):
    """Malformed input data (bad table shape, unknown label, empty sum set)."""


class PreconditionError(PairAlgError):
    """An operation was called on data that fails its precondition."""


class UnsupportedStructureError(PairAlgError):
    """The structure lacks what the operation needs (order, negation map, ...)."""


class BoundExhausted(PairAlgError):
    """A bounded search ran out of budget without a definite answer."""


@dataclass
class Violation:
    axiom: str
    witness: tuple

    def as_json(self):
        return {"axiom": self.axiom, "witness": [_text(w) for w in self.witness]}


def _text(w):
    """``repr``, except that a nonempty set lists its members sorted, so that
    equal sets print alike whatever order they were built in."""
    if isinstance(w, (set, frozenset)) and w:
        return "%s({%s})" % (type(w).__name__, ", ".join(map(repr, sorted(w))))
    return repr(w)


@dataclass
class AxiomReport:
    """Result of an exhaustive (or windowed) axiom check."""

    subject: str
    violations: list = field(default_factory=list)
    checked: int = 0
    window: int | None = None

    @property
    def valid(self):
        return not self.violations

    def record(self, axiom, witness):
        self.violations.append(Violation(axiom, tuple(witness)))

    def as_json(self):
        out = {
            "subject": self.subject,
            "valid": self.valid,
            "checked": self.checked,
            "violations": [v.as_json() for v in self.violations],
        }
        if self.window is not None:
            out["window"] = self.window
        return out


# Three-valued verdict for bounded searches on symbolic carriers.
YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass
class Verdict:
    status: str  # YES / NO / UNKNOWN
    witness: object = None
    bound: object = None
    detail: str = ""

    @classmethod
    def held(cls, finite, window):
        """The yes of a search that found no counterexample: exact on a
        finite carrier, bound to the window it scanned on a symbolic one."""
        return cls(YES) if finite else cls(YES, bound=window, detail="windowed")

    def __bool__(self):
        return self.status == YES

    def as_json(self):
        return {
            "status": self.status,
            "witness": repr(self.witness) if self.witness is not None else None,
            "bound": self.bound,
            "detail": self.detail,
        }
