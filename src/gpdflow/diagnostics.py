"""Shared pass/fail result type for the verification operations."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Diagnostics:
    """Outcome of an exhaustive axiom check.

    ``failure`` names the first violated law in scan order, ``witness`` is a
    tuple of indices exhibiting the violation.  ``structural`` is set when the
    input is malformed (wrong shape, index out of range, operation defined on
    the wrong domain) as opposed to well-formed data breaking an axiom.  A
    verdict has no truth value, as a numpy array has none: read ``ok``, or
    let :meth:`require` refuse a failed one.
    """

    ok: bool
    failure: Optional[str] = None
    witness: Optional[tuple] = None
    structural: bool = False
    notes: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:  # without it, a failed verdict is true
        raise TypeError("the truth value of a Diagnostics is ambiguous: "
                        "use .ok")

    def require(self, refusal: str) -> None:
        """The one way a failed verdict becomes an exception: :class:`Refused`,
        a ``ValueError``, with ``refusal``, the failure and its witness."""
        if not self.ok:
            raise Refused(f"{refusal}: {self.failure} {self.witness}", self)

    @staticmethod
    def passed(**notes: Any) -> "Diagnostics":
        return Diagnostics(ok=True, notes=dict(notes))

    @staticmethod
    def failed(failure: str, witness: tuple, structural: bool = False,
               **notes: Any) -> "Diagnostics":
        return Diagnostics(ok=False, failure=failure, witness=witness,
                           structural=structural, notes=dict(notes))


class Refused(ValueError):
    """Raised by :meth:`Diagnostics.require`, with the failed ``verdict``."""

    def __init__(self, message: str, verdict: Diagnostics) -> None:
        super().__init__(message)
        self.verdict = verdict


__all__ = ["Diagnostics", "Refused"]
