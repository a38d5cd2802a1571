"""Result type shared by every cone-membership and validity test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

ACCEPTED = "accepted"
REJECTED = "rejected"
INCONCLUSIVE_ACCEPT = "inconclusive-accept"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True, slots=True)
class MembershipVerdict:
    """Outcome of a membership or validity test.

    ``margin`` is the worst (most negative) slack encountered; acceptance
    means ``margin >= -tol`` for the test's tolerance.  On rejection,
    ``witness`` carries the violating object so the failure can be
    reproduced: the effect for a state test, the state for an effect or
    trace test, an input state and an output effect for positivity.
    ``inconclusive-accept`` means a heuristic search found no violation
    but the search is not exhaustive for the system at hand.
    """

    status: str
    margin: float | None = None
    witness: Any = None
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED

    @property
    def rejected(self) -> bool:
        return self.status == REJECTED

    @property
    def passed(self) -> bool:
        """True when no violation was found (conclusively or not)."""
        return self.status in (ACCEPTED, INCONCLUSIVE_ACCEPT)

    def describe(self) -> str:
        parts = [self.status]
        if self.margin is not None:
            parts.append(f"margin={self.margin:.3e}")
        if self.detail:
            parts.append(self.detail)
        return ", ".join(parts)
