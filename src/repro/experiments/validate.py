"""Executable reproduction validation.

:func:`validate_reproduction` applies every row of
:data:`~repro.experiments.claims.CLAIMS` and returns a structured
scorecard — the one-command answer to "does this reproduction still
hold?".  It is wired to ``python -m repro validate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments.claims import CLAIMS, EXPERIMENTS, Claim

__all__ = ["Check", "validate_reproduction"]


@dataclass(frozen=True)
class Check:
    """One claim row's outcome."""

    name: str
    claim: Claim
    passed: bool
    detail: str


def _guarded(fn: Callable, *args) -> tuple[Any, str | None]:
    """``(fn(*args), None)``, or ``(None, reason)`` if it raised.

    A crash is a failed check, not a crashed scorecard.
    """
    try:
        return fn(*args), None
    except Exception as err:
        return None, f"raised {type(err).__name__}: {err}"


def validate_reproduction() -> list[Check]:
    """Run each experiment once and apply every claim row to its data."""
    outcomes: dict[str, tuple[Any, str | None]] = {}
    checks: list[Check] = []
    for name, claim in CLAIMS.items():
        if claim.experiment not in outcomes:
            run = EXPERIMENTS[claim.experiment]
            outcomes[claim.experiment] = _guarded(run)
        data, error = outcomes[claim.experiment]
        if error is None:
            result, error = _guarded(claim.check, data)
        if error is None:
            passed, detail = result
            checks.append(Check(name, claim, bool(passed), detail))
        else:
            checks.append(Check(name, claim, False, error))
    return checks
