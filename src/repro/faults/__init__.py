"""Deterministic fault injection for the serving stack (docs/FAULTS.md).

The activation surface is one module-level :data:`ACTIVE` plan,
``None`` by default, so an instrumented code path costs exactly one
attribute test when fault injection is off::

    from repro import faults

    plan = faults.ACTIVE
    if plan is not None:
        plan.hit("journal.append.io")

reprolint RL007 enforces that guard discipline across the serving stack
(``repro/service/``, ``repro/cluster/``, ``repro/recovery/``) and the
deep data-structure layers (``repro/kcursor/``, ``repro/pma/``); RL002
keeps this package stdlib-only (it must be importable from the lowest
layers without cycles).  Plans come from
:func:`parse_plan` / :func:`plan_from_env` (``REPRO_FAULTS`` /
``REPRO_FAULTS_SEED``) or ``repro serve --faults``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults import registry as _registry
from repro.faults.registry import (
    ENV_SEED,
    ENV_SPEC,
    KNOWN_FAILPOINTS,
    ConnectionDropped,
    FaultError,
    FaultPlan,
    FaultRule,
    parse_plan,
    parse_rules,
    plan_from_env,
)

__all__ = [
    "ACTIVE",
    "ConnectionDropped",
    "ENV_SEED",
    "ENV_SPEC",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "KNOWN_FAILPOINTS",
    "activate",
    "activate_from_env",
    "deactivate",
    "is_active",
    "parse_plan",
    "parse_rules",
    "plan_from_env",
    "set_fire_observer",
]

#: The active plan; ``None`` means every failpoint is a no-op test.
ACTIVE: Optional[FaultPlan] = None


def activate(plan: FaultPlan) -> FaultPlan:
    """Install (and return) the process-wide fault plan."""
    global ACTIVE
    ACTIVE = plan
    return plan


def activate_from_env() -> Optional[FaultPlan]:
    """Activate from ``REPRO_FAULTS`` if set; returns the plan or None."""
    plan = plan_from_env()
    if plan is not None:
        activate(plan)
    return plan


def deactivate() -> None:
    """Drop the active plan (failpoints become no-ops again)."""
    global ACTIVE
    ACTIVE = None


def is_active() -> bool:
    return ACTIVE is not None


def set_fire_observer(cb: Optional[Callable[[str, str], None]]) -> None:
    """Install (or clear, with ``None``) the fault-firing observer.

    The callback receives ``(point, kind)`` before the fired behavior
    runs -- see :data:`repro.faults.registry.ON_FIRE`.  The service
    layer uses this to stamp ``fault.fired`` span events onto the
    in-flight request trace (:func:`repro.service.tracing.fault_observer`).
    """
    _registry.ON_FIRE = cb
