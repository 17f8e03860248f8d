"""Scheduler registry: the paper's approach names → factories.

``make_scheduler_factory("ATC")`` returns a callable suitable for
:class:`repro.hypervisor.vmm.VMM`'s ``scheduler_factory`` argument, so
experiment harnesses can be driven by the scheduler's short name exactly
as the figures label them (CR, CS, BS, DSS, VS, ATC).

An approach's module is imported when the approach is first looked up
by name, so a world loads only the scheduler it builds.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable, Type

if TYPE_CHECKING:
    from repro.schedulers.base import Scheduler, SchedulerParams

__all__ = ["SCHEDULERS", "make_scheduler_factory", "params_class", "scheduler_class",
           "scheduler_names"]

#: Approach name -> (module in :mod:`repro.schedulers`, scheduler class,
#: its parameter class), in the paper's presentation order.
SCHEDULERS: dict[str, tuple[str, str, str]] = {
    "CR": ("credit", "CreditScheduler", "CreditParams"),
    "CS": ("coschedule", "CoScheduler", "CoScheduleParams"),
    "BS": ("balance", "BalanceScheduler", "BalanceParams"),
    "DSS": ("dss", "DSSScheduler", "DSSParams"),
    "VS": ("vslicer", "VSlicerScheduler", "VSlicerParams"),
    "ATC": ("atc_sched", "ATCScheduler", "ATCParams"),
}


def scheduler_names() -> list[str]:
    """All approach names, in the paper's presentation order.

    Derived from :data:`SCHEDULERS`, whose insertion order *is* the
    presentation order — a separately hardcoded list here once meant a
    newly registered approach could silently vanish from CLI listings."""
    return list(SCHEDULERS)


def _lookup(name: str, index: int) -> type:
    try:
        module, *classes = SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return getattr(importlib.import_module(f"repro.schedulers.{module}"), classes[index])


def scheduler_class(name: str) -> Type[Scheduler]:
    """The named approach's :class:`~repro.schedulers.base.Scheduler`
    subclass; :class:`KeyError` for an unknown name."""
    return _lookup(name, 0)


def params_class(name: str) -> Type[SchedulerParams]:
    """The named approach's :class:`~repro.schedulers.base.SchedulerParams`
    subclass; :class:`KeyError` for an unknown name."""
    return _lookup(name, 1)


def make_scheduler_factory(
    name: str, params: SchedulerParams | None = None
) -> Callable[[object], Scheduler]:
    """Build a per-VMM scheduler factory for the named approach."""
    cls = scheduler_class(name)
    expected = params_class(name)
    if params is not None and not isinstance(params, expected):
        raise TypeError(
            f"{name} expects {expected.__name__}, got {type(params).__name__}"
        )
    return lambda vmm: cls(vmm, params)
