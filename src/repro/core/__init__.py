"""The paper's contribution: Adaptive Time-slice Control (ATC).

* :func:`~repro.core.atc.compute_time_slice` — Algorithm 1 (pure).
* :class:`~repro.core.controller.ATCController` — Algorithm 2 (host level).
* :class:`~repro.core.monitor.SpinLatencyMonitor` — the per-period
  spinlock-latency signal (Fig. 6).
* :mod:`~repro.core.threshold` — the Eq. 1 minimum-threshold exploration.

The package imports none of its modules, so a scheduler that needs only
:mod:`repro.core.config` does not load the controller or the Eq. 1
study; import from the submodules.
"""
