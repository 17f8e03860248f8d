"""VMM scheduler models: CR (Credit), CS (Co-Scheduling), BS (Balance
Scheduling), DSS (Dynamic Switching-frequency Scaling), VS (vSlicer) and
ATC (the paper's Adaptive Time-slice Control).

The package imports none of them: import a scheduler from its module, or
look one up by name through :mod:`repro.schedulers.registry`, which
imports only the approach a world builds.
"""
