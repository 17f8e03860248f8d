"""Experiment harness: the CloudWorld facade
(:mod:`repro.experiments.harness`), per-figure scenario builders
(:mod:`repro.experiments.scenarios`), plain-text reporting
(:mod:`repro.experiments.reporting`), the parallel sweep runner
(:mod:`repro.experiments.runner`) and the figure grids
(:mod:`repro.experiments.grids`).

The package imports none of them, so a scenario run loads neither the
reporting nor the runner's ``multiprocessing``; import from the
submodules.
"""
