"""Workload models: NPB kernels (BSP), non-parallel apps, LLNL trace mix.

The package imports none of its modules: a world loads the non-parallel,
adversarial and trace-mix models only where it builds them.  Import from
the submodules.
"""
