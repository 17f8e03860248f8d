"""Correctness tooling for the reproduction: static determinism lint and
runtime simulation sanitizer.

The whole evaluation pipeline rests on one promise: every sweep cell is
bit-identical for a given seed.  That is what makes the content-hash
result cache and the per-cell process fan-out of
:mod:`repro.experiments.runner` sound.  Two tools enforce it:

* :mod:`repro.analysis.lint` — an AST-based static checker that flags
  code patterns which silently break reproducibility (wall-clock/entropy
  calls, ``id()``-keyed ordering, unordered-set iteration, raw time
  literals, swallowed exceptions).  Run it with ``python -m repro lint``.
* :mod:`repro.analysis.sanitizer` — an opt-in runtime invariant checker
  that hooks the simulator and schedulers and asserts event-time
  monotonicity, legal VCPU state-machine transitions, per-period credit
  conservation and sane ATC slice/latency values.  Enable it with
  ``repro run GRID --set sanitize=true`` or a ``"sanitize": True`` cell
  param.

The package imports neither module, so a sanitized scenario run does not
load the lint framework; import from the submodules.
"""
