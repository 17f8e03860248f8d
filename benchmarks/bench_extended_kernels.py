"""Extension: the NPB kernels beyond the paper's six.

``ep`` (embarrassingly parallel) is the falsification control: it has *no*
synchronization, so no scheduler — ATC included — should change its
execution time materially.  ``ft`` (3-D FFT) is the most
communication-bound kernel and should gain at least as much as ``is``.
Regenerates the ``kernels`` grid.
"""

from _common import bench_grid


def test_extended_kernels(benchmark):
    bench_grid(benchmark, "kernels", {})
