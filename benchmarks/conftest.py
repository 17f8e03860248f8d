"""Benchmark-suite conftest: make the sibling ``_common`` module and the
``tests.conftest`` helpers importable."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))  # for tests.conftest helpers
