"""The benchmark's trace targets name functions the package has.

The tracer records a target it cannot find only under
``missing_targets``, and the spans of that target's layer then read 0,
so a renamed or moved function would zero its layer silently.  The
benchmark is imported as ``bench/tests`` imports it, and not changed.
"""

import importlib
import os
import sys

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_DIR, "src"))
sys.path.insert(0, os.path.join(REPO_DIR, "bench"))

import workloads  # noqa: E402


def test_every_trace_target_resolves():
    assert workloads.TRACE_TARGETS
    missing = [(module, attribute) for module, attribute, _ in workloads.TRACE_TARGETS
               if not hasattr(importlib.import_module(module), attribute)]
    assert missing == []
