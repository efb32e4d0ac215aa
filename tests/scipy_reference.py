"""The scipy release that the numpy ports in ``repro`` copy.

``repro.prediction.kmeans.kmeans2`` and ``repro.markov.hsmm._logsumexp``
repeat scipy 1.17's arithmetic; their tests compare with that release
only, and pin outputs that hold whichever scipy is installed.
"""

import importlib

import pytest


def scipy_reference(module: str):
    """``module`` of scipy 1.17, or a skip: another release may compute
    differently, and the pinned outputs still hold the port."""
    scipy = pytest.importorskip("scipy")
    if not scipy.__version__.startswith("1.17."):
        pytest.skip(f"the ports copy scipy 1.17, not {scipy.__version__}")
    return importlib.import_module(module)
