"""Exact-arithmetic workbench for matching-count identities and positivity
statistics of random regular bipartite graphs."""

from ._kernels_py import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
