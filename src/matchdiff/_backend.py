"""Kernel backend selection for the cycle census.

Prefers the compiled extension; falls back to the pure-Python kernels when
the extension is missing or MATCHDIFF_PURE is set to a non-empty value
other than "0".  Matching counts do not go through here: they use
`matchcount.frontier_counts` on every backend.
"""

from __future__ import annotations

import os

from . import _kernels_py as pure

_force_pure = os.environ.get("MATCHDIFF_PURE", "") not in ("", "0")

if _force_pure:
    _impl = pure
else:
    try:
        from . import _kernels as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = pure

BACKEND: str = _impl.BACKEND

cycle_census_counts = _impl.cycle_census_counts
