"""Hot numerical kernels with a compiled core and a pure-numpy fallback.

The Cython extension `_core` is used when it was built; otherwise the
numpy implementation in `_pure` takes over.  Both backends implement
identical floating-point sequences, so results do not depend on which
one was loaded; BACKEND names it.
"""

from __future__ import annotations

try:
    from . import _core as _impl  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:
    from . import _pure as _impl

    BACKEND = "pure"

sturm_counts = _impl.sturm_counts
integrate_schrodinger = _impl.integrate_schrodinger

__all__ = ["sturm_counts", "integrate_schrodinger", "BACKEND"]
