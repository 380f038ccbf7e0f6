"""JIT-compiled flip-loop backend (``numba``).

Hands the single-source kernels from :mod:`repro.core.backends.kernels` to
``numba.njit`` unchanged — the step, window and coded-op kernels, and the
round loop bound to those compiled three — so no numba-specific code paths
exist and the interpreted ``python`` backend and this one execute literally
the same function bodies.  The import is guarded:
on hosts without numba the backend reports unavailable and the registry
falls back (with a single warning when it was explicitly requested).

Compilation is lazy and cached per process: the first engine to attach pays
the JIT cost (``cache=True`` additionally persists the machine code across
processes when the filesystem allows it), later engines reuse the
dispatchers.
"""

from __future__ import annotations

import importlib.util
from typing import Callable, Optional

from repro.core.backends import kernels
from repro.core.backends.kernel_backend import KernelLoopBackend

_COMPILED: Optional[tuple[Callable, Callable, Callable, Callable]] = None


def numba_available() -> bool:
    """True when the ``numba`` package is importable on this host."""
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):  # pragma: no cover - broken metadata
        return False


def compiled_kernels() -> tuple[Callable, Callable, Callable, Callable]:
    """Return the njit-wrapped ``(step, flips, coded_ops, run_rounds)``.

    Raises ``ImportError`` when numba is missing; the registry's
    availability probe keeps that from escaping normal selection paths.
    """
    global _COMPILED
    if _COMPILED is None:
        import numba

        try:
            jit = numba.njit(cache=True)
        except TypeError:  # pragma: no cover - very old numba
            jit = numba.njit
        step = jit(kernels.step_round_kernel)
        flips = jit(kernels.apply_flips_kernel)
        ops = jit(kernels.coded_ops_kernel)
        # The round loop is a closure over the three dispatchers above, so
        # it skips the on-disk cache and compiles once per process.
        run = numba.njit(kernels.make_run_rounds_kernel(step, flips, ops))
        _COMPILED = (step, flips, ops, run)
    return _COMPILED


class NumbaBackend(KernelLoopBackend):
    """The single-source kernels, JIT-compiled by ``numba.njit``."""

    name = "numba"

    def _get_kernels(self) -> tuple[Callable, Callable, Callable, Callable]:
        return compiled_kernels()
