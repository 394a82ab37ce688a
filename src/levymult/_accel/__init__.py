"""The Monte Carlo kernels and their random streams.

:mod:`.core` holds the ensemble kernels (plain numpy: one vectorised walk
gives every path's positions, the evolve kernel reads its semigroup values
off Chebyshev-in-time grid tables in blocks of events, the projection sums
run over each path's time-ordered events in blocks of whole paths, handed
out block by block, and the Lévy sums over all jumps at once); :mod:`.rng`
holds the counter-based per-path random streams, so an ensemble drawn in
chunks of paths is bit-identical to one drawn at once.  Callers pass the
kernels one chunk at a time and reduce ensemble statistics outside them in
a fixed order, so memory stays bounded whatever the path count and every
run of a config and seed gives the same output.
"""

from __future__ import annotations

from . import core
from . import rng  # noqa: F401  (re-export)


def get_backend(name: str | None = None):
    """Return the kernel module; ``None`` and ``"numpy"`` name the only one."""
    if name is None or name == "numpy":
        return core
    raise ValueError(f"unknown backend {name!r}; the only one is 'numpy'")
