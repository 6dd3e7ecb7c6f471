"""Deterministic random streams.

All randomness in the package flows through :func:`substream`, which maps a
user seed (taken mod 2^64) plus an integer path to an independent Philox
stream.  A seed is a whole number of any sign, such as ``-3`` or ``3.0``, by
the one seed rule :func:`_checked_seed`: a bool, a fraction, NaN, inf, text or
``None`` raises ``ContractError``.  Philox is counter-based, so streams are
reproducible bit-for-bit across platforms and independent of partitioning.

Stream path registry (keep stable; serialized results depend on it).  A
family of streams takes a nested path ``(family, index)``, so no index of one
family can reach another family's path:

============  =======================================================
path          purpose
============  =======================================================
0             mixture sampling: component selection uniforms
1             mixture sampling: standard normal draws
2             corruption noise in the variational check
3             reserved, unused: check_time_reversal probes come from sample (0, 1)
4             noise-identity check draws
(100, layer)  per-layer trajectory diagnostics
1000+         perturbation bump fields (1000 + trial index, kept flat)
============  =======================================================
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_MASK64 = (1 << 64) - 1


def _checked_seed(seed, what: str = "seed") -> int:
    """``seed`` as an int by the one seed rule, else :class:`ContractError` naming ``what``."""
    if (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)) or (
            isinstance(seed, (float, np.floating)) and float(seed).is_integer()):
        return int(seed)
    raise ContractError(f"{what} must be a finite whole number, got {seed!r}")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for substream ``path`` under ``seed``, a seed by :func:`_checked_seed`.

    The same ``(seed, path)`` always yields an identical stream; distinct
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(_checked_seed(seed) & _MASK64, spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))
