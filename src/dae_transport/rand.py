"""Deterministic random streams.

All randomness in the package flows through :func:`substream`, which maps a
64-bit user seed plus an integer path to an independent Philox stream.
Philox is counter-based, so streams are reproducible bit-for-bit across
platforms and independent of how work is partitioned.

Stream path registry (keep stable; serialized results depend on it):

====  =======================================================
path  purpose
====  =======================================================
0     mixture sampling: component selection uniforms
1     mixture sampling: standard normal draws
2     corruption noise in the variational check
3     reserved, unused: check_time_reversal probes come from sample (0, 1)
4     noise-identity check draws
100+  per-layer trajectory diagnostics (100 + layer index)
1000+ perturbation bump fields (1000 + trial index)
====  =======================================================
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for substream ``path`` under ``seed``.

    The same ``(seed, path)`` always yields an identical stream; distinct
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
