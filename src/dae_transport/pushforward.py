"""Closed-form Gaussian pushforwards as one-call shims over :class:`measures.Gaussian`.

The package exports none of these names and no library code calls them.
Like ``transport.AnalyticGaussian``, they stay only because the benchmark's
tracer (``perfbench/tracing.py``, ``TARGETS``) looks them up by name, and
they go when ``TARGETS`` drops them.  Code calls
``Gaussian.from_cov(cov, mean)`` and its ``continuous``, ``one_shot`` and
``check_horizon`` directly.
"""

from __future__ import annotations

import numpy as np

from .measures import Gaussian, _checked_time


def push_continuous(mean, cov, t: float) -> Gaussian:
    """N(mean, cov) under the continuous flow, singular past (not at) ``t = lambda_min / 2``."""
    g, t = Gaussian.from_cov(cov, mean), _checked_time(t)
    g.check_horizon(t, "continuous pushforward", closed=True)
    return g.continuous(t)


def push_one_shot(mean, cov, t: float) -> Gaussian:
    """N(mean, cov) under the one-shot map, full rank for every t."""
    return Gaussian.from_cov(cov, mean).one_shot(_checked_time(t))


def one_shot_covariance(cov, t: float) -> np.ndarray:
    """Covariance of a Gaussian with covariance ``cov`` pushed through the one-shot map."""
    return push_one_shot(None, cov, t).cov
