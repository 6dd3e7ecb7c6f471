"""Closed-form Gaussian pushforwards as one-call entry points over :class:`measures.Gaussian`.

Each function checks its time, decomposes ``N(mean, cov)`` once and returns
the pushed :class:`Gaussian` (or its covariance).  These three names, like
``transport.AnalyticGaussian``, stay only because the benchmark's tracer
(``perfbench/tracing.py``, ``TARGETS``) looks them up by name; new code calls
``Gaussian.from_cov(cov, mean)`` directly.
"""

from __future__ import annotations

import numpy as np

from .measures import Gaussian, _checked_time


def push_continuous(mean, cov, t: float) -> Gaussian:
    """N(mean, cov) under the continuous flow, covariance ``cov - 2 t I``.

    The boundary ``2 t = lambda_min`` gives a zero eigenvalue; any later time
    raises :class:`SingularityError` carrying the critical time.
    """
    g, t = Gaussian.from_cov(cov, mean), _checked_time(t)
    g.check_horizon(t, "continuous pushforward", closed=True)
    return g.continuous(t)


def push_one_shot(mean, cov, t: float) -> Gaussian:
    """N(mean, cov) under the one-shot map, covariance ``cov (I + t cov^{-1})^{-2}``, full rank for every t."""
    return Gaussian.from_cov(cov, mean).one_shot(_checked_time(t))


def one_shot_covariance(cov, t: float) -> np.ndarray:
    """Covariance of a Gaussian with covariance ``cov`` pushed through the one-shot map."""
    return push_one_shot(None, cov, t).cov
