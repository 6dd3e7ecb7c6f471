"""The four benchmark workloads: inputs from a seed, one op, output checks, negative controls.

Every workload drives the library through its public API (``dae_transport``
and the CLI).  Inputs come from the workload seed through the benchmark's own
NumPy generator; the library sees only the generated arrays.

A check returns a list of failure messages (empty when the output is
correct).  A negative control feeds a check an output that is known to be
wrong and must produce at least one failure.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import dae_transport as dt

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "dae_transport" / "configs"
REL_TOL = 1e-12  # flow oracle: relative agreement of particles and entropies
TWEEDIE_TOL = 1e-9
_LOG_2PI = math.log(2.0 * math.pi)
CLI_TIMEOUT_S = 150


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed & (2**63 - 1)])


# -- analytic Gaussian flows (deep_flow, wide_flow) ---------------------------------

FLOW_VARS = (2.0, 1.0)  # N(0, diag(2, 1)), axis-aligned so the oracle is per axis
FLOW_T_END = 0.45


def flow_oracle(x0: np.ndarray, t_end: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Final particles and per-state entropies of the composed analytic flow.

    Each layer scales axis j by ``lam_j / (lam_j + tau)`` and moves its
    variance along ``lam_j <- lam_j^3 / (lam_j + tau)^2``.  Computed here
    from the scalar recursion, independently of the library's matrix path.
    """
    tau = t_end / steps
    lam = np.array(FLOW_VARS)
    factor = np.ones_like(lam)
    ents = [0.5 * (lam.size * (_LOG_2PI + 1.0) + float(np.log(lam).sum()))]
    for _ in range(steps):
        factor = factor * (lam / (lam + tau))
        lam = lam**3 / (lam + tau) ** 2
        ents.append(0.5 * (lam.size * (_LOG_2PI + 1.0) + float(np.log(lam).sum())))
    return x0 * factor, np.array(ents)


def check_flow(final: np.ndarray, entropies: np.ndarray, oracle) -> list[str]:
    want_x, want_h = oracle
    errs = []
    if final.shape != want_x.shape or not np.all(np.isfinite(final)):
        return ["final particles have the wrong shape or are not finite"]
    dx = np.abs(final - want_x) / np.maximum(np.abs(want_x), np.finfo(float).tiny)
    if not np.all(dx <= REL_TOL):
        errs.append(f"particles differ from the oracle by {float(np.max(dx)):.3e} relative")
    if entropies.shape != want_h.shape:
        return errs + ["wrong number of entropy records"]
    dh = np.abs(entropies - want_h) / np.maximum(np.abs(want_h), 1.0)
    if not np.all(dh <= REL_TOL):
        errs.append(f"entropies differ from the closed form by {float(np.max(dh)):.3e} relative")
    return errs


@dataclass
class FlowInputs:
    mix: object
    ensemble: object
    steps: int

    @functools.cached_property
    def oracle(self) -> tuple:
        # computed at the first check, so it is not counted as set-up
        return flow_oracle(self.ensemble.points, FLOW_T_END, self.steps)


class GaussianFlow:
    """``continuous_flow(N(0, diag(2, 1)), t_end=0.45, steps)`` on n sampled particles."""

    def __init__(self, name: str, n: int, steps: int):
        self.name, self.n, self.steps = name, n, steps

    def build(self, seed: int) -> FlowInputs:
        x0 = rng_for(seed, 1).standard_normal((self.n, 2)) * np.sqrt(FLOW_VARS)
        mix = dt.GaussianMixture.single([0.0, 0.0], np.diag(FLOW_VARS))
        return FlowInputs(mix, dt.ParticleEnsemble(x0, seed), self.steps)

    def particle_layers(self) -> int:
        return self.n * self.steps

    def op(self, inp: FlowInputs):
        return dt.continuous_flow(inp.mix, FLOW_T_END, inp.steps, inp.ensemble)

    op_inprocess = op

    @staticmethod
    def _parts(traj):
        return traj.states[-1].points, np.array([d.entropy.value for d in traj.diagnostics])

    def check(self, inp: FlowInputs, out, ref) -> list[str]:
        return check_flow(*self._parts(out), inp.oracle)

    def reference(self, out) -> dict:
        return {}

    def controls(self, inp: FlowInputs, out, ref) -> dict[str, list[str]]:
        final, ents = self._parts(out)
        one_shot = dt.one_shot_orbit(inp.mix, [FLOW_T_END], inp.ensemble)
        bumped = final.copy()
        bumped[0, 1] *= 1.0 + 1e-9
        ents_bumped = ents.copy()
        ents_bumped[-1] += 1e-9
        return {
            "one_shot_orbit_as_composed_flow": check_flow(one_shot.states[-1].points, ents, inp.oracle),
            "perturbed_particle": check_flow(bumped, ents, inp.oracle),
            "perturbed_entropy": check_flow(final, ents_bumped, inp.oracle),
        }


# -- Gaussian mixture: empirical composition + exact one-shot orbit -------------------

MIX_K = 8
MIX_N = 2000
MIX_SCHEDULE = (0.2, 4)  # FlowSchedule.uniform(t_end, steps)
MIX_ORBIT_TIMES = (0.1, 0.2, 0.3, 0.4)


@dataclass
class MixtureInputs:
    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    mix: object
    ensemble: object


def tweedie_mean(inp: MixtureInputs, t: float, x: np.ndarray) -> np.ndarray:
    """Posterior mean E[X | X + sqrt(t) Z = x], summed per component with SciPy."""
    from scipy import linalg
    from scipy.special import softmax
    from scipy.stats import multivariate_normal

    logs, posts = [], []
    for w, m, s in zip(inp.weights, inp.means, inp.covs):
        c = s + t * np.eye(len(m))
        logs.append(math.log(w) + multivariate_normal(m, c).logpdf(x))
        posts.append(m + (x - m) @ linalg.solve(c, s, assume_a="pos"))
    resp = softmax(np.stack(logs, axis=1), axis=1)
    return np.einsum("nk,knd->nd", resp, np.stack(posts))


def check_tweedie(inp: MixtureInputs, orbit_states) -> list[str]:
    errs = []
    for t, pts in zip(MIX_ORBIT_TIMES, orbit_states):
        want = tweedie_mean(inp, t, inp.ensemble.points)
        err = float(np.max(np.abs(pts - want) / (1.0 + np.abs(want))))
        if not err <= TWEEDIE_TOL:
            errs.append(f"one-shot state at t={t} differs from the Tweedie mean by {err:.3e}")
    return errs


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class MixtureFlow:
    """Empirical ``compose`` then the exact one-shot orbit, on an 8-component 2-D mixture."""

    name = "mixture_flow"

    def build(self, seed: int) -> MixtureInputs:
        rng = rng_for(seed, 2)
        w = rng.uniform(0.5, 1.5, MIX_K)
        w = w / w.sum()
        means = rng.uniform(-2.5, 2.5, (MIX_K, 2))
        angles = rng.uniform(0.0, math.pi, MIX_K)
        scales = rng.uniform(0.2, 0.8, (MIX_K, 2))
        covs = np.empty((MIX_K, 2, 2))
        for i, (a, d) in enumerate(zip(angles, scales)):
            r = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            c = (r * d) @ r.T
            covs[i] = 0.5 * (c + c.T)
        comp = np.searchsorted(np.cumsum(w), rng.uniform(0.0, 1.0, MIX_N), side="right")
        comp = np.minimum(comp, MIX_K - 1)
        z = rng.standard_normal((MIX_N, 2))
        x0 = means[comp] + np.einsum("nij,nj->ni", np.linalg.cholesky(covs)[comp], z)
        mix = dt.GaussianMixture(w, means, covs)
        return MixtureInputs(w, means, covs, mix, dt.ParticleEnsemble(x0, seed))

    def particle_layers(self) -> int:
        return MIX_N * (MIX_SCHEDULE[1] + len(MIX_ORBIT_TIMES))

    def op(self, inp: MixtureInputs):
        composed = dt.compose(inp.mix, dt.FlowSchedule.uniform(*MIX_SCHEDULE), inp.ensemble,
                              retrain="empirical")
        orbit = dt.one_shot_orbit(inp.mix, MIX_ORBIT_TIMES, inp.ensemble)
        return composed, orbit

    op_inprocess = op

    @staticmethod
    def _arrays(out):
        arrays = []
        for traj in out:
            arrays += [s.points for s in traj.states]
            arrays.append([(d.entropy.value, d.entropy.stderr, d.renyi2.value, d.renyi2.stderr)
                           for d in traj.diagnostics])
        return arrays

    def _verdict(self, arrays, ref) -> list[str]:
        """Finite, and bit-identical to the run's first op."""
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return ["non-finite output"]
        if ref is None:
            return []
        if _digest(arrays) != ref["digest"]:
            return ["output differs from the run's first op"]
        return []

    def check(self, inp: MixtureInputs, out, ref) -> list[str]:
        return self._verdict(self._arrays(out), ref)

    def oracle(self, inp: MixtureInputs, out) -> list[str]:
        """The exact one-shot states against SciPy's per-component Tweedie mean."""
        return check_tweedie(inp, [s.points for s in out[1].states[1:]])

    def reference(self, out) -> dict:
        return {"digest": _digest(self._arrays(out))}

    def controls(self, inp: MixtureInputs, out, ref) -> dict[str, list[str]]:
        ref = ref or self.reference(out)
        one_ulp = [np.array(a, dtype=float) for a in self._arrays(out)]
        last = MIX_SCHEDULE[1]  # index of the composed flow's final state
        one_ulp[last][0, 0] = np.nextafter(one_ulp[last][0, 0], np.inf)
        non_finite = [np.array(a, dtype=float) for a in self._arrays(out)]
        non_finite[-1][0, 0] = np.nan
        composed = out[0]
        return {
            "one_ulp_changed": self._verdict(one_ulp, ref),
            "non_finite": self._verdict(non_finite, ref),
            "empirical_flow_as_exact_orbit": check_tweedie(inp, [s.points for s in composed.states[1:]]),
        }


# -- figures: the four bundled CLI runs ----------------------------------------------

FIGURES = (
    ("cli_pushforward_fig1_s", "pushforward", "fig1.json"),
    ("cli_trajectory_fig2_s", "trajectory", "fig2.json"),
    ("cli_pushforward_fig3_s", "pushforward", "fig3.json"),
    ("cli_verify_s", "verify", "fig2.json"),
)


@dataclass
class FiguresInputs:
    seed: int
    out: Path
    env: dict


@dataclass
class Round:
    codes: dict
    digests: dict
    manifest: dict | None
    seconds: dict


def dir_digests(path: Path) -> dict:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


class Figures:
    """One op is one round of the four bundled CLI runs, each in a fresh interpreter."""

    name = "figures"

    def build(self, seed: int) -> FiguresInputs:
        import dae_transport.cli

        for _, _, cfg in FIGURES:
            dae_transport.cli.load_config(CONFIGS / cfg, seed, None)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return FiguresInputs(seed, ROOT / ".bench_out" / "figures", env)

    def particle_layers(self) -> None:
        return None

    def _round(self, inp: FiguresInputs, run_one) -> Round:
        codes, digests, secs = {}, {}, {}
        for metric, command, cfg in FIGURES:
            out = inp.out / metric
            shutil.rmtree(out, ignore_errors=True)
            t0 = time.perf_counter()
            codes[metric] = run_one([command, "--config", str(CONFIGS / cfg),
                                     "--seed", str(inp.seed), "--out", str(out)])
            secs[metric] = time.perf_counter() - t0
            digests[metric] = dir_digests(out) if out.is_dir() else {}
        path = inp.out / "cli_verify_s" / "fig2_manifest.json"
        manifest = json.loads(path.read_text()) if path.is_file() else None
        return Round(codes, digests, manifest, secs)

    def op(self, inp: FiguresInputs) -> Round:
        def run_one(argv):
            try:
                proc = subprocess.run([sys.executable, "-m", "dae_transport", *argv],
                                      cwd=ROOT, env=inp.env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return "timeout"
            return proc.returncode

        return self._round(inp, run_one)

    def op_inprocess(self, inp: FiguresInputs) -> Round:
        # in process, so the wrapped functions see the calls
        import dae_transport.cli

        def run_one(argv):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return dae_transport.cli.main(argv)

        return self._round(inp, run_one)

    def check(self, inp: FiguresInputs, out: Round, ref) -> list[str]:
        errs = [f"{m} exited with {c}" for m, c in out.codes.items() if c != 0]
        if out.manifest is None or out.manifest.get("overall_passed") is not True:
            errs.append("verify manifest missing or overall_passed is not true")
        if ref is not None and out.digests != ref["digests"]:
            changed = sorted(m for m in out.digests if out.digests[m] != ref["digests"].get(m))
            errs.append(f"outputs differ from the run's first round: {changed}")
        return errs

    def reference(self, out: Round) -> dict:
        return {"digests": out.digests}

    def controls(self, inp: FiguresInputs, out: Round, ref) -> dict[str, list[str]]:
        ref = ref or self.reference(out)
        fig2 = inp.out / "cli_trajectory_fig2_s"
        csv = fig2 / "fig2_continuous.csv"
        data = bytearray(csv.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")  # a digit of the last value
        csv.write_bytes(bytes(data))
        return {
            "nonzero_exit": self.check(inp, replace(out, codes={**out.codes, "cli_verify_s": 2}), ref),
            "manifest_not_passed": self.check(
                inp, replace(out, manifest={**(out.manifest or {}), "overall_passed": False}), ref),
            "one_output_byte_changed": self.check(
                inp, replace(out, digests={**out.digests, fig2.name: dir_digests(fig2)}), ref),
        }


WORKLOADS = {
    "figures": Figures(),
    "deep_flow": GaussianFlow("deep_flow", n=64, steps=2000),
    "wide_flow": GaussianFlow("wide_flow", n=100_000, steps=16),
    "mixture_flow": MixtureFlow(),
}
