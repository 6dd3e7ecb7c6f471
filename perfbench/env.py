"""Environment record plus a rerun of the re-anchor baseline cases in ROADMAP.md item 1.

``python3 perfbench/run.py --env`` rewrites ``perfbench/env_record.json``.
Each case is timed the way the re-anchor table describes it (wall clock,
median of a few runs for the short ones, one run for the long ones) and
compared with the table's figure.  The table is stated as +-20%, so a case
outside that band is flagged.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import dae_transport as dt

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "dae_transport" / "configs"
BAND = 0.20

# (case, re-anchor seconds) in the order of the ROADMAP table
REANCHOR = [
    ("import dae_transport (fresh process)", 0.27),
    ("cli pushforward fig1", 0.26),
    ("cli trajectory fig2", 0.43),
    ("cli pushforward fig3", 0.34),
    ("cli verify", 0.95),
    ("default_checks(0)", 0.51),
    ("check variational_minimizer alone", 0.41),
    ("check continuity_t0_mixture alone", 0.17),
    ("analytic continuous_flow, 1 particle, L=500", 0.09),
    ("analytic continuous_flow, 1 particle, L=1000", 0.31),
    ("analytic continuous_flow, 1 particle, L=2000", 0.92),
    ("analytic continuous_flow, 1 particle, L=4000", 3.08),
    ("empirical compose, 4 layers, n=1000", 0.43),
    ("empirical compose, 4 layers, n=2000", 0.69),
    ("empirical compose, 4 layers, n=4000", 2.19),
    ("empirical compose, 4 layers, n=8000", 5.05),
    ("n=4000: EmpiricalKernel.apply", 1.36),
    ("n=4000: KDE diagnostics (kde_log_density + silverman_covariance)", 0.79),
    ("score, 20k 2-D points, k=1", 0.0019),
    ("score, 20k 2-D points, k=8", 0.014),
    ("score, 20k 2-D points, k=64", 0.112),
    ("score, 20k 2-D points, k=256", 0.494),
]


def _wall(fn, repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def python_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine was at that moment."""

    def loop():
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        return acc

    return 1e3 * _wall(loop, 9)


def _subprocess(args: list[str], env: dict) -> None:
    subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)


def measure_cases() -> dict[str, float]:
    from tracing import Tracer

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_dir = ROOT / ".bench_out" / "env"
    got: dict[str, float] = {}
    got["import dae_transport (fresh process)"] = _wall(
        lambda: _subprocess(["-c", "import dae_transport"], env), 5)
    for case, command, cfg in [("cli pushforward fig1", "pushforward", "fig1.json"),
                               ("cli trajectory fig2", "trajectory", "fig2.json"),
                               ("cli pushforward fig3", "pushforward", "fig3.json"),
                               ("cli verify", "verify", "fig2.json")]:
        argv = ["-m", "dae_transport", command, "--config", str(CONFIGS / cfg), "--out", str(out_dir)]
        got[case] = _wall(lambda: _subprocess(argv, env), 3)

    got["default_checks(0)"] = _wall(lambda: dt.default_checks(0), 3)
    std1 = dt.GaussianMixture.standard(1)
    mix1d = dt.GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
    got["check variational_minimizer alone"] = _wall(
        lambda: dt.check_variational_minimizer(std1, t=0.5, n=100_000, seed=0), 3)
    got["check continuity_t0_mixture alone"] = _wall(
        lambda: dt.check_continuity_t0(mix1d, dt=1e-4, n=100_000, seed=0), 3)

    aniso = dt.GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
    one = dt.ParticleEnsemble(np.array([[1.0, 1.0]]), 0)
    for steps in (500, 1000, 2000, 4000):
        got[f"analytic continuous_flow, 1 particle, L={steps}"] = _wall(
            lambda: dt.continuous_flow(aniso, 0.45, steps, one))

    # the ROADMAP names a "2-D two-component mixture" without its parameters
    mix2 = dt.GaussianMixture.from_components(
        [(0.5, [-1.5, 0.0], np.eye(2)), (0.5, [1.5, 0.0], np.eye(2))])
    schedule = dt.FlowSchedule.uniform(0.2, 4)
    for n in (1000, 2000, 4000, 8000):
        ens = dt.sample(mix2, n, 0)
        got[f"empirical compose, 4 layers, n={n}"] = _wall(
            lambda: dt.compose(mix2, schedule, ens, retrain="empirical"))
    ens = dt.sample(mix2, 4000, 0)
    with Tracer() as tracer:
        dt.compose(mix2, schedule, ens, retrain="empirical")
    per = tracer.per_op(1)
    got["n=4000: EmpiricalKernel.apply"] = per["transport.EmpiricalKernel.apply.s"]
    got["n=4000: KDE diagnostics (kde_log_density + silverman_covariance)"] = (
        per["measures.kde_log_density.s"] + per["measures.silverman_covariance.s"])

    rng = np.random.default_rng(0)
    x = rng.standard_normal((20_000, 2))
    for k in (1, 8, 64, 256):
        mix = dt.GaussianMixture(np.full(k, 1.0 / k), rng.uniform(-3, 3, (k, 2)),
                                 np.broadcast_to(np.eye(2), (k, 2, 2)))
        got[f"score, 20k 2-D points, k={k}"] = _wall(lambda: dt.score(mix, x), 5)
    return got


def write_env_record(env: dict) -> int:
    loop_before = python_loop_ms()
    got = measure_cases()
    loop_after = python_loop_ms()
    cases = []
    for case, then in REANCHOR:
        now = got[case]
        cases.append({"case": case, "reanchor_s": then, "measured_s": now,
                      "ratio": now / then, "outside_20pct": abs(now / then - 1.0) > BAND})
    # the machine's speed drifts; the loop times bracket the cases so ratios can be read in context
    doc = {"env": env, "python_loop_ms": {"before": loop_before, "after": loop_after},
           "reanchor_band": BAND, "cases": cases}
    path = Path(__file__).resolve().parent / "env_record.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for c in cases:
        flag = "  <-- outside +-20%" if c["outside_20pct"] else ""
        print(f"{c['case']:<70} {c['reanchor_s']:>8.4f} {c['measured_s']:>8.4f} "
              f"x{c['ratio']:.2f}{flag}")
    print(f"pure-Python loop: {loop_before:.1f} ms before, {loop_after:.1f} ms after")
    print(f"wrote {path}")
    return 0
