"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one live PASS/FAIL line (bypassing capture) and then
asserts, so a plain ``pytest -v tests/test_acceptance.py`` shows the
criterion verdicts inline.
"""

from __future__ import annotations

import json
import math
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dae_transport import (
    Gaussian,
    GaussianMixture,
    ParticleEnsemble,
    SingularityError,
    check_backward_heat,
    check_stein_identity,
    check_variational_minimizer,
    compose,
    continuous_flow,
    FlowSchedule,
    probe_lattice,
    sample,
    smooth,
)
from dae_transport.cli import EXIT_OK, _chart_sigma, main

ANISO_COV = np.diag([2.0, 1.0])
ANISO = GaussianMixture.single([0.0, 0.0], ANISO_COV)
ANISO_G = Gaussian.of(ANISO)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "dae_transport" / "configs"


@pytest.fixture
def announce(capsys):
    def _announce(num: int, label: str, ok: bool, note: str = "") -> None:
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            suffix = f"  [{note}]" if note else ""
            print(f"ACCEPTANCE {num} {label}: {verdict}{suffix}")
        assert ok, f"criterion {num} ({label}) failed {note}"

    return _announce


def test_criterion_1_singular_time(announce):
    start = time.monotonic()
    raised_at_half = False
    critical = None
    try:
        ANISO_G.continuous_map([1.0, 1.0], 0.5)
    except SingularityError as exc:
        raised_at_half = True
        critical = exc.critical_time
    # just inside the singular time the map still works and the pushforward
    # covariance has an almost-vanished eigenvalue
    t = 0.5 - 1e-6
    ANISO_G.continuous_map([1.0, 1.0], t)
    lam_min = float(np.min(ANISO_G.continuous(t).evals))
    elapsed = time.monotonic() - start
    ok = raised_at_half and critical == pytest.approx(0.5) and lam_min < 4e-6 and elapsed < 1.0
    announce(1, "singular time", ok, f"min eig {lam_min:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_2_broken_line_convergence(announce):
    start = time.monotonic()
    grid = probe_lattice(3.0, 9, 2)
    ens = ParticleEnsemble(grid, seed=0)
    target = ANISO_G.continuous_map(grid, 0.4)
    errs = {}
    for tau in (0.05, 0.025):
        traj = compose(ANISO, FlowSchedule.uniform(0.4, round(0.4 / tau)), ens, "analytic")
        errs[tau] = float(np.max(np.abs(traj.states[-1].points - target)))
    ratio = errs[0.05] / errs[0.025]
    elapsed = time.monotonic() - start
    ok = 1.6 <= ratio <= 2.4 and elapsed < 1.0
    announce(2, "broken-line convergence", ok, f"ratio {ratio:.3f}, {elapsed:.2f} s")


def test_criterion_3_backward_heat_residual(announce):
    start = time.monotonic()
    positive = check_backward_heat(ANISO, (0.0, 0.1, 0.2, 0.3))  # on [-3, 3]^2 step 0.5
    control = check_backward_heat(ANISO, (0.3,), source="one_shot")
    elapsed = time.monotonic() - start
    ok = (
        positive.passed
        and positive.max_abs < 1e-4
        and control.max_abs > 1e-3
        and elapsed < 1.0
    )
    announce(
        3,
        "backward heat residual",
        ok,
        f"max {positive.max_abs:.2e}, control {control.max_abs:.2e}, {elapsed:.2f} s",
    )


def test_criterion_4_variational_minimizer(announce):
    start = time.monotonic()
    rep = check_variational_minimizer(GaussianMixture.standard(1), t=0.5)  # 81 probes on [-2, 2], 20 trials
    elapsed = time.monotonic() - start
    ok = (
        rep.passed
        and rep.details["max_grid_deviation"] < 0.05
        and rep.details["min_margin"] >= 0.0
        and elapsed < 10.0
    )
    announce(
        4,
        "variational minimizer",
        ok,
        f"sup dev {rep.details['max_grid_deviation']:.4f}, min margin {rep.details['min_margin']:.2e}, {elapsed:.2f} s",
    )


def test_criterion_5_pushforward_moments(announce):
    start = time.monotonic()
    n = 100_000
    std = GaussianMixture.standard(1)
    pushed = Gaussian.of(std).denoise(sample(std, n, 0).points, 1.0)
    var = float(np.var(pushed, ddof=1))
    se = 0.25 * math.sqrt(2.0 / (n - 1))
    elapsed = time.monotonic() - start
    ok = abs(var - 0.25) < 5.0 * se and elapsed < 5.0
    announce(5, "pushforward moments", ok, f"var {var:.5f} vs 0.25 +- {5 * se:.5f}, {elapsed:.2f} s")


def test_criterion_6_entropy_gradient_flow(announce):
    start = time.monotonic()
    dt = 1e-6
    grad_ok = True
    for t in (0.05, 0.1, 0.15):
        sig, sig_p, sig_m = (_chart_sigma(ANISO_G.continuous(s).cov) for s in (t, t + dt, t - dt))
        fd = (sig_p - sig_m) / (2.0 * dt)
        rel = np.max(np.abs(fd + 1.0 / sig) / np.abs(1.0 / sig))
        grad_ok = grad_ok and rel < 1e-4
    ens = sample(ANISO, 64, 0)
    traj = continuous_flow(ANISO, 0.4, 8, ens)
    ents = traj.entropy[:, 0].tolist()
    strictly_decreasing = all(b < a for a, b in zip(ents, ents[1:]))
    elapsed = time.monotonic() - start
    ok = grad_ok and strictly_decreasing
    announce(6, "entropy gradient flow", ok, f"{elapsed:.2f} s")


def test_criterion_7_time_reversal(announce):
    worst = 0.0
    for t in (0.1, 0.2, 0.4):
        pf = ANISO_G.continuous(t)
        recovered = smooth(GaussianMixture.single(pf.mean, pf.cov), 2.0 * t)
        worst = max(worst, float(np.max(np.abs(recovered.covs[0] - ANISO_COV))))
    ok = worst < 1e-12
    announce(7, "time reversal", ok, f"max deviation {worst:.2e}")


def test_criterion_8_stein_identity(announce):
    rep = check_stein_identity()
    ok = rep.passed and rep.max_abs < 1e-10
    announce(8, "noise identity", ok, f"max residual {rep.max_abs:.2e}")


def test_criterion_9_determinism_and_figures(announce, tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"name": "v", "outputs": {"dir": str(tmp_path / "a")}}) + "\n")
    code_a = main(["verify", "--config", str(cfg)])
    code_b = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "b")])
    manifests_equal = (tmp_path / "a" / "v_manifest.json").read_bytes() == (
        tmp_path / "b" / "v_manifest.json"
    ).read_bytes()

    fig_ok = True
    for name, command in (("fig1", "pushforward"), ("fig2", "trajectory"), ("fig3", "pushforward")):
        out = tmp_path / name
        code = main([command, "--config", str(CONFIG_DIR / f"{name}.json"), "--out", str(out)])
        fig_ok = fig_ok and code == EXIT_OK
        produced = list(out.glob("*.csv")) + list(out.glob("*.svg"))
        fig_ok = fig_ok and len(produced) >= 2
        for path in out.glob("*.svg"):
            ET.parse(path)  # well-formed XML
        for path in out.glob("*.csv"):
            lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
            fig_ok = fig_ok and len(lines) > 1
        for path in out.glob("*.json"):
            json.loads(path.read_text())
    elapsed = time.monotonic() - start
    ok = code_a == EXIT_OK and code_b == EXIT_OK and manifests_equal and fig_ok and elapsed < 30.0
    announce(9, "determinism and figures", ok, f"{elapsed:.1f} s total")
