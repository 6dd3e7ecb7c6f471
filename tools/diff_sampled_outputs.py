"""Compare the sampled flow outputs of the working tree with those of a git revision.

Usage: python tools/diff_sampled_outputs.py REV

No bundled run has sampled states, so ``tools/diff_bundled_outputs.sh`` cannot
show how far a change to the kernel pass, the empirical flow or the KDE
diagnostics moves them.  This script extracts REV into a temporary directory
(``git archive``, removed on exit) and runs, in one fresh interpreter for REV
and one for the working tree, under ``-W error::RuntimeWarning``, at seeds 0, 1
and 2: an 8-component 2-D Gaussian mixture drawn from the seed, 2000 particles
sampled from it, the empirical ``compose`` on ``FlowSchedule.uniform(0.2, 4)``
and the ``one_shot_orbit`` at t = 0.1, 0.2, 0.3, 0.4, through the public API
only.  For each seed and array (each flow's stacked states and its (value,
stderr) entropy and Renyi-2 rows) it prints the largest absolute difference
and that difference relative to the array's largest |value|.

Exits 1 if any array differs, 0 if all are identical, 2 on bad usage.  Set
PYTHON to choose the interpreter (default: the one running this script).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

CHILD = r"""
import sys

import numpy as np

import dae_transport as dt


def mixture(seed):
    rng = np.random.default_rng([seed, 8])
    w = rng.uniform(0.5, 1.5, 8)
    means = rng.uniform(-2.5, 2.5, (8, 2))
    angles, scales = rng.uniform(0.0, np.pi, 8), rng.uniform(0.2, 0.8, (8, 2))
    rot = np.stack([np.cos(angles), -np.sin(angles), np.sin(angles), np.cos(angles)], axis=1).reshape(8, 2, 2)
    covs = (rot * scales[:, None, :]) @ rot.transpose(0, 2, 1)
    return dt.GaussianMixture(w / w.sum(), means, 0.5 * (covs + covs.transpose(0, 2, 1)))


arrays = {}
for seed in (0, 1, 2):
    mix = mixture(seed)
    ens = dt.sample(mix, 2000, seed)
    flows = {"compose": dt.compose(mix, dt.FlowSchedule.uniform(0.2, 4), ens, retrain="empirical"),
             "orbit": dt.one_shot_orbit(mix, (0.1, 0.2, 0.3, 0.4), ens)}
    for name, traj in flows.items():
        arrays[f"seed {seed} {name} states"] = np.stack([s.points for s in traj.states])
        arrays[f"seed {seed} {name} entropy"] = [[d.entropy.value, d.entropy.stderr] for d in traj.diagnostics]
        arrays[f"seed {seed} {name} renyi2"] = [[d.renyi2.value, d.renyi2.stderr] for d in traj.diagnostics]
np.savez(sys.argv[1], **arrays)
"""


def run_tree(python: str, tree: Path, out: Path, cwd: Path) -> dict[str, np.ndarray]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([python, "-W", "error::RuntimeWarning", "-c", CHILD, str(out)], cwd=cwd, env=env, check=True)
    with np.load(out) as npz:
        return {key: npz[key] for key in npz.files}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    rev, python = sys.argv[1], os.environ.get("PYTHON", sys.executable)
    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                               check=True).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev], capture_output=True,
                                 check=True).stdout
        (work / "rev.tar").write_bytes(archive)
        with tarfile.open(work / "rev.tar") as tar:
            tar.extractall(work / "rev", filter="data")
        old = run_tree(python, work / "rev", work / "rev.npz", work)
        new = run_tree(python, root, work / "tree.npz", work)
    differs = False
    for key in old:
        a, b = old[key], new[key]
        if a.shape != b.shape:
            print(f"{key:<24} shape {a.shape} against {b.shape}")
            differs = True
            continue
        diff = float(np.max(np.abs(a - b)))
        differs |= diff != 0.0
        print(f"{key:<24} max |diff| {diff:.3g}  ({diff / float(np.max(np.abs(a))):.3g} of max |value|)")
    print(f"{'different' if differs else 'identical'}: {rev} vs the working tree, {len(old)} arrays")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
