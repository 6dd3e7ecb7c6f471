"""Compare the outputs of the working tree with those of a git revision, and with a rerun of its own.

Usage: python tools/diff_outputs.py REV

Outputs must be byte-identical for a fixed ``(config, seed)`` (ROADMAP aim 2).  This script extracts REV into a
temporary directory (``git archive``, removed on exit) and makes the same runs in the REV tree, in the working tree
and in the working tree again:

* the 12 bundled CLI runs: ``pushforward fig1``, ``trajectory fig2``, ``pushforward fig3`` and ``verify`` on fig2,
  each at the config's own seed, at ``--seed 3`` and at ``--seed 11``;
* one sampled run: at seeds 0, 1 and 2, an 8-component 2-D Gaussian mixture drawn from the seed, 2000 particles
  sampled from it, the empirical ``compose`` on ``FlowSchedule.uniform(0.2, 4)`` and the ``one_shot_orbit`` at
  t = 0.1, 0.2, 0.3, 0.4; then a 3-D Gaussian drawn from the seed, rotated (variances 0.5, 1, 2 on a random
  orthonormal basis) with a nonzero mean, 500 particles sampled from it, the analytic ``compose`` on taus
  0.05, 0.1, 0.2, the ``continuous_flow`` to t = 0.2 in 8 steps and the ``one_shot_orbit`` at t = 0.1, 0.5, 1.  Each
  trajectory is written through its own ``to_csv`` and ``diagnostics_json``.  The bundled laws are all axis-aligned
  with mean 0, so only the rotated Gaussian shows a last-bit move of the analytic flows' arithmetic.

Every run goes under ``-W error::RuntimeWarning -W error::DeprecationWarning -W error::FutureWarning`` (the tests'
filter), so a run that warns exits non-zero.  One comparator walks the output trees, REV against the working tree
and the working tree against its rerun, and prints each file on one side only, each differing exit code, and for
each differing CSV or JSON file the largest absolute difference of its numbers (CSV cells off ``#`` lines, or JSON
leaves) and the largest relative one, each differing pair over its own ``max(|a|, |b|)``, so particle ids and times
do not scale a coordinate's move; or ``structure differs``.  Any other differing file (an SVG chart) just ``differs``.

Prints the working tree's exit codes.  Exits 1 on any difference, 0 if all is identical, 2 on bad usage.  Set
PYTHON to choose the interpreter (default: the one running this script); TMPDIR picks where the extracted tree and
the outputs go.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WARNINGS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", "-W", "error::FutureWarning"]
EXIT_CODES = "exit_codes.txt"
SAMPLED = r"""
import sys

import numpy as np

import dae_transport as dt
from dae_transport.svg import write_json

out = sys.argv[-1]
for seed in (0, 1, 2):
    rng = np.random.default_rng([seed, 8])
    w = rng.uniform(0.5, 1.5, 8)
    means = rng.uniform(-2.5, 2.5, (8, 2))
    angles, scales = rng.uniform(0.0, np.pi, 8), rng.uniform(0.2, 0.8, (8, 2))
    rot = np.stack([np.cos(angles), -np.sin(angles), np.sin(angles), np.cos(angles)], axis=1).reshape(8, 2, 2)
    covs = (rot * scales[:, None, :]) @ rot.transpose(0, 2, 1)
    mix = dt.GaussianMixture(w / w.sum(), means, 0.5 * (covs + covs.transpose(0, 2, 1)))
    ens = dt.sample(mix, 2000, seed)
    flows = {"compose": dt.compose(mix, dt.FlowSchedule.uniform(0.2, 4), ens, retrain="empirical"),
             "orbit": dt.one_shot_orbit(mix, (0.1, 0.2, 0.3, 0.4), ens)}
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    cov = (basis * np.array([0.5, 1.0, 2.0])) @ basis.T
    law = dt.GaussianMixture.single(rng.uniform(-2.0, 2.0, 3), 0.5 * (cov + cov.T))
    ens = dt.sample(law, 500, seed)
    flows |= {"analytic_compose": dt.compose(law, dt.FlowSchedule((0.05, 0.1, 0.2)), ens, retrain="analytic"),
              "analytic_continuous": dt.continuous_flow(law, 0.2, 8, ens),
              "analytic_orbit": dt.one_shot_orbit(law, (0.1, 0.5, 1.0), ens)}
    for name, traj in flows.items():
        traj.to_csv(f"{out}/seed_{seed}_{name}.csv")
        write_json(f"{out}/seed_{seed}_{name}_diagnostics.json", traj.diagnostics_json())
"""


# label -> interpreter arguments; each run starts in its tree's config directory and is given ``--out DIR`` last
RUNS = {f"{cmd} {cfg} seed={seed or 'config'}": ["-m", "dae_transport", cmd, "--config", f"{cfg}.json",
                                                *(["--seed", str(seed)] if seed else [])]
        for cmd, cfg in [("pushforward", "fig1"), ("trajectory", "fig2"), ("pushforward", "fig3"), ("verify", "fig2")]
        for seed in (None, 3, 11)}
RUNS["sampled seeds 0-2"] = ["-c", SAMPLED]


def run_tree(python: str, tree: Path, out: Path) -> None:
    """Each of :data:`RUNS` on the sources of ``tree``: run ``label`` writes under ``out`` to ``label`` with ``_``
    for spaces and ``=``, and its exit code goes to :data:`EXIT_CODES`."""
    env, codes = dict(os.environ, PYTHONPATH=str(tree / "src")), []
    for label, args in RUNS.items():
        dest = out / label.replace(" ", "_").replace("=", "_")
        dest.mkdir(parents=True)
        done = subprocess.run([python, *WARNINGS, *args, "--out", str(dest)], cwd=tree / "src/dae_transport/configs",
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        codes.append(f"{label} exit={done.returncode}\n")
    (out / EXIT_CODES).write_text("".join(codes))


def _cut(value, numbers: list[float]):
    """``value`` with each number, or text that reads as one, moved to ``numbers`` and replaced by ``float``."""
    if isinstance(value, dict):  # keys stay text, in sorted order
        return [(key, _cut(value[key], numbers)) for key in sorted(value)]
    if isinstance(value, list):
        return [_cut(item, numbers) for item in value]
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            numbers.append(float(value))
        except ValueError:  # text that is not a number
            return value
        return float
    return value


def _leaves(path: Path) -> tuple[list, list[float]]:
    """A CSV or JSON file's structure without its numbers, and the numbers: CSV cells off ``#`` lines, or leaves."""
    text, numbers = path.read_text(), []
    if path.suffix == ".csv":
        return _cut(list(csv.reader(line for line in text.splitlines() if not line.startswith("#"))), numbers), numbers
    return _cut(json.loads(text), numbers), numbers


def _gaps(a: float, b: float) -> tuple[float, float]:
    """The absolute and relative difference of two numbers: 0 if equal (NaN to NaN too), inf if one is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b), abs(a - b) / max(abs(a), abs(b))


def describe(old: Path, new: Path) -> str:
    """One line on how two files with differing bytes differ."""
    if old.suffix not in (".csv", ".json"):
        return "differs"
    try:
        (shape, xs), (other, ys) = _leaves(old), _leaves(new)
    except ValueError:  # not UTF-8, or not JSON
        return "structure differs"
    if shape != other:
        return "structure differs"
    gap, rel = map(max, zip((0.0, 0.0), *map(_gaps, xs, ys)))  # each column's largest, 0 for no numbers
    return f"largest absolute difference {gap:.3g}, largest relative difference {rel:.3g}"


def compare(old_root: Path, new_root: Path) -> int:
    """Print one line for each file or exit code that differs between two output trees; 1 if any does, else 0."""
    names = sorted({p.relative_to(root) for root in (old_root, new_root) for p in root.rglob("*") if p.is_file()})
    differs = 0
    for name in names:
        old, new = old_root / name, new_root / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {(old_root if old.is_file() else new_root).name}")
        elif old.read_bytes() == new.read_bytes():
            continue
        elif name == Path(EXIT_CODES):
            for a, b in itertools.zip_longest(*(p.read_text().splitlines() for p in (old, new)), fillvalue="no run"):
                if a != b:
                    print(f"exit code: {a} against {b}")
        else:
            print(f"{name}: {describe(old, new)}")
        differs = 1
    return differs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    rev, python, root = argv[1], os.environ.get("PYTHON", sys.executable), Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    if archive.returncode:  # git has said why
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(work / "checkout", filter="data")
        for tree, out in ((work / "checkout", "rev"), (root, "tree"), (root, "rerun")):
            run_tree(python, tree, work / out)
        print((work / "tree" / EXIT_CODES).read_text(), end="")
        status = 0
        for old, new, what in (("rev", "tree", f"{rev} vs the working tree"),
                               ("tree", "rerun", "the working tree vs its rerun")):
            differs = compare(work / old, work / new)
            print(f"{'different' if differs else 'identical'}: {what}, every output file and exit code")
            status |= differs
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
