"""Benchmark for dae-transport.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload, both runs
    python3 perfbench/run.py --smoke                               # one op per workload, < 1 min
    python3 perfbench/run.py --env                                 # rewrite perfbench/env_record.json

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` makes a separate traced run for the per-layer metrics.  Each run
prints a table of every metric it measured, then, as its last line, one JSON
object with the metrics ``BENCHMARK.json`` names for that mode.  Full results
and trace spans go to ``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9  # fresh interpreters per run; setup_s is their median
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples above it
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# -- set-up and import measurements (fresh interpreters) -------------------------


def probe_setup(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import, build the inputs, report the clock."""
    from workloads import WORKLOADS

    WORKLOADS[workload].build(seed)
    print(time.monotonic())


def setup_once(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to imports done and inputs built."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - t0


IMPORT_NAMES = {"numpy": "import.numpy_s", "dae_transport": "import.dae_transport_s",
                "dae_transport.cli": "import.cli_s", "dae_transport.svg": "import.svg_s"}


def import_breakdown(repeats: int) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``, median over fresh interpreters."""
    cmd = [sys.executable, "-X", "importtime", "-c",
           "import numpy; import dae_transport; import dae_transport.cli"]
    samples: dict[str, list[float]] = {v: [] for v in IMPORT_NAMES.values()}
    for _ in range(repeats + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_NAMES:
                samples[IMPORT_NAMES[parts[2].strip()]].append(int(parts[1]) * 1e-6)
    # drop the first interpreter's sample, which pays for cold caches
    return {k: statistics.median(v[1:]) for k, v in samples.items()}


# -- the op loop --------------------------------------------------------------------


class Ops:
    """Runs ops closed-loop, checks every output and keeps the timings."""

    def __init__(self, wl, inp):
        self.wl, self.inp = wl, inp
        self.times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.command_seconds: list[dict] = []  # figures: per-command times of each timed op

    def attempt(self, op, ref):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op(self.inp)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            self.failures.append(f"op {self.attempted}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        errs = self.wl.check(self.inp, out, ref)
        if errs:
            self.failures.append(f"op {self.attempted}: " + "; ".join(errs))
        return out, elapsed

    def loop(self, op, seconds: float, ref, tracer=None, between=None, n_between: int = 0):
        """At least one op, then ops until ``seconds`` have passed.  Returns the last output.

        ``between`` runs ``n_between`` times between ops, spread evenly over the
        run; its time is not counted in ``seconds``.
        """
        start = time.perf_counter()
        paused = 0.0
        done = 0
        last = None
        while True:
            if tracer is not None:
                tracer.op = len(self.times)
            last = None  # hold one output at a time, so peak memory is one op's
            out, elapsed = self.attempt(op, ref)
            self.times.append(elapsed)
            if out is not None:
                last = out
                if hasattr(out, "seconds"):
                    self.command_seconds.append(out.seconds)
            ran = time.perf_counter() - start - paused
            while done < n_between and ran >= done * seconds / n_between:
                t0 = time.perf_counter()
                between()
                paused += time.perf_counter() - t0
                done += 1
            if ran >= seconds:
                break
        for _ in range(done, n_between):
            between()
        return last

    @property
    def failed(self) -> int:
        return len(self.failures)


def warm_up(ops: Ops, op):
    """The first op fills caches, is checked, and becomes the reference output."""
    first, _ = ops.attempt(op, None)
    if first is None:
        raise SystemExit(f"the first op failed: {ops.failures[-1]}")
    return first, ops.wl.reference(first)


def finish_checks(ops: Ops, first, last, ref) -> dict:
    """Once-per-run oracle on the first output, then the negative controls."""
    if hasattr(ops.wl, "oracle"):
        for err in ops.wl.oracle(ops.inp, first):
            ops.failures.append(f"oracle: {err}")
    if last is None:  # the last op failed, so the run is already not correct
        return {"controls": {"rejected": False, "reason": "the last op gave no output"}}
    controls = {}
    for name, errs in ops.wl.controls(ops.inp, last, ref).items():
        controls[name] = {"rejected": bool(errs), "reason": "; ".join(errs)}
    return controls


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): nearest rank with TAIL_BEYOND samples above it.

    With TAIL_BEYOND or fewer samples no such percentile exists; the maximum is
    reported as percentile 100 with the count of samples beyond it (0).
    """
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# -- the two runs -------------------------------------------------------------------


def untraced_run(name: str, seed: int, seconds: float, repeats: int) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    ops = Ops(wl, wl.build(seed))
    first, ref = warm_up(ops, wl.op)
    if not hasattr(wl, "oracle"):
        first = None  # keep only what a later check needs, so peak memory stays the op's own
    setup_once(name, seed)  # warms the file cache; dropped
    setup: list[float] = []
    # set-up launches are spread over the run, so their median spans the machine's slow phases
    last = ops.loop(wl.op, seconds, ref, between=lambda: setup.append(setup_once(name, seed)),
                    n_between=repeats)
    who = resource.RUSAGE_CHILDREN if name == "figures" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    controls = finish_checks(ops, first, last, ref)

    busy = sum(ops.times)
    value, pct, beyond = tail(ops.times)
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(ops.times), "s"),
        "op_tail_s": (value, "s"),
        "op_tail_percentile": (pct, "%"),
        "op_tail_samples_beyond": (beyond, "count"),
        "ops_timed": (len(ops.times), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_failed_ratio": (ops.failed / ops.attempted, "ratio"),
        "ops_attempted": (ops.attempted, "count"),
        "ops_failed": (ops.failed, "count"),
    }
    if wl.particle_layers() is not None:
        m["particle_layers_per_s"] = (wl.particle_layers() * len(ops.times) / busy, "1/s")
    for metric in ops.command_seconds[0] if ops.command_seconds else ():
        m[metric] = (statistics.median([r[metric] for r in ops.command_seconds]), "s")
    return {"metrics": m, "ops": ops, "controls": controls, "setup_samples": setup}


def traced_run(name: str, seed: int, seconds: float, repeats: int) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    imports = import_breakdown(repeats)
    wl = WORKLOADS[name]
    ops = Ops(wl, wl.build(seed))
    first, ref = warm_up(ops, wl.op_inprocess)
    ops.loop(wl.op_inprocess, seconds / 2.0, ref)
    plain = list(ops.times)
    ops.times.clear()
    with Tracer() as tracer:
        last = ops.loop(wl.op_inprocess, seconds / 2.0, ref, tracer)
    controls = finish_checks(ops, first, last, ref)

    per_op = tracer.per_op(len(ops.times))
    per_op["cli.bytes_written"] = sum((v for k, v in per_op.items() if k.endswith(".bytes_written")), 0.0)
    m = {k: (v, unit_of(k)) for k, v in sorted(per_op.items())}
    m.update({k: (v, "s") for k, v in imports.items()})
    m["trace.overhead_ratio"] = (statistics.median(ops.times) / statistics.median(plain), "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.json")
    return {"metrics": m, "ops": ops, "controls": controls}


def unit_of(key: str) -> str:
    if key.endswith((".s", "_s")):
        return "s"
    if key.endswith("bytes") or key.endswith("bytes_written"):
        return "B"
    return "count"


# -- environment record ---------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref)
    if direct != "unknown":
        return direct
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def env_record() -> dict:
    import platform

    import numpy

    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(idx / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_desc = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": NPROC,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_desc,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        # without a bytecode cache every fresh interpreter compiles the package from source
        "bytecode_cache_written": not sys.flags.dont_write_bytecode,
        "git_commit": git_commit(),
    }


# -- output -----------------------------------------------------------------------


def print_table(title: str, metrics: dict, controls: dict) -> None:
    print(title)
    for key, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<52} {shown:>14} {unit}")
    for name, verdict in controls.items():
        print(f"  control {name:<44} {'rejected' if verdict['rejected'] else 'NOT REJECTED'}")


def measure(name: str, seed: int, seconds: float, trace: bool, repeats: int) -> dict:
    """One run; returns the metrics, the verdicts and the run's record."""
    run = (traced_run if trace else untraced_run)(name, seed, seconds, repeats)
    ops = run["ops"]
    controls_ok = all(v["rejected"] for v in run["controls"].values())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": ops.failed == 0 and controls_ok,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures[:20],
        "controls": run["controls"],
        "metrics": run["metrics"],
        "op_times_s": ops.times,
        "setup_samples_s": run.get("setup_samples"),
        "env": env_record(),
    }


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(res: dict, trace: bool) -> dict:
    metrics = {}
    for key, unit in declared_metrics(trace):
        if key in res["metrics"]:
            value = res["metrics"][key][0]
        elif unit == "count" or unit == "B":
            value = 0.0  # a counter of a function this workload never calls
        else:
            raise SystemExit(f"metric {key} was not measured")
        metrics[key] = {"value": value, "unit": unit}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def save(res: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1, default=str) + "\n")


def smoke(seed: int) -> int:
    """One op per workload and mode, every check and control; exit 0 only if all hold."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            res = measure(name, seed, 0.0, trace, repeats=1)
            ok &= res["correct"]
            rejected = sum(v["rejected"] for v in res["controls"].values())
            print(f"smoke {name} trace={int(trace)}: correct={res['correct']} ops={res['attempted']} "
                  f"controls rejected {rejected}/{len(res['controls'])} "
                  f"({time.perf_counter() - t0:.1f} s)")
            for f in res["failures"]:
                print(f"  failure: {f}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr)
                return 1
            summary[f"{name}.trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "dae_transport" / "__init__.py").is_file():
        print(f"error: no dae_transport sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before NumPy loads; children inherit the cap
        os.environ[var] = str(NPROC)
    sys.path.insert(1, str(ROOT / "src"))

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.smoke:
        return smoke(args.seed)
    if args.env:
        from env import write_env_record

        return write_env_record(env_record())
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    trace = bool(args.trace)
    res = measure(args.workload, args.seed, args.seconds, trace,
                  IMPORT_REPEATS if trace else SETUP_REPEATS)
    save(res)
    env = res["env"]
    print(f"env: {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}, BLAS threads {NPROC}, commit {env['git_commit']}")
    print_table(f"{args.workload} seed={args.seed} trace={args.trace} correct={res['correct']} "
                f"attempted={res['attempted']} failed={res['failed']}", res["metrics"], res["controls"])
    for f in res["failures"]:
        print(f"  failure: {f}")
    print(json.dumps(result_line(res, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
