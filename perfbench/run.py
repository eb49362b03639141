"""jcentropy benchmark: drives ``jcentropy.cli.main`` in-process on seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload heavy_tail_trace --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Load model: a closed loop with one caller.  Each iteration runs the workload's
command sequence one command at a time in this process; no threads or worker
processes run the workload.  One warm-up iteration precedes the timed ones, and
iterations repeat until ``--seconds`` is used up (at least three are timed).

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over fresh interpreters of the time to import
               ``jcentropy.cli`` and build its parser
  wall_s       median wall time of one iteration, tracing off
  peak_rss_mb  peak resident memory of this process, a fresh interpreter that
               ran the workload (read before the output checks)
Both times are host-scaled: on a shared host the speed of the same code drifts
by up to half within minutes, so a fixed reference loop is timed before and
after every sample, and each sample is rescaled to a host on which that loop
takes ``REF_NOMINAL_S`` (see ``HostScaled``).  The raw medians and the
reference time are printed as diagnostics.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer self times and work counters (see ``tracing.py``), the fresh-process
scipy import time, and the tracing overhead.

Every command's outputs are checked after the loop (``workloads.py``).  An
operation is one CLI command; it fails on a non-zero exit code, an exception,
an output that differs between iterations, or an output that fails a check.
The last stdout line is one JSON object; the exit code is 1 when any operation
failed.  Outputs, the run record and the spans go to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("heavy_tail_trace", "gibbs_bloch_sweep", "thermal_tables")
MIN_SAMPLES = 3
SETUP_PROCESSES = 7
SCIPY_PROCESSES = 3
REF_NOMINAL_S = 0.25  # reference time on the nominal host that setup_s and wall_s are scaled to
REF_SHARE = 0.1  # least reference time after a sample, as a share of the sample

SETUP_SNIPPET = """
import time
t = time.perf_counter()
import jcentropy.cli
jcentropy.cli.build_parser()
print(repr(time.perf_counter() - t))
"""
SCIPY_SNIPPET = """
import time
import numpy
t = time.perf_counter()
import scipy.optimize, scipy.integrate
print(repr(time.perf_counter() - t))
"""


def fresh_process_seconds(snippet: str) -> float:
    """Run ``snippet`` in a fresh interpreter; it prints the seconds it measured."""
    res = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, capture_output=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), text=True, timeout=60,
                         check=True)
    return float(res.stdout.strip().splitlines()[-1])


def reference_seconds() -> float:
    """Time a fixed mix of the kinds of work jcentropy does.

    Large-array ufuncs, small-array NumPy calls, an interpreter loop and float
    formatting.  It shares no code with jcentropy, so its time follows only the
    host's momentary speed, which on a shared host drifts by half within minutes.
    """
    t = perf_counter()
    big = np.linspace(0.0, 1.0, 100_000)
    for k in range(120):
        np.cos(big * k)
    small = np.linspace(0.1, 0.9, 8)
    for _ in range(6000):
        float(np.sum(small * np.log(small)))
    acc = 0
    for i in range(200_000):
        acc += i * i
    ",".join(repr(v) for v in np.tile(big, 2)[::5].tolist())
    return perf_counter() - t


class HostScaled:
    """Time samples, each bracketed by reference timings.

    ``scaled()`` rescales every sample to a host on which the reference takes
    ``REF_NOMINAL_S``, using the mean of the reference timings just before and
    just after it.  This removes the host's drift while keeping the program's
    own changes: a program twice as slow reads twice as slow.  After a sample
    the reference repeats until it has run for ``REF_SHARE`` of that sample,
    so that a long sample is not scaled by a short, noisy probe.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.refs = [reference_seconds()]

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        probes = [reference_seconds()]
        while sum(probes) < REF_SHARE * seconds:
            probes.append(reference_seconds())
        self.refs.append(statistics.mean(probes))

    def scaled(self) -> list[float]:
        return [REF_NOMINAL_S * 2.0 * s / (a + b)
                for s, a, b in zip(self.raw, self.refs, self.refs[1:])]


def code_digest() -> str:
    """Digest of the program's sources, so counters are compared only between runs of one code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "jcentropy").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import scipy

    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": read(cache.format(2)).strip() or "unknown",
        "l3": read(cache.format(3)).strip() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest percentile with at least ten samples beyond it (else the maximum)."""
    for pct in (99, 95, 90, 75, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return 100, max(samples)


class Runner:
    """Runs a plan's iterations and keeps the per-operation outcome of each."""

    def __init__(self, plan, cli):
        self.plan = plan
        self.cli = cli
        self.outcomes: list[list[bool]] = []  # [iteration][command] -> ok
        self.errors: list[str] = []
        self._digests = None

    def iteration(self, tracer=None) -> tuple[float, float]:
        """One pass over the commands; returns (wall s, cpu s)."""
        codes = []
        t0, c0 = perf_counter(), process_time()
        for argv in self.plan.commands:
            try:
                if tracer is None:
                    codes.append(self.cli.main(argv))
                else:
                    codes.append(tracer.call("cli.main", self.cli.main, argv))
            except (Exception, SystemExit) as exc:  # an operation failure, not a crash
                codes.append(f"{type(exc).__name__}: {exc}")
        wall, cpu = perf_counter() - t0, process_time() - c0
        digests = [self._digest(files) for files in self.plan.files]
        if self._digests is None:
            self._digests = digests
        ok = []
        for argv, code, digest, first in zip(self.plan.commands, codes, digests, self._digests):
            if code != 0:
                self.errors.append(f"{argv[0]}: exit {code}")
            elif digest is None:
                self.errors.append(f"{argv[0]}: an output file is missing")
            elif digest != first:
                self.errors.append(f"{argv[0]}: output differs between iterations")
            ok.append(code == 0 and digest is not None and digest == first)
        self.outcomes.append(ok)
        return wall, cpu

    @staticmethod
    def _digest(files: list[str]):
        h = hashlib.sha256()
        for path in files:
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                return None
        return h.hexdigest()

    def fail_command(self, command: int) -> None:
        """A checked output is wrong, so the command failed in every iteration."""
        for ok in self.outcomes:
            ok[command] = False


def timed_loop(seconds: float, step, min_samples: int) -> None:
    """Call ``step`` until the next call would likely overrun ``seconds``."""
    start = perf_counter()
    durations = []
    while len(durations) < min_samples or (
            perf_counter() - start + statistics.median(durations) <= seconds):
        t = perf_counter()
        step()
        durations.append(perf_counter() - t)


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import jcentropy

    if Path(jcentropy.__file__).resolve().parent != SRC / "jcentropy":
        print(f"perfbench: imported jcentropy from {jcentropy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import jcentropy.cli as cli
    import workloads

    out = RUN_DIR / args.workload / f"seed{args.seed}-trace{args.trace}"
    try:
        previous = json.loads((out / "record.json").read_text())
    except (OSError, ValueError):
        previous = {}
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plan = workloads.WORKLOADS[args.workload](args.seed, str(out))
    runner = Runner(plan, cli)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commands": plan.commands, "machine": machine_facts()}
    metrics: dict[str, tuple[float, str]] = {}
    diag: dict[str, object] = {}

    runner.iteration()  # warm-up: caches, lazy imports, first-touch allocation
    if args.trace == 0:
        setup = HostScaled()
        for _ in range(SETUP_PROCESSES):
            setup.add(fresh_process_seconds(SETUP_SNIPPET))
        walls, cpus = HostScaled(), []

        def step():
            wall, cpu = runner.iteration()
            walls.add(wall)
            cpus.append(cpu)

        timed_loop(args.seconds, step, MIN_SAMPLES)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pct, tail = tail_percentile(walls.scaled())
        metrics = {
            "setup_s": (statistics.median(setup.scaled()), "s"),
            "wall_s": (statistics.median(walls.scaled()), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        diag.update({
            "setup_s.samples": len(setup.raw),
            "setup_s.raw_median": statistics.median(setup.raw),
            "wall_s.samples": len(walls.raw),
            f"wall_s.p{pct}": tail,
            "wall_s.raw_median": statistics.median(walls.raw),
            "cpu_s.raw_median": statistics.median(cpus),
            "reference_s.median": statistics.median(walls.refs + setup.refs),
        })
        record.update(setup_samples=vars(setup), wall_samples=vars(walls), cpu_samples=cpus)
    else:
        import tracing

        tracer = tracing.Tracer()
        plain, traced, layers = [], [], []

        def step():
            plain.append(runner.iteration()[0])
            tracer.reset()
            tracer.install()
            try:
                traced.append(runner.iteration(tracer)[0])
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())

        timed_loop(args.seconds, step, 2)
        counts = [{k: v for k, v in m.items() if k in tracing.COUNTERS} for m in layers]
        if any(c != counts[0] for c in counts):
            runner.errors.append("work counters differ between traced iterations")
            for command in range(len(plan.commands)):
                runner.fail_command(command)
        for name in tracing.SELF_TIMES:
            metrics[name] = (statistics.median(m[name] for m in layers), "s")
        for name in tracing.COUNTERS:
            metrics[name] = (counts[0][name], "bytes" if name.startswith("jcm.bytes") else "count")
        metrics["cli.rows_emitted"] = (
            sum(workloads.table_rows(p) for t in plan.tables for p in t), "count")
        metrics["cli.bytes_written"] = (
            sum(os.path.getsize(p) for f in plan.files for p in f), "bytes")
        counters = {k: metrics[k][0] for k in (*tracing.COUNTERS, "cli.rows_emitted",
                                               "cli.bytes_written")}
        diag["counters.previous_run"] = "none"
        if previous.get("code_digest") == code_digest() and "counters" in previous:
            same = previous["counters"] == counters
            diag["counters.previous_run"] = "identical" if same else "differ"
            if not same:
                runner.errors.append("work counters differ from the previous run of the "
                                     "same code and seed")
                for command in range(len(plan.commands)):
                    runner.fail_command(command)
        record.update(counters=counters, code_digest=code_digest())
        scipy_s = [fresh_process_seconds(SCIPY_SNIPPET) for _ in range(SCIPY_PROCESSES)]
        metrics["setup.scipy_import_s"] = (statistics.median(scipy_s), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        diag.update({
            "traced_iterations": len(traced),
            "untraced_iterations": len(plain),
            "scipy_import.samples": len(scipy_s),
            "trace.absent_hooks": ",".join(tracer.absent) or "none",
        })
        record.update(traced_samples=traced, untraced_samples=plain, layers=layers)
        with gzip.open(out / "spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)

    try:
        checks, sizes = plan.run_checks()
    except Exception as exc:  # a malformed output must read as a failure, not a crash
        checks, sizes = [], {}
        runner.errors.append(f"output checks raised {type(exc).__name__}: {exc}")
        for command in range(len(plan.commands)):
            runner.fail_command(command)
    for check in checks:
        if not check.ok:
            runner.fail_command(check.command)
            runner.errors.append(f"{check.name}: {check.deviation!r} > {check.tol!r}")

    attempted = sum(len(ok) for ok in runner.outcomes)
    failed = sum(not x for ok in runner.outcomes for x in ok)
    correct = failed == 0 and not runner.errors
    diag["failed_frac"] = failed / attempted
    record.update(sizes=sizes, errors=runner.errors, diagnostics=diag,
                  checks=[vars(c) for c in checks],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (out / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for path in (p for files in plan.files for p in files):
        if os.path.exists(path):
            os.unlink(path)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print("sizes " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    for check in checks:
        print(f"{check.name} {check.deviation:.3e} tol {check.tol:g} "
              f"{'ok' if check.ok else 'FAIL'}")
    for name, value in diag.items():
        print(f"diag {name} {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    for err in dict.fromkeys(runner.errors):
        print(f"error {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(res.stdout)
            sys.stderr.write(res.stderr)
            worst = max(worst, res.returncode)
            try:
                result = json.loads(res.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                total["correct"] = False
                continue
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update(
                {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return worst if worst else (0 if total["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jcentropy" / "cli.py").is_file():
        print(f"perfbench: no jcentropy sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
