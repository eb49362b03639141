"""Write the outputs of a fixed set of CLI runs into one directory, for a byte-identity check.

Usage, from any directory::

    python tools/outputs.py <dir>

The runs use the ``jcentropy`` of the checkout that holds this script, in this
process, with ``<dir>`` as the working directory, so every path the outputs
record is relative and the same for any checkout.  They are:

* every command of the three benchmark workloads (``perfbench/workloads.py``)
  on seeds 1-3, each seed in ``<workload>/seed<N>/``;
* ``weights --q Q --beta 2.3978952727983707`` for Q in 1.2, 1.4, 1.6, 1.8 in
  ``weights/``; at Q >= 1.6 the default cap of 1e7 levels binds, where each
  table is 300 MB and a checkout that builds a table's whole text before
  writing it needs about 3.5 GB, so those two runs add ``--n-cap 100000``;
* ``weights --q 1.6 --beta 2.3978952727983707 --n-cap 1000000``, in CSV and
  in JSON, in ``weights/``: 1 000 001 rows, which the CLI writes in many row
  blocks with a short last one;
* a five-q ``calibrate``, in CSV and in JSON, in ``calibrate/``;
* six ``bloch-sweep`` runs in ``sweeps/``: a 3x3 gamma q=1.4 sweep over 4148
  levels and 900 samples (several groups, three reseed windows), a 5x7 gamma
  q=1.1 Tsallis(1.1) sweep over 24 levels (groups of 10 that score the full
  field), a Gibbs 9x13 sweep, a Gibbs 4x6 Tsallis coarse sweep in JSON, a Gibbs
  1x1 sweep and a Gibbs 300x301 sweep on 2 samples (90 300 points with repeated
  epsilons, in some 44 groups of 2048, so the walk order over the distinct ones
  shows);
* two ``timeseries`` runs of the same 4148-level q=1.4 state in ``traces/``,
  at 3 samples per chunk: ``--grid 6`` (exactly two full chunks, the second
  one rotated from the first) and ``--grid 9`` (the first recurrence step);
* a ``timeseries --config <sidecar>`` rerun of the seed-1 heavy trace and a
  ``bloch-sweep --config <sidecar>`` rerun of the 9x13 sweep in ``rerun/``;
* the stdout of ``selfcheck`` and of ``selfcheck --inject-perturbation 1e-6``;
* the ``--help`` text of the parser and of every subcommand, and the top-level
  help of ``-h timeseries``, at 80 columns;
* runs that are refused, so their usage text lands in ``runs.txt``: no
  arguments, ``bogus``, ``bloch-sweep --bogus``, ``timeseries --grid`` without
  its value, ``-- timeseries --gibbs``, ``- timeseries``, ``-1 bloch-sweep``,
  ``timeseries -- --gibbs`` and ``--bogus`` after each other subcommand; a
  parser of one command prints the usage line of all of them;
* ``--version``.

``runs.txt`` lists each run with its exit code and its stderr.  Every run
expects exit 0 except ``selfcheck --inject-perturbation``, which expects 4, and
the refusals, which expect 2; and
each ``--config`` rerun must write the very bytes of the table it reruns; the
script exits 1 and lists on stderr the runs that did otherwise, so two
checkouts that fail alike do not pass as identical.  Run the script on two
checkouts into two empty directories; ``diff -r`` between them is then the
whole check, and ``tools/compare_outputs.py`` says by how much each differing
file's numbers moved.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BETA = "2.3978952727983707"  # ln 11
SEEDS = (1, 2, 3)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"  # argparse wraps its help text to the terminal width
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from jcentropy.cli import _COMMANDS
    from jcentropy.cli import main as cli_main
    from workloads import WORKLOADS

    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    log = []
    unexpected = []

    def run(args: list[str], stdout_file: str | None = None, expect: int = 0) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli_main(args)
            except SystemExit as exc:  # --help, and argparse's own refusals
                code = exc.code
        if stdout_file is not None:
            Path(stdout_file).write_text(stdout.getvalue(), encoding="utf-8")
        log.append(f"$ jcentropy {' '.join(args)}\nexit {code}\n{stderr.getvalue()}")
        if code != expect:
            unexpected.append(f"jcentropy {' '.join(args)}: exit {code}, expected {expect}")

    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            directory = Path(name, f"seed{seed}")
            directory.mkdir(parents=True, exist_ok=True)
            for args in workload(seed, str(directory)).commands:
                run(args)
    Path("weights").mkdir(exist_ok=True)
    for q in ("1.2", "1.4", "1.6", "1.8"):
        cap = ["--n-cap", "100000"] if float(q) >= 1.6 else []
        run(["weights", "--q", q, "--beta", BETA, *cap, "--out", f"weights/q{q}.csv"])
    for fmt in ("csv", "json"):
        run(["weights", "--q", "1.6", "--beta", BETA, "--n-cap", "1000000", "--format", fmt,
             "--out", f"weights/q1.6-1e6.{fmt}"])
    Path("calibrate").mkdir(exist_ok=True)
    calibrate = ["calibrate", "--q", "gibbs,1.2,1.4,1.6,1.8", "--grid", "0.5:10:50"]
    run([*calibrate, "--out", "calibrate/cal.csv"])
    run([*calibrate, "--format", "json", "--out", "calibrate/cal.json"])
    Path("sweeps").mkdir(exist_ok=True)
    run(["bloch-sweep", "--q", "1.4", "--beta", BETA, "--tail-tol", "1e-6", "--n-cap", "4147",
         "--t-samples", "900", "--grid", "3x3", "--out", "sweeps/gamma3x3.csv"])
    run(["bloch-sweep", "--q", "1.1", "--beta", BETA, "--entropy", "tsallis", "--entropy-q", "1.1",
         "--grid", "5x7", "--out", "sweeps/gamma-q1.1-5x7.csv"])
    gibbs = ["bloch-sweep", "--gibbs", "--beta", BETA]
    run([*gibbs, "--grid", "9x13", "--out", "sweeps/gibbs9x13.csv"])
    run([*gibbs, "--grid", "4x6", "--format", "json", "--entropy", "tsallis", "--entropy-q", "1.3",
         "--field-entropy", "coarse", "--out", "sweeps/gibbs4x6.json"])
    run([*gibbs, "--grid", "1x1", "--out", "sweeps/gibbs1x1.csv"])
    run([*gibbs, "--grid", "300x301", "--t-samples", "2", "--T", "1",
         "--out", "sweeps/gibbs300x301.csv"])
    Path("traces").mkdir(exist_ok=True)
    for grid in ("6", "9"):
        run(["timeseries", "--q", "1.4", "--beta", BETA, "--tail-tol", "1e-6", "--n-cap", "4147",
             "--grid", grid, "--out", f"traces/gamma-grid{grid}.csv"])
    Path("rerun").mkdir(exist_ok=True)
    run(["timeseries", "--config", "heavy_tail_trace/seed1/trace.csv.meta.json",
         "--out", "rerun/trace.csv"])
    run(["bloch-sweep", "--config", "sweeps/gibbs9x13.csv.meta.json", "--out", "rerun/sweep.csv"])
    for rerun, table in (("rerun/trace.csv", "heavy_tail_trace/seed1/trace.csv"),
                         ("rerun/sweep.csv", "sweeps/gibbs9x13.csv")):
        try:
            same = Path(rerun).read_bytes() == Path(table).read_bytes()
        except OSError:  # a run that wrote no table, listed by its exit code
            same = False
        if not same:
            unexpected.append(f"{rerun} differs from {table}, the table it reruns")
    run(["selfcheck"], "selfcheck.txt")
    run(["selfcheck", "--inject-perturbation", "1e-6"], "selfcheck-perturbed.txt", expect=4)
    Path("help").mkdir(exist_ok=True)
    run(["--help"], "help/jcentropy.txt")
    for command in _COMMANDS:
        run([command, "--help"], f"help/{command}.txt")
    run(["-h", "timeseries"], "help/h-timeseries.txt")
    for refused in ([], ["bogus"], ["bloch-sweep", "--bogus"], ["timeseries", "--grid"],
                    ["--", "timeseries", "--gibbs"], ["-", "timeseries"], ["-1", "bloch-sweep"],
                    ["timeseries", "--", "--gibbs"],
                    *([command, "--bogus"] for command in _COMMANDS if command != "bloch-sweep")):
        run(refused, expect=2)
    run(["--version"])
    Path("runs.txt").write_text("\n".join(log), encoding="utf-8")
    if unexpected:
        print("outputs: runs that ended with an unexpected exit code or table:", *unexpected,
              sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
