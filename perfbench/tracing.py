"""Spans and work counters around the public functions of each jcentropy layer.

The wrappers live here, not in the program: each is installed on the attribute
the calling module looks up (``jcentropy.superstat.hurwitz_zeta_scaled``,
``BlockEvolver.coefficients``, ...) and removed again afterwards.  A hook whose
target no longer exists is reported as absent; its metrics then read zero.

A span is ``[name, start, end, parent]``; spans stay in memory until the run
writes them out.  A span's self time is its duration minus the durations of its
direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import jcentropy.cli as cli
import jcentropy.entropy as entropy
import jcentropy.jcm as jcm
import jcentropy.superstat as superstat

# computed, not measured: 8-byte floats over the five per-level constant arrays
# the kernel reads (delta_n, a0, a1, c0, c1) and the two it returns (a, c);
# temporaries and cache misses are ignored
KERNEL_ARRAYS = 7

# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "specfun.zeta_s": ("specfun.zeta",),
    "superstat.calibrate_s": ("superstat.calibrate", "superstat.physical_beta"),
    "superstat.weights_s": ("superstat.weights",),
    "jcm.evolver_init_s": ("jcm.evolver_init",),
    "jcm.coefficients_s": ("jcm.coefficients",),
    "entropy.entropy_of_s": ("entropy.entropy_of",),
    "entropy.trace_self_s": ("entropy.trace",),
    "entropy.time_average_s": ("entropy.time_average",),
    "ensemble.sample_s": ("ensemble.sample",),
    "ensemble.io_s": ("ensemble.io",),
    "cli.self_s": ("cli.main",),
}

COUNTERS = (
    "specfun.zeta_calls",
    "superstat.physical_beta_calls",
    "superstat.levels",
    "jcm.evolver_init_calls",
    "jcm.coefficients_calls",
    "jcm.level_steps",
    "jcm.bytes_computed",
    "entropy.entropy_of_calls",
    "entropy.entropy_of_elements",
    "entropy.bloch_points",
    "entropy.bloch_distinct_eps",
    "ensemble.betas",
)


class Tracer:
    """Records spans and counters while its hooks are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bloch_eps: set[float] = set()
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new iteration: drop spans and counters, keep the hooks."""
        self.spans = []
        self.counts = Counter()
        self._bloch_eps = set()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return wrapper

    def hook(self, owner, attr: str, name: str, count=None) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(label)
            return
        setattr(owner, attr, self._wrap(name, original, count))
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        evolver = getattr(jcm, "BlockEvolver", None)
        hooks = [
            (superstat, "hurwitz_zeta_scaled", "specfun.zeta", _bump("specfun.zeta_calls")),
            (superstat, "physical_beta", "superstat.physical_beta",
             _bump("superstat.physical_beta_calls")),
            (cli, "physical_beta", "superstat.physical_beta",
             _bump("superstat.physical_beta_calls")),
            (cli, "calibrate_beta_star", "superstat.calibrate", None),
            (cli, "photon_weights_gamma", "superstat.weights", _count_levels),
            (cli, "photon_weights_gibbs", "superstat.weights", _count_levels),
            (cli, "photon_weights_multilevel", "superstat.weights", _count_levels),
            (evolver, "__init__", "jcm.evolver_init", _bump("jcm.evolver_init_calls")),
            (evolver, "coefficients", "jcm.coefficients", _count_kernel),
            (entropy, "entropy_of", "entropy.entropy_of", _count_entropy_of),
            (entropy, "entropy_trace", "entropy.trace", _count_bloch_point),
            (cli, "entropy_trace", "entropy.trace", None),
            (entropy, "time_average", "entropy.time_average", None),
            (cli, "bloch_sweep", "entropy.bloch_sweep", None),
            (cli, "sample_betas", "ensemble.sample", _count_betas),
            (cli, "save_betas", "ensemble.io", None),
            (cli, "load_betas", "ensemble.io", None),
        ]
        for owner, attr, name, count in hooks:
            if owner is None:
                self.absent.append(f"jcentropy.jcm.BlockEvolver.{attr}")
            else:
                self.hook(owner, attr, name, count)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times (s) and work counters of the recorded iteration."""
        totals = self.self_times()
        out = {metric: sum(totals.get(n, 0.0) for n in names)
               for metric, names in SELF_TIMES.items()}
        counts = dict(self.counts)
        counts["entropy.bloch_distinct_eps"] = len(self._bloch_eps)
        out.update({name: int(counts.get(name, 0)) for name in COUNTERS})
        return out


def _bump(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1
    return count


def _count_levels(tracer, args, kwargs, result):
    tracer.counts["superstat.levels"] += int(result.weights.size)


def _count_kernel(tracer, args, kwargs, result):
    levels = int(np.size(result[0]))
    tracer.counts["jcm.coefficients_calls"] += 1
    tracer.counts["jcm.level_steps"] += levels
    tracer.counts["jcm.bytes_computed"] += 8 * KERNEL_ARRAYS * levels


def _count_entropy_of(tracer, args, kwargs, result):
    tracer.counts["entropy.entropy_of_calls"] += 1
    p = args[0] if args else kwargs["p"]
    tracer.counts["entropy.entropy_of_elements"] += int(np.size(p))


def _count_bloch_point(tracer, args, kwargs, result):
    parent = tracer._stack[-1] if tracer._stack else -1
    if parent >= 0 and tracer.spans[parent][0] == "entropy.bloch_sweep":
        tracer.counts["entropy.bloch_points"] += 1
        atom = args[1] if len(args) > 1 else kwargs["atom"]
        tracer._bloch_eps.add(atom.epsilon)


def _count_betas(tracer, args, kwargs, result):
    tracer.counts["ensemble.betas"] += len(result.betas)
