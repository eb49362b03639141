"""Seeded generation and persistence of inverse-temperature ensembles.

Samples are drawn around a target ``beta * omega`` with either a normal
or a Weibull shape.  Reproducibility is part of the contract, so the
generator is pinned explicitly rather than delegated to a platform
library: a SplitMix64 stream feeding a Box-Muller transform (cosine
branch, one deviate per uniform pair) for the normal shape and the
inverse CDF for the Weibull shape.  Non-positive draws are rejected and
redrawn.

Sample files are line-oriented text: a header line carrying the
generating spec as JSON, then one inverse temperature per line in
shortest-round-trip decimal form.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass

from .superstat import MultiLevelSuperstat, _check_omega

__all__ = [
    "BetaEnsembleSpec",
    "SplitMix64",
    "RejectionOverflowError",
    "sample_betas",
    "save_betas",
    "load_betas",
]

_MASK64 = (1 << 64) - 1
_MAX_CONSECUTIVE_REJECTIONS = 10**6


class RejectionOverflowError(ValueError):
    """No positive draw can come, or the rejection loop gave up waiting for one."""


class SplitMix64:
    """Fully specified 64-bit PRNG (SplitMix64), identical on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform_pos(self) -> float:
        """Uniform double in (0, 1], safe as a logarithm argument."""
        return ((self.next_uint64() >> 11) + 1) * 2.0**-53

    def normal(self, mean: float, sd: float) -> float:
        # Box-Muller, cosine branch only (one deviate per uniform pair).
        u1 = self.uniform_pos()
        u2 = self.uniform()
        return mean + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def weibull(self, scale: float, shape: float) -> float:
        # Inverse CDF: scale * (-ln(1 - u))^(1/shape).
        u = self.uniform()
        return scale * (-math.log1p(-u)) ** (1.0 / shape)


@dataclass(frozen=True)
class BetaEnsembleSpec:
    """Recipe for a random inverse-temperature ensemble.

    The distribution parameters (``mean``/``sd`` for the normal shape,
    ``scale``/``shape_param`` for the Weibull shape) describe the
    dimensionless ``beta * omega``; sampled inverse temperatures are
    ``beta_k = draw / omega``.  A Weibull ``scale`` of None picks the
    scale whose mean equals ``mean``.
    """

    shape: str
    count: int
    seed: int
    omega: float = 1.0
    mean: float = 3.0
    sd: float = 0.3
    scale: float | None = None
    shape_param: float = 2.0

    def __post_init__(self):
        if self.shape not in ("normal", "weibull"):
            raise ValueError(f"shape must be 'normal' or 'weibull', got {self.shape!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        _check_omega(self.omega)
        for name in ("mean", "sd", "scale", "shape_param"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.shape == "normal" and not self.sd > 0:
            raise ValueError(f"sd must be positive, got {self.sd}")
        if self.shape == "weibull":
            if not self.shape_param > 0:
                raise ValueError(f"shape_param must be positive, got {self.shape_param}")
            if self.scale is not None and not self.scale > 0:
                raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def effective_scale(self) -> float:
        """Weibull scale, defaulting to the value whose mean is ``mean``."""
        if self.scale is not None:
            return self.scale
        return self.mean / math.gamma(1.0 + 1.0 / self.shape_param)


def sample_betas(spec: BetaEnsembleSpec) -> MultiLevelSuperstat:
    """Draw the ensemble deterministically from (spec, seed).

    A normal spec whose largest possible draw is not positive is refused
    before the first draw; a Weibull spec whose draws leave the float
    range is refused naming ``shape_param`` and ``scale``.
    """
    rng = SplitMix64(spec.seed)
    betas = []
    try:
        if spec.shape == "normal":
            # the largest draw there is: u1 = 2**-53, the least uniform_pos gives, and u2 = 0
            top = spec.mean + spec.sd * math.sqrt(-2.0 * math.log(2.0**-53)) * math.cos(0.0)
            if top <= 0.0:
                raise RejectionOverflowError(
                    f"no normal draw can be positive: at --mean {spec.mean!r} and --sd "
                    f"{spec.sd!r} the largest possible draw is {top!r}"
                )
            draw = lambda: rng.normal(spec.mean, spec.sd)
        else:
            scale = spec.effective_scale
            draw = lambda: rng.weibull(scale, spec.shape_param)
        for _ in range(spec.count):
            rejections = 0
            value = draw()
            while value <= 0.0:
                rejections += 1
                if rejections > _MAX_CONSECUTIVE_REJECTIONS:
                    raise RejectionOverflowError(
                        f"{rejections} consecutive non-positive draws for spec {spec}"
                    )
                value = draw()
            betas.append(value / spec.omega)
    except OverflowError:  # only the Weibull gamma function and power raise it
        raise ValueError(
            f"weibull draws leave the float range at shape_param={spec.shape_param!r}, "
            f"scale={spec.scale!r}"
        ) from None
    return MultiLevelSuperstat(betas=tuple(betas), omega=spec.omega)


def _write_atomic(path, pieces) -> None:
    """Write the text ``pieces``, an iterable of ``str``, to ``path`` whole or not at all.

    The pieces go one at a time to a temporary file in the same directory,
    which then replaces ``path``, so a caller that yields its text in
    blocks never holds all of it; on failure, also one raised while the
    pieces are produced, the temporary file is removed and ``path`` is
    left as it was.  The kernel creates the file as ``open`` would, with
    ``0o666`` less the umask, and refuses a temporary name that exists,
    so no other file is ever removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".jcentropy-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_betas(
    path, model: MultiLevelSuperstat, spec: BetaEnsembleSpec | None = None
) -> None:
    """Write an ensemble (and its generating spec, if any) to a text file."""
    header = {
        "omega": model.omega,
        "count": len(model.betas),
        "spec": asdict(spec) if spec is not None else None,
    }
    head = "# " + json.dumps(header, sort_keys=True) + "\n"
    _write_atomic(path, itertools.chain((head,), (repr(b) + "\n" for b in model.betas)))


def load_betas(path) -> tuple[MultiLevelSuperstat, BetaEnsembleSpec | None]:
    """Read an ensemble file back; the value list round-trips bitwise.

    A malformed header or value raises :class:`ValueError` naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].startswith("# "):
        raise ValueError(f"{path}: missing '# <json>' header line")
    try:
        header = json.loads(raw[0][2:])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: header line is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header must be a JSON object, got {raw[0][2:]!r}")
    try:
        # float() and int() would take true as 1 and truncate a count of 2.5
        if isinstance(header.get("omega"), bool):
            raise TypeError(f"omega must be a number, got {header['omega']!r}")
        omega = float(header.get("omega", 1.0))
        count = header.get("count")
        if "count" in header and (isinstance(count, bool) or not isinstance(count, int)):
            raise TypeError(f"count must be an integer, got {count!r}")
        spec = header.get("spec")
        if spec is not None:
            spec = BetaEnsembleSpec(**spec)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header {raw[0][2:]!r}: {exc}") from None
    betas = []
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from exc
        if not 0.0 < value < math.inf:
            raise ValueError(f"{path}:{lineno}: beta must be finite and positive, got {value!r}")
        betas.append(value)
    if count is not None and len(betas) != count:
        raise ValueError(
            f"{path}: header declares {header['count']} values, found {len(betas)}"
        )
    try:
        model = MultiLevelSuperstat(betas=tuple(betas), omega=omega)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, spec
