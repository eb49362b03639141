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

import errno
import itertools
import json
import math
import os
import pickle
import warnings
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


# bytes copied at a time when a part file is appended to its output
COPY_BYTES = 2**16


def _write_atomic(files: dict) -> None:
    """Write each ``path -> parts`` of ``files`` whole, or leave every path as it was.

    A file's text is ``parts``, a sequence of iterables of ``str``, in
    order.  Each file is written to a temporary file in its own directory,
    one piece at a time, so a caller that yields its text in blocks never
    holds all of it.  The first part is written by this process; each later
    one by a forked child (see :func:`_fork_part`) into a part file of its
    own meanwhile, which is then appended in bounded copies.  Only once
    every temporary file is whole and no path is a directory does each
    replace its path.  On failure, also one raised while the pieces are
    produced here or in a child, the child's exception is raised here, every
    child is reaped, the temporary files are removed and the paths are left
    as they were.  The kernel creates the file as ``open`` would, with
    ``0o666`` less the umask, and refuses a temporary or part name that
    exists, so no other file is ever removed.
    """
    staged = []  # (temporary name, path) of each file written so far
    try:
        for path, parts in files.items():
            directory = os.path.dirname(os.path.abspath(path))
            stem = os.path.join(directory, f".jcentropy-{os.urandom(8).hex()}")
            fd = os.open(stem + ".tmp", os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((stem + ".tmp", path))
            _write_parts(fd, parts, stem)
        # checked before any path moves: os.replace would refuse a directory
        # only after the paths before it had moved
        for _, path in staged:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _write_parts(fd: int, parts, stem: str) -> None:
    """Write ``parts`` to the new file ``fd``: the first here, each later one in a child."""
    children = []  # [pid, report fd, part fd] of each later part, in order
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for i, pieces in enumerate(parts[1:], start=1):
                # the name claims a file on the output's file system; the
                # descriptors hold it, so no name outlives this call
                name = f"{stem}.{i}.part"
                part_fd = os.open(name, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
                os.unlink(name)
                children.append([0, -1, part_fd])  # pid and pipe set once forked
                children[-1][:2] = _fork_part(part_fd, pieces)
            for piece in parts[0]:
                fh.write(piece)
            fh.flush()
            for i, child in enumerate(children, start=1):
                pid, report, part_fd = child
                with open(report, "rb", closefd=False) as pipe:
                    failure = pipe.read()  # ends when the child exits
                _, status = os.waitpid(pid, 0)
                child[0] = 0
                if failure:
                    raise pickle.loads(failure)  # written by the child, from its own exception
                if status:
                    raise ChildProcessError(f"the writer of part {i} ended with wait status {status}")
                offset = 0
                while chunk := os.pread(part_fd, COPY_BYTES, offset):
                    fh.buffer.write(chunk)
                    offset += len(chunk)
    finally:
        for pid, report, part_fd in children:
            if pid:
                import signal  # here, as only a failed write kills a child: 1 ms off every start

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if report >= 0:
                os.close(report)
            os.close(part_fd)


def _fork_part(fd: int, pieces) -> tuple[int, int]:
    """Fork a child that writes the text ``pieces`` to ``fd`` and exits.

    Returns the child's pid and the read end of a pipe that carries its
    exception, pickled, if it fails.  The child formats and writes only:
    it runs no BLAS call, imports nothing, prints nothing, and leaves by
    ``os._exit``, so no buffer or exit handler of this process runs twice.
    """
    report, w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork while other threads (the BLAS pool)
        # exist, as the child might wait on a lock one of them held; this
        # child takes none of their locks, as it calls no BLAS and imports nothing
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        try:
            pid = os.fork()
        except BaseException:
            os.close(report)
            os.close(w)
            raise
    if pid == 0:
        status = 1
        try:
            os.close(report)
            with open(fd, "w", encoding="utf-8", closefd=False) as fh:
                for piece in pieces:
                    fh.write(piece)
            status = 0
        except BaseException as exc:
            try:
                with open(w, "wb", closefd=False) as pipe:
                    pickle.dump(exc, pipe)
            except BaseException:  # an exception that does not pickle ends in the status
                pass
        finally:
            os._exit(status)  # the child never returns into the caller's frames
    os.close(w)
    return pid, report


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
    _write_atomic({path: [itertools.chain((head,), (repr(b) + "\n" for b in model.betas))]})


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
