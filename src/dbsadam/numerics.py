"""Dense float64 arithmetic, seeded RNG, a finite-difference gradient oracle,
the field type check of the frozen configs, and the CPU share that sets how
many processes train and how many threads search for neighbours.

Everything downstream (losses, optimizers, models, harness) builds on these
few primitives. All arrays are 64-bit floats; matrices are 2-D row-major
ndarrays, vectors are 1-D.
"""

from __future__ import annotations

import numbers
import os
import sys
import typing

import numpy as np

__all__ = [
    "finite_difference_gradient",
    "SeededRng",
]


def finite_difference_gradient(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a 1-D parameter vector.

    Used throughout the test suite as the independent oracle for analytic
    gradients. Raises if f evaluates non-finite at any probe, naming the
    offending coordinate.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        probe = theta.copy()
        probe[i] = theta[i] + h
        f_plus = float(f(probe))
        probe[i] = theta[i] - h
        f_minus = float(f(probe))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite function value at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set in a worker process of harness._train_runs, whose siblings hold the other CPUs
_in_pool_worker = False


def _free_cpus() -> int:
    """CPUs that BLAS leaves free: cpus // _blas_threads, at least 1.

    With BLAS at its default of one thread per CPU this is 1. It is also 1
    off Linux, where the CPU set is not read, and in a pool worker.
    """
    if _in_pool_worker or not sys.platform.startswith("linux"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, cpus // _blas_threads(cpus))


def _blas_threads(cpus: int) -> int:
    """Threads BLAS runs per process: the first positive value of
    _BLAS_THREAD_VARS, else one per CPU."""
    for var in _BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            return value
    return cpus


class SeededRng:
    """Deterministic random stream backed by the PCG64 generator.

    PCG64 is a published permuted-congruential generator with a fixed,
    platform-independent bit stream, so the same seed reproduces the same
    draws everywhere. Child streams are derived through SeedSequence spawn
    keys, which gives statistically independent substreams that depend only
    on (root seed, path), never on draw order.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = _path
        seq = np.random.SeedSequence(self.seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def child(self, key: int) -> "SeededRng":
        """Independent substream identified by an integer key."""
        return SeededRng(self.seed, self._path + (int(key),))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def random(self, size=None):
        """Uniform draws on [0, 1): the bits and stream of uniform(0.0, 1.0)."""
        return self._gen.random(size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, path={self._path})"


def _typed(key: str, value, target):
    """value as a field of type target: an int field takes an integer, a float
    field any real number, stored as a float (neither takes a bool), and a
    tuple field a list or tuple of its element type, stored as a tuple.
    Anything else raises ValueError naming the field key."""
    if typing.get_origin(target) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list or tuple, got {value!r}")
        return tuple(_typed(key, v, typing.get_args(target)[0]) for v in value)
    kind = {int: numbers.Integral, float: numbers.Real}.get(target, target)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{key} must be {target.__name__}, got {value!r}")
    return target(value)


def _set_typed_fields(config, types: dict) -> None:
    """Store each field of the frozen dataclass config named in types (field
    -> type) as a value of that type; see _typed."""
    for key, target in types.items():
        object.__setattr__(config, key, _typed(key, getattr(config, key), target))
