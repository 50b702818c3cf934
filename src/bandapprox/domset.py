"""Randomized dominating-set sampling and its closed-form sample sizes.

A uniformly random set of ``kprime_size`` vertices is a two-hop dominating
set of a delta-dense graph with probability at least ``(1-ALPHA)^2``; the
Las-Vegas wrapper below retries a deterministic seed sequence until a draw
certifies, so downstream code only ever sees verified root sets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .graph import Graph, hop_balls
# Not called here; bound because perfbench/tracer.py wraps this name in this
# module.
from .graph import bfs_from_set  # noqa: F401
from .util import ceil_snapped

# failure budget and slack constant of the sample sizes
ALPHA = 0.5
C = 1.0
# draws sample_certified tries before it gives up
DEFAULT_MAX_TRIES = 50


class CertificationError(RuntimeError):
    """No sampled set certified within the allotted tries.

    Usually a signal that the requested size is too small for the graph's
    actual density (or that the graph cannot be dominated at this radius at
    all, e.g. it is disconnected and the draws keep missing a component).
    """

    def __init__(self, attempts: int, size: int, hop_radius: int) -> None:
        super().__init__(
            f"no {hop_radius}-hop dominating set of size {size} found "
            f"in {attempts} attempts"
        )
        self.attempts = attempts
        self.size = size
        self.hop_radius = hop_radius


@dataclass(frozen=True)
class SamplingParams:
    """The density ``delta`` the sample sizes assume.

    ``delta`` is a constant strictly between 0 and 1, or ``None`` meaning
    "measure it from the input graph".
    """

    delta: float | None = None

    def __post_init__(self) -> None:
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")


@dataclass(frozen=True)
class RootSet:
    """A sampled candidate root set.

    ``roots`` are strictly ascending and nonnegative: the search indexes
    roots by their position in this tuple.  ``certified`` means domination
    at ``hop_radius`` has been verified against the graph; ``attempts``
    records how many draws certification took (when it was produced by
    :func:`sample_certified`).
    """

    roots: tuple[int, ...]
    hop_radius: int
    certified: bool = False
    attempts: int | None = None

    def __post_init__(self) -> None:
        if self.hop_radius not in (1, 2):
            raise ValueError("hop_radius must be 1 or 2")
        if not self.roots:
            raise ValueError("root set must be nonempty")
        if self.roots[0] < 0 or any(u >= v for u, v in zip(self.roots, self.roots[1:])):
            raise ValueError(f"roots must be strictly ascending and nonnegative, got {self.roots}")


def _size_from_logs(numerator: float, delta: float | None) -> int:
    if delta is None:
        raise ValueError("delta is unset; measure it from the graph or set it")
    value = math.log(numerator) / math.log(1.0 / (1.0 - delta))
    return max(1, ceil_snapped(value))


def k_size(n: int, params: SamplingParams) -> int:
    """Sample size making the expected undominated count at most ALPHA.

    ``ceil(log(n/ALPHA) / log(1/(1-delta)))``, which is O(log n) for
    constant delta.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return _size_from_logs(n / ALPHA, params.delta)


def kprime_size(n: int, params: SamplingParams) -> int:
    """Sample size whose draw two-hop dominates with probability (1-ALPHA)^2.

    ``ceil(log(k*C/ALPHA) / log(1/(1-delta)))`` with ``k = k_size(n)``;
    this is the O(log log n)-scale set that drives both pipelines.
    """
    k = k_size(n, params)
    return _size_from_logs(k * C / ALPHA, params.delta)


def is_dominating(g: Graph, rs: RootSet) -> bool:
    """Exact check that every vertex lies within ``hop_radius`` of the roots:
    one multi-source :func:`~bandapprox.graph.hop_balls` reach on the
    adjacency bitsets."""
    return hop_balls(g, rs.roots, rs.hop_radius)[-1] == (1 << g.n) - 1


def sample_certified(g: Graph, size: int, seed: int, hop_radius: int = 2) -> RootSet:
    """First draw from a deterministic seed sequence that certifies.

    Draws advance one RNG stream, so the result is reproducible per seed.
    Raises :class:`CertificationError` after ``DEFAULT_MAX_TRIES`` failures.
    """
    if not 1 <= size <= g.n:
        raise ValueError(f"size must be in 1..{g.n}, got {size}")
    rng = random.Random(seed)
    for attempt in range(1, DEFAULT_MAX_TRIES + 1):
        roots = tuple(sorted(rng.sample(range(g.n), size)))
        rs = RootSet(roots=roots, hop_radius=hop_radius, attempts=attempt)
        if is_dominating(g, rs):
            return replace(rs, certified=True)
    raise CertificationError(DEFAULT_MAX_TRIES, size, hop_radius)
