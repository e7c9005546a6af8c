"""Client participation schemes.

The paper uses full participation (20 or 100 clients); uniform subsampling
is provided for partial-participation experiments, availability sampling
models heterogeneous device uptime, and reservoir sampling selects a
fixed-size cohort from an arbitrarily large population in one streaming
pass (the scheme :mod:`repro.federation`'s async coordinator uses).

Every scheme implements the :class:`ParticipationScheme` protocol and is
registered by name in :data:`PARTICIPATION_SCHEMES`, so configs and the CLI
can select one with a string — an unknown name fails with the full list of
registered kinds (mirroring the attack registry).

``active`` may be any integer :class:`~typing.Sequence`, including a
``range`` or the :class:`RangeExcluding` view :func:`exclude_ids` builds
when a strategy expels clients — schemes must not materialise it, so
selecting 20 clients from a million-id population costs O(cohort), not
O(population), memory.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Protocol,
    Sequence,
    Type,
    runtime_checkable,
)

import numpy as np


class RangeExcluding(Sequence[int]):
    """``ids`` without ``excluded``, as a lazy sequence.

    Yields exactly ``[c for c in ids if c not in excluded]`` — same ids,
    same order — but stores only the excluded positions: ``len`` is O(1),
    indexing O(log expelled) and ``in`` O(log expelled).  Excluded ids
    outside ``ids`` are ignored.
    """

    def __init__(self, ids: range, excluded: Iterable[int]) -> None:
        self._ids = ids
        #: Positions in ``ids`` of the excluded clients, ascending.
        self._holes = sorted({ids.index(cid) for cid in excluded if cid in ids})
        #: ``_kept_before[k]``: kept ids that precede hole k (non-decreasing).
        self._kept_before = [pos - k for k, pos in enumerate(self._holes)]

    def __len__(self) -> int:
        return len(self._ids) - len(self._holes)

    def __getitem__(self, index: int) -> int:
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("RangeExcluding index out of range")
        # Every hole with at most i kept ids before it precedes kept id i.
        return self._ids[i + bisect_right(self._kept_before, i)]

    def __iter__(self) -> Iterator[int]:
        start = 0
        for hole in self._holes:
            yield from self._ids[start:hole]
            start = hole + 1
        yield from self._ids[start:]

    def __contains__(self, client_id: object) -> bool:
        if client_id not in self._ids:
            return False
        pos = self._ids.index(client_id)
        k = bisect_left(self._holes, pos)
        return k == len(self._holes) or self._holes[k] != pos


def exclude_ids(ids: Sequence[int], excluded: AbstractSet[int]) -> Sequence[int]:
    """The ids of ``ids`` not in ``excluded``, in order.

    ``ids`` itself when nothing is excluded, a :class:`RangeExcluding` view
    when ``ids`` is a ``range`` (so a registry's million-id population is
    never materialised), and the filtered list otherwise.
    """
    if not excluded:
        return ids
    if isinstance(ids, range):
        return RangeExcluding(ids, excluded)
    return [cid for cid in ids if cid not in excluded]


@runtime_checkable
class ParticipationScheme(Protocol):
    """The selection interface the round loop and async coordinator call.

    ``select`` returns the ids participating in round ``round_index``,
    drawn from ``active`` using only ``rng`` (so selections are a pure
    function of the seed and the call sequence).
    """

    def select(
        self, active: Sequence[int], round_index: int, rng: np.random.Generator
    ) -> List[int]: ...


class FullParticipation:
    """Every active client participates every round (the paper's setting)."""

    def select(self, active: Sequence[int], round_index: int, rng: np.random.Generator) -> List[int]:
        return list(active)


class UniformSampling:
    """A uniform random fraction of active clients participates each round."""

    def __init__(self, fraction: float) -> None:
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def select(self, active: Sequence[int], round_index: int, rng: np.random.Generator) -> List[int]:
        if not len(active):
            raise ValueError(
                "cannot sample participants from an empty active-client set "
                "(every client has been expelled or filtered out)"
            )
        count = max(1, round(self.fraction * len(active)))
        chosen = rng.choice(len(active), size=min(count, len(active)), replace=False)
        return sorted(active[i] for i in chosen)


class AvailabilitySampling:
    """Each client is independently available with its own probability.

    Models heterogeneous, correlated-in-expectation client availability
    (edge devices charging / on wifi), cf. Rodio et al. (2023) cited by the
    paper.  If nobody is available in a round, one uniformly random client
    is drafted so training never stalls.

    Draws one uniform per active client, so selection is O(population) —
    fine at the paper's scale, but prefer :class:`ReservoirSampling` for
    registry-scale populations.
    """

    def __init__(self, availability: dict[int, float] | float = 0.8) -> None:
        if isinstance(availability, (int, float)):
            if not 0 < availability <= 1:
                raise ValueError(f"availability must be in (0, 1], got {availability}")
        else:
            for cid, prob in availability.items():
                if not 0 < prob <= 1:
                    raise ValueError(f"availability for client {cid} must be in (0, 1]")
        self.availability = availability

    def _prob(self, client_id: int) -> float:
        if isinstance(self.availability, dict):
            return self.availability.get(client_id, 1.0)
        return float(self.availability)

    def select(self, active: Sequence[int], round_index: int, rng: np.random.Generator) -> List[int]:
        chosen = [cid for cid in active if rng.random() < self._prob(cid)]
        if not chosen:
            chosen = [active[int(rng.integers(len(active)))]]
        return sorted(chosen)


class ReservoirSampling:
    """Uniform fixed-size cohort via streaming reservoir sampling.

    Li's "Algorithm L": keep a k-slot reservoir and jump over a
    geometrically distributed number of stream positions between
    replacements, so selecting k of n costs O(k log(n/k)) time and O(k)
    memory — ``active`` is only indexed, never copied.  This is the scheme
    the async coordinator uses over million-entry client registries.
    """

    def __init__(self, cohort_size: int) -> None:
        if cohort_size < 1:
            raise ValueError(f"cohort_size must be >= 1, got {cohort_size}")
        self.cohort_size = cohort_size

    def select(self, active: Sequence[int], round_index: int, rng: np.random.Generator) -> List[int]:
        n = len(active)
        if not n:
            raise ValueError(
                "cannot sample participants from an empty active-client set "
                "(every client has been expelled or filtered out)"
            )
        k = self.cohort_size
        if n <= k:
            return sorted(active)
        reservoir = [active[i] for i in range(k)]
        # w is the running max of k-th root uniforms; log-space jumps give
        # the index of the next stream element that enters the reservoir.
        w = math.exp(math.log(rng.random()) / k)
        i = k - 1
        while True:
            i += int(math.log(rng.random()) / math.log1p(-w)) + 1
            if i >= n:
                break
            reservoir[int(rng.integers(k))] = active[i]
            w *= math.exp(math.log(rng.random()) / k)
        return sorted(reservoir)


#: Scheme kind -> class.  Keys are the names accepted by
#: ``repro federate --scheme`` and :func:`make_participation`.
PARTICIPATION_SCHEMES: Dict[str, Type] = {
    "full": FullParticipation,
    "uniform": UniformSampling,
    "availability": AvailabilitySampling,
    "reservoir": ReservoirSampling,
}


def participation_names() -> tuple[str, ...]:
    """All registered participation scheme kinds, sorted."""
    return tuple(sorted(PARTICIPATION_SCHEMES))


def make_participation(kind: str, **kwargs) -> ParticipationScheme:
    """Instantiate a participation scheme by kind name.

    Unknown kinds fail with the full list of registered names, mirroring
    the attack registry's error contract.
    """
    try:
        cls = PARTICIPATION_SCHEMES[kind]
    except KeyError:
        raise ValueError(
            f"unknown participation scheme {kind!r}; registered schemes: "
            f"{', '.join(participation_names())}"
        ) from None
    return cls(**kwargs)
