"""The three workloads: shapes, keys and request schedules.

Every input is a pure function of the ``--seed`` argument and is built
here, not by ``repro.serve.workload``, so a change to the program's own
traffic generator cannot shift what the benchmark measures.  Why each
workload exists, and which layers it stresses and bypasses, is written
in ``perfbench/README.md`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Key",
    "Workload",
    "WORKLOADS",
    "FAMILIES",
    "cold_keys",
    "http_keys",
    "http_schedule",
    "tail_percentile",
    "warm_keys",
]

#: The six permutation families of the serving mix (name, method).
FAMILIES = (
    ("random-mld", "mld"),
    ("random-mrc", "mrc"),
    ("random-bmmc", "bmmc"),
    ("bit-reversal", "auto"),
    ("transpose", "distribution"),
    ("gray", "auto"),
)

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Key:
    """One request identity: a named permutation, its method and seed."""

    perm: str
    method: str
    seed: int

    def request_dict(self) -> dict:
        """The request body (``repro.serve.request_from_dict`` shape)."""
        return {
            "perm": self.perm,
            "method": self.method,
            "seed": self.seed,
            "verify": True,
            "capture_portion": True,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``http`` (open loop over sockets), ``warm`` or ``cold`` (closed
    #: loops in process).
    kind: str
    N: int
    B: int
    D: int
    M: int
    clients: int
    workers: int
    cache_maxsize: int
    #: Requests per second the tail percentile is sized for: the open
    #: loop's offered rate, or the closed loop's nominal rate on a
    #: 2-core host.  Fixing it per workload keeps the percentile the
    #: same across commits, so a faster commit is not judged at a
    #: different percentile.
    nominal_rps: float
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_reps: int

    def geometry(self):
        from repro.pdm.geometry import DiskGeometry

        return DiskGeometry(N=self.N, B=self.B, D=self.D, M=self.M)


HTTP_RATE = 40.0
ZIPF_ALPHA = 1.1

WORKLOADS = {
    w.name: w
    for w in (
        Workload("http-zipf-2e14", "http", 2**14, 8, 4, 2**9, clients=2, workers=2,
                 cache_maxsize=64, nominal_rps=HTTP_RATE, setup_reps=3),
        Workload("warm-kernel-2e20", "warm", 2**20, 16, 8, 2**11, clients=2, workers=2,
                 cache_maxsize=64, nominal_rps=9.0, setup_reps=3),
        Workload("cold-plan-2e20", "cold", 2**20, 16, 8, 2**11, clients=1, workers=2,
                 cache_maxsize=4, nominal_rps=1.2, setup_reps=25),
    )
}


def tail_percentile(expected_samples: float) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if expected_samples * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return TAIL_LADDER[-1]


#: Permutation seeds of the serving catalog.  They are fixed, not drawn
#: from ``--seed``: building a random-mld key by rank rejection costs
#: 1-10 ms depending on its seed, and the hottest key takes 30% of the
#: traffic, so a catalog drawn per run moved p50 latency and CPU per
#: request by more than any bound.  ``--seed`` draws the
#: arrival times and which key each request asks for.
HTTP_KEY_SEEDS = (0, 1, 2, 3)


def http_keys() -> list[Key]:
    """24 keys, 6 families x 4 seeds, in popularity-rank order.

    Ranks interleave the families (rank 0 is the first family's first
    seed, rank 5 the last family's, rank 6 the first family's second
    seed ...), so the Zipf head always holds one key of each family.
    """
    return [Key(perm, method, s) for s in HTTP_KEY_SEEDS for perm, method in FAMILIES]


def http_schedule(seed: int, seconds: float) -> list[tuple[float, int]]:
    """Open-loop schedule: ``(due offset in seconds, key rank)`` pairs.

    Poisson arrivals at :data:`HTTP_RATE`, conditioned on their count:
    ``rate x seconds`` instants drawn uniformly over ``[0, seconds)``
    and sorted, so every run offers the same load over the same span.
    Key ranks are Zipf(1.1) over the 24 keys of :func:`http_keys`.
    """
    rng = np.random.default_rng([seed, 2])
    count = max(1, int(round(HTTP_RATE * seconds)))
    offsets = np.sort(rng.uniform(0.0, seconds, size=count))
    weights = 1.0 / np.arange(1, 25, dtype=float) ** ZIPF_ALPHA
    ranks = rng.choice(24, size=count, p=weights / weights.sum())
    return [(float(t), int(r)) for t, r in zip(offsets, ranks)]


def warm_keys() -> list[Key]:
    """The four warm-kernel keys: one-pass MLD and MRC, multi-pass BMMC,
    and bit-reversal classified by the runner.

    Fixed like :data:`HTTP_KEY_SEEDS`: the four keys cost different
    amounts and the p50 falls between them, so per-run keys moved it
    by their cost differences rather than by the program's speed.
    """
    return [
        Key("random-mld", "mld", 0),
        Key("random-mrc", "mrc", 0),
        Key("random-bmmc", "bmmc", 0),
        Key("bit-reversal", "auto", 0),
    ]


def cold_keys(seed: int, count: int) -> list[Key]:
    """``count`` fresh keys rotating MLD, MRC and BMMC; no two share a seed."""
    rotation = (FAMILIES[0], FAMILIES[1], FAMILIES[2])
    seeds = np.random.default_rng([seed, 3]).choice(2**31, size=count, replace=False)
    return [Key(*rotation[i % 3], int(seeds[i])) for i in range(count)]
