"""Seeded random trace generators.

Used by the property-based tests and microbenchmarks.  All generators
produce *feasible* traces (they maintain lock ownership, fork/join
discipline, and sampling-period alternation by construction), and are
deterministic for a given seed.

Two families:

* :func:`random_trace` — unconstrained mix of synchronized and
  unsynchronized accesses; usually racy.
* :func:`race_free_trace` — every shared variable is protected by a
  dedicated lock (a consistent locking discipline), so the result is
  race-free by construction; used for completeness properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .events import (
    Event,
    acq,
    fork,
    join,
    rd,
    rel,
    sbegin,
    send,
    vol_rd,
    vol_wr,
    wr,
)
from .trace import Trace

__all__ = ["GeneratorConfig", "random_trace", "race_free_trace"]


@dataclass
class GeneratorConfig:
    """Tunables for :func:`random_trace`.

    ``protected_fraction`` is the probability that a variable is accessed
    only under its dedicated lock; the remaining accesses are free-for-all
    and may race.  ``sampling_period_prob`` inserts global
    ``sbegin``/``send`` pairs for exercising PACER directly on traces.
    """

    n_threads: int = 4
    n_vars: int = 8
    n_locks: int = 3
    n_vols: int = 2
    length: int = 200
    protected_fraction: float = 0.5
    write_fraction: float = 0.4
    sync_fraction: float = 0.15
    sampling_period_prob: float = 0.0
    seed: int = 0


def random_trace(config: Optional[GeneratorConfig] = None, **overrides) -> Trace:
    """Generate a feasible, seeded random trace.

    The root thread (tid 0) forks all workers up front and joins them at
    the end, so every pair of worker accesses is potentially concurrent.
    """
    cfg = config or GeneratorConfig()
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise TypeError(f"unknown generator option {key!r}")
        setattr(cfg, key, value)
    rng = random.Random(cfg.seed)
    events: List[Event] = []
    n = max(1, cfg.n_threads)

    # Each variable is either lock-protected or free.
    protected: Dict[int, int] = {}
    for var in range(cfg.n_vars):
        if cfg.n_locks and rng.random() < cfg.protected_fraction:
            protected[var] = rng.randrange(cfg.n_locks)

    workers = list(range(1, n))
    for child in workers:
        events.append(fork(0, child))

    live = [0] + workers
    sampling = False
    site_of = lambda tid, var, is_write: (  # noqa: E731 - tiny site encoder
        (var * 2 + (1 if is_write else 0)) * n + tid
    )

    for _ in range(cfg.length):
        if cfg.sampling_period_prob and rng.random() < cfg.sampling_period_prob:
            events.append(send() if sampling else sbegin())
            sampling = not sampling
        tid = rng.choice(live)
        roll = rng.random()
        if roll < cfg.sync_fraction and cfg.n_vols:
            vol = rng.randrange(cfg.n_vols)
            if rng.random() < 0.5:
                events.append(vol_wr(tid, vol))
            else:
                events.append(vol_rd(tid, vol))
            continue
        var = rng.randrange(max(1, cfg.n_vars))
        is_write = rng.random() < cfg.write_fraction
        lock = protected.get(var)
        site = site_of(tid, var, is_write)
        if lock is not None:
            events.append(acq(tid, lock + 1000))
        events.append(
            wr(tid, var, site) if is_write else rd(tid, var, site)
        )
        if lock is not None:
            events.append(rel(tid, lock + 1000))

    if sampling:
        events.append(send())
    for child in workers:
        events.append(join(0, child))
    return Trace(events).validate()


def race_free_trace(
    n_threads: int = 4,
    n_vars: int = 8,
    length: int = 200,
    seed: int = 0,
    sampling_period_prob: float = 0.0,
) -> Trace:
    """Generate a race-free trace: every variable has a dedicated lock.

    Each access (read or write) to variable v happens strictly inside
    ``acq(lock_v) ... rel(lock_v)``, which totally orders conflicting
    accesses — a consistent locking discipline.
    """
    rng = random.Random(seed)
    events: List[Event] = []
    workers = list(range(1, max(1, n_threads)))
    for child in workers:
        events.append(fork(0, child))
    live = [0] + workers
    sampling = False
    for _ in range(length):
        if sampling_period_prob and rng.random() < sampling_period_prob:
            events.append(send() if sampling else sbegin())
            sampling = not sampling
        tid = rng.choice(live)
        var = rng.randrange(max(1, n_vars))
        lock = 1000 + var  # dedicated lock per variable
        is_write = rng.random() < 0.4
        site = (var * 2 + (1 if is_write else 0)) * n_threads + tid
        events.append(acq(tid, lock))
        events.append(wr(tid, var, site) if is_write else rd(tid, var, site))
        events.append(rel(tid, lock))
    if sampling:
        events.append(send())
    for child in workers:
        events.append(join(0, child))
    return Trace(events).validate()
