"""Operation and allocation counters (reproduces Table 3's columns).

Every detector owns an :class:`OpCounters`; PACER additionally splits
counts by sampling vs non-sampling period.  The counters also drive:

* the simulator's allocation model (metadata allocation during sampling
  shortens GC periods — the sampling-bias source of Table 1), and
* the analysis *cost model* used alongside real timings for Figures 7–9.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["OpCounters", "CostModel", "PerfCounters", "CoreStats"]


@dataclass
class OpCounters:
    """Counts of analysis operations, split by period and cost class.

    "Slow" joins/comparisons are O(n) in the number of threads; "fast"
    joins were skipped via the version fast path in O(1).  Deep copies are
    O(n) element-by-element copies; shallow copies share the clock in
    O(1).  For reads and writes, the *fast path* is the inlined
    instrumentation check that does nothing (non-sampling and no
    metadata); everything else is a *slow path* call.
    """

    # vector clock joins (thread <- lock/volatile/thread)
    joins_slow_sampling: int = 0
    joins_fast_sampling: int = 0
    joins_slow_nonsampling: int = 0
    joins_fast_nonsampling: int = 0

    # vector clock copies (lock/volatile <- thread)
    copies_deep_sampling: int = 0
    copies_shallow_sampling: int = 0
    copies_deep_nonsampling: int = 0
    copies_shallow_nonsampling: int = 0

    # read instrumentation
    reads_slow_sampling: int = 0
    reads_slow_nonsampling: int = 0
    reads_fast_nonsampling: int = 0
    reads_fast_sampling: int = 0

    # write instrumentation
    writes_slow_sampling: int = 0
    writes_slow_nonsampling: int = 0
    writes_fast_nonsampling: int = 0
    writes_fast_sampling: int = 0

    # clock machinery
    clones: int = 0
    increments: int = 0

    # metadata allocation, in words (drives the GC/bias model)
    words_allocated: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Return a plain dict of all counters."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since an earlier :meth:`snapshot`."""
        now = self.snapshot()
        return {k: now[k] - earlier.get(k, 0) for k in now}

    # Convenience aggregates -------------------------------------------------

    @property
    def joins_slow(self) -> int:
        return self.joins_slow_sampling + self.joins_slow_nonsampling

    @property
    def joins_fast(self) -> int:
        return self.joins_fast_sampling + self.joins_fast_nonsampling

    @property
    def reads(self) -> int:
        return (
            self.reads_slow_sampling
            + self.reads_slow_nonsampling
            + self.reads_fast_nonsampling
            + self.reads_fast_sampling
        )

    @property
    def writes(self) -> int:
        return (
            self.writes_slow_sampling
            + self.writes_slow_nonsampling
            + self.writes_fast_nonsampling
            + self.writes_fast_sampling
        )


@dataclass
class PerfCounters:
    """Wall-clock throughput counters for one analysis run.

    Filled in by :meth:`Detector.run` / :meth:`Detector.run_batch` (and
    by the parallel experiment runner), so speedups are *observed*, not
    asserted: the CLI and benchmarks print events/sec and ns/event
    straight from these.

    The access-path counts say where PACER's non-sampling work goes on
    the packed backend.  Like the Table 3 counters they are
    deterministic, but the run counts depend on how events are batched
    (scalar dispatch has no runs), so they live here and stay out of
    the compared counters and the metrics registry.
    """

    events: int = 0
    elapsed_ns: int = 0
    batches: int = 0
    max_batch: int = 0
    #: non-sampling access runs ``pacer_kernel`` retired in bulk
    bulk_runs: int = 0
    #: non-sampling access runs that touch a tracked variable
    live_runs: int = 0
    #: non-sampling accesses handed to the Algorithm 12/13 loop
    tracked_accesses: int = 0
    #: of those, the ones that discarded metadata or released a slot
    tracked_changes: int = 0

    @property
    def events_per_sec(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.events * 1e9 / self.elapsed_ns

    @property
    def ns_per_event(self) -> float:
        if self.events <= 0:
            return 0.0
        return self.elapsed_ns / self.events

    @property
    def mean_batch(self) -> float:
        if self.batches <= 0:
            return 0.0
        return self.events / self.batches

    def merge(self, other: "PerfCounters") -> None:
        """Accumulate another run's counters in place."""
        self.events += other.events
        self.elapsed_ns += other.elapsed_ns
        self.batches += other.batches
        self.max_batch = max(self.max_batch, other.max_batch)
        self.bulk_runs += other.bulk_runs
        self.live_runs += other.live_runs
        self.tracked_accesses += other.tracked_accesses
        self.tracked_changes += other.tracked_changes

    def summary(self) -> str:
        """One-line human summary (CLI output)."""
        parts = [
            f"{self.events} events in {self.elapsed_ns / 1e6:.1f} ms",
            f"{self.events_per_sec:,.0f} events/s",
            f"{self.ns_per_event:.0f} ns/event",
        ]
        if self.batches:
            parts.append(
                f"{self.batches} batches (mean {self.mean_batch:.0f}, "
                f"max {self.max_batch})"
            )
        return ", ".join(parts)


@dataclass
class CoreStats:
    """The deterministic result core of one (or several merged) trials.

    This is what the sharded experiment runner ships between processes:
    everything a caller needs to aggregate or compare runs, with the
    detector's live object graph left behind in the worker.  Equality
    deliberately ignores wall-clock perf (``compare=False``) so that the
    same seeds produce *equal* :class:`CoreStats` regardless of how many
    jobs or shards computed them — the determinism regression tests rely
    on this.
    """

    workload: str
    detector: str
    rate: Optional[float]
    seed: int
    events: int
    races: int
    #: full dynamic race signatures, ordered by report time
    race_sigs: Tuple[Tuple, ...]
    #: static (first_site, second_site) identities, sorted
    distinct_keys: Tuple[Tuple[int, int], ...]
    effective_rate: float
    counters: Dict[str, int]
    perf: PerfCounters = field(default_factory=PerfCounters, compare=False)
    #: deterministic observability metrics (repro.obs): GC counts,
    #: context switches, final footprints, ...  Excluded from equality
    #: like ``perf`` (older pickles/tests omit it), but byte-identical
    #: across job counts by construction — the obs tests pin that.
    metrics: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def distinct_races(self) -> int:
        return len(self.distinct_keys)

    @classmethod
    def merge(cls, stats: Sequence["CoreStats"]) -> "CoreStats":
        """Aggregate several trials into one summary record.

        Counters sum, dynamic race signatures concatenate (in input
        order), distinct keys union, effective rates average, and perf
        counters accumulate.  Labels collapse to the common value or
        ``"*"`` when mixed.
        """
        if not stats:
            raise ValueError("cannot merge zero CoreStats")

        def common(values: Iterable) -> str:
            unique = {str(v) for v in values}
            return unique.pop() if len(unique) == 1 else "*"

        from ..obs.metrics import merge_metric_dicts

        counters: Dict[str, int] = {}
        sigs: List[Tuple] = []
        keys = set()
        perf = PerfCounters()
        for s in stats:
            for name, value in s.counters.items():
                counters[name] = counters.get(name, 0) + value
            sigs.extend(s.race_sigs)
            keys.update(s.distinct_keys)
            perf.merge(s.perf)
        metrics = merge_metric_dicts(s.metrics for s in stats)
        rates = {s.rate for s in stats}
        return cls(
            workload=common(s.workload for s in stats),
            detector=common(s.detector for s in stats),
            rate=rates.pop() if len(rates) == 1 else None,
            seed=-1,
            events=sum(s.events for s in stats),
            races=sum(s.races for s in stats),
            race_sigs=tuple(sigs),
            distinct_keys=tuple(sorted(keys)),
            effective_rate=sum(s.effective_rate for s in stats) / len(stats),
            counters=counters,
            perf=perf,
            metrics=metrics,
        )


@dataclass
class CostModel:
    """Abstract cost accounting for Figures 7–9.

    Wall-clock overhead in the paper depends on JIT/hardware specifics we
    cannot reproduce; the *shape* claim (overhead proportional to r) is a
    statement about how many operations of each cost class execute.  This
    model assigns unit costs and evaluates a detector's total analysis
    cost from its :class:`OpCounters`.

    Default weights are calibrated so that the r=0 configuration lands
    near the paper's ~33% overhead and r=100% near 12x on the bundled
    workloads; they can be overridden for sensitivity studies.
    """

    fast_path: float = 0.18  # inlined check, paper reports ~18%
    slow_path: float = 6.0  # out-of-line metadata analysis, O(1)
    join_fast: float = 1.0  # version-epoch comparison
    copy_shallow: float = 1.0
    clone_or_deep: float = 4.0  # per-thread component cost added below
    per_thread: float = 0.6  # cost per vector element for O(n) ops

    def cost(self, counters: OpCounters, n_threads: int) -> float:
        """Total modeled analysis cost in arbitrary work units."""
        on = self.clone_or_deep + self.per_thread * max(1, n_threads)
        return (
            self.fast_path
            * (
                counters.reads_fast_nonsampling
                + counters.reads_fast_sampling
                + counters.writes_fast_nonsampling
                + counters.writes_fast_sampling
            )
            + self.slow_path
            * (
                counters.reads_slow_sampling
                + counters.reads_slow_nonsampling
                + counters.writes_slow_sampling
                + counters.writes_slow_nonsampling
            )
            + self.join_fast * counters.joins_fast
            + self.copy_shallow
            * (counters.copies_shallow_sampling + counters.copies_shallow_nonsampling)
            + on
            * (
                counters.joins_slow
                + counters.copies_deep_sampling
                + counters.copies_deep_nonsampling
                + counters.clones
            )
        )
