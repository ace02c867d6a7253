"""Deterministic fault injection and retry policies.

SilkRoute's premise (Sec. 1) is that the middle-ware does **not** control
the RDBMS: the tuple source is a remote server reached over a connection
that can drop, stall, or shed load.  This module models that unreliability
*deterministically* so every failure scenario is replayable in tests and
CI; :class:`~repro.relational.resilience.Resilience` is where a run sets
these policies, and its executor is what applies them:

* :class:`FaultPolicy` — decides, per stream submission, whether to raise
  :class:`~repro.common.errors.TransientConnectionError` and how much
  simulated connection latency to add.  Decisions come from a PRNG seeded
  by ``(seed, label, plan fingerprint, attempt)``, so they are independent
  of execution order (a sweep, a degraded re-plan and a replay draw
  identical outcomes) and stable across processes (string seeding hashes
  through SHA-512, not ``PYTHONHASHSEED``).
* :class:`RetryPolicy` — exponential backoff with deterministic jitter.
  Backoff is charged to the *simulated* clock (reports' ``backoff_ms`` and
  the ``elapsed_*`` makespans), preserving the sim/wall-clock separation
  of docs/API.md; per-stream deadlines default to the plan's ``budget_ms``.
* :class:`StreamAttemptStats` — what resilience charged one stream, and
  (totalled) one plan.

The draw happens before the connection sees the plan: a faulted attempt
never reads or writes the
:class:`~repro.relational.cache.PlanResultCache`, so fault outcomes are
never cached, and a plan already cached is replayed without touching the
flaky source at all (no fault draw, no attempt recorded).
"""

import random
from dataclasses import dataclass


def _rng(*parts):
    """A PRNG keyed by the given parts — deterministic across processes
    and independent of draw order (a fresh generator per decision)."""
    return random.Random("|".join(str(part) for part in parts))


@dataclass(frozen=True)
class FaultDecision:
    """One attempt's drawn outcome."""

    fail: bool
    latency_ms: float = 0.0


@dataclass(frozen=True)
class FaultPolicy:
    """Deterministic per-attempt fault injection.

    ``error_rate`` is the probability that any single stream submission
    fails with :class:`~repro.common.errors.TransientConnectionError`;
    ``latency_ms`` scales an added simulated connection latency per
    attempt (drawn in ``[0.5, 1.5] * latency_ms``; on a failing attempt it
    is the time wasted before the failure was detected).  ``fail_streams``
    pins specific streams: an iterable of labels that *always* fail, or a
    mapping ``label -> n`` failing that stream's first ``n`` attempts —
    the lever for reproducing a specific scenario (a stream that recovers
    on the third try, a stream that never recovers and must be degraded).

    The policy is frozen and stateless: the decision for ``(label,
    fingerprint, attempt)`` is a pure function of the seed, which is what
    makes retries, degradation re-planning and concurrent requests
    replayable.  Fault draws follow the stream *label*, so a degraded
    re-plan whose root stream keeps the failing label keeps failing —
    by design (the finer plan still opens the same logical stream) — while
    its differently-labeled siblings draw fresh outcomes.
    """

    seed: int = 0
    error_rate: float = 0.0
    latency_ms: float = 0.0
    #: tuple of ``(label, limit)`` pairs; ``limit`` None means every
    #: attempt fails (normalized from the iterable/mapping forms).
    fail_streams: tuple = ()

    def __post_init__(self):
        pairs = self.fail_streams
        if isinstance(pairs, dict):
            pairs = tuple(sorted(pairs.items()))
        else:
            normalized = []
            for entry in pairs:
                if isinstance(entry, str):
                    normalized.append((entry, None))
                else:
                    label, limit = entry
                    normalized.append((label, limit))
            pairs = tuple(sorted(normalized, key=lambda p: p[0]))
        object.__setattr__(self, "fail_streams", pairs)

    def _pinned_limit(self, label):
        for pinned, limit in self.fail_streams:
            if pinned == label:
                return True, limit
        return False, None

    def decide(self, label, fingerprint, attempt):
        """The deterministic :class:`FaultDecision` for one submission."""
        rng = _rng(self.seed, label, fingerprint, attempt)
        # Draw order is fixed so latency values are comparable across
        # configurations that only change the failure rule.
        error_draw = rng.random()
        latency = 0.0
        if self.latency_ms:
            latency = self.latency_ms * (0.5 + rng.random())
        pinned, limit = self._pinned_limit(label)
        if pinned:
            fail = limit is None or attempt <= limit
        else:
            fail = error_draw < self.error_rate
        return FaultDecision(fail=fail, latency_ms=latency)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a deadline.

    A stream execution is attempted at most ``max_attempts`` times.  The
    wait before retry *k* (1-based failure count) is ``base_ms *
    multiplier**(k-1)``, jittered by ``±jitter`` (a fraction, drawn
    deterministically per ``(seed, label, k)``).  All waits are *simulated*
    milliseconds: they are charged to the report's ``backoff_ms`` and the
    elapsed makespans, never slept for.

    ``deadline_ms`` bounds the simulated time a stream may burn on failed
    attempts (wasted connection latency) plus backoff; when None, the
    plan-level ``budget_ms`` is used.  A retry whose backoff would cross
    the deadline is abandoned — the stream is treated as exhausted.
    """

    max_attempts: int = 4
    base_ms: float = 50.0
    multiplier: float = 2.0
    jitter: float = 0.1
    deadline_ms: float = None

    def backoff_for(self, label, failure_index, seed=0):
        """Simulated wait after the ``failure_index``-th failure (1-based);
        0 when no further attempt is allowed."""
        if failure_index >= self.max_attempts:
            return 0.0
        backoff = self.base_ms * self.multiplier ** (failure_index - 1)
        if self.jitter:
            u = _rng(seed, "backoff", label, failure_index).random()
            backoff *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return backoff


#: A policy that never retries: one attempt, no backoff.
NO_RETRY = RetryPolicy(max_attempts=1, base_ms=0.0, jitter=0.0)


@dataclass
class StreamAttemptStats:
    """Resilience accounting for one stream's execution.

    ``attempts`` counts submissions to the (possibly faulty) source — a
    result served from the plan cache records zero attempts, because a
    replay never touches the source.  ``fault_latency_ms`` is the
    simulated connection time wasted by failed attempts plus the winning
    attempt's injected connection latency; together with ``backoff_ms``
    and ``hedge_wait_ms`` it is what resilience charged to the simulated
    clock on top of the fault-free execution.

    Replica accounting (zero outside a
    :class:`~repro.relational.resilience.ReplicaPool` dispatch):
    ``replica`` is the id that served the winning result, ``failovers``
    counts retries that moved to a different replica, ``hedges`` counts
    issued backup requests (each is also an attempt), ``hedge_wins``
    those whose backup finished first in simulated time, and
    ``hedge_wait_ms`` the hedge-trigger wait charged when a backup won.
    The abandoned side of a hedge charges nothing here — its simulated
    window is subsumed by the winner's — so ``server_ms`` is never
    double-counted.
    """

    label: str
    attempts: int = 0
    retries: int = 0
    faults: int = 0
    backoff_ms: float = 0.0
    fault_latency_ms: float = 0.0
    from_cache: bool = False
    replica: int = None
    failovers: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    hedge_wait_ms: float = 0.0
    #: A plan's total only: the labels of the streams that exhausted their
    #: retries and were re-planned into finer ones.
    degraded_streams: tuple = ()

    #: The additive counters as ``(field, metric name)``: what
    #: :meth:`total` sums and :meth:`record` publishes.  A new counter is
    #: a field above and a row here.
    COUNTERS = (
        ("attempts", "dispatch.attempts"),
        ("retries", "dispatch.retries"),
        ("faults", "faults.injected"),
        ("backoff_ms", "retry.backoff_ms"),
        ("fault_latency_ms", "faults.latency_ms"),
        ("failovers", "dispatch.failovers"),
        ("hedges", "dispatch.hedges"),
        ("hedge_wins", "dispatch.hedge_wins"),
        ("hedge_wait_ms", "hedge.wait_ms"),
    )

    @property
    def overhead_ms(self):
        """What resilience charged to the simulated elapsed clock on top
        of the fault-free execution: backoff, wasted fault latency, hedge
        wait."""
        return self.backoff_ms + self.fault_latency_ms + self.hedge_wait_ms

    @classmethod
    def total(cls, stats):
        """The counter-wise sum of ``stats`` (a sequence of these) — what
        a plan's report and a sweep's timing total their streams into
        (:meth:`~repro.relational.resilience.Resilience.summary`)."""
        total = cls(None)
        for name, _ in cls.COUNTERS:
            value = getattr(total, name)
            for s in stats:
                value += getattr(s, name)
            setattr(total, name, value)
        return total

    def record(self, metrics):
        """Record this stream's accounting into a metrics registry.

        The single point where resilience counters enter observability:
        the dispatcher calls it exactly once per stream outcome (success
        or failure) on the *same* stats object the
        :class:`~repro.core.silkroute.PlanReport`'s ``resilience`` sums,
        so the metrics snapshot reconciles with the report by
        construction.
        """
        for name, metric in self.COUNTERS:
            value = getattr(self, name)
            if value:
                metrics.inc(metric, value)
        if self.from_cache:
            metrics.inc("cache.replays")
