"""Resilience around the paper's request path: retry, fault injection,
replicas and hedging.

The paper's path submits a plan's k sorted queries and merges what comes
back (Secs. 3–4); nothing on it fails or waits.  SilkRoute is
middle-ware over an RDBMS it does not control (Sec. 1), so this
reproduction adds a deterministic model of an unreliable source — and
all of it lives here, behind one frozen policy object,
:class:`Resilience`, set as ``ExecutionOptions.resilience``.  None (the
default) is the paper's path: the connection, the engine and the
kernels run without knowing that any of this exists.

* :class:`Resilience` — the only place each policy is set: ``retry`` (a
  :class:`~repro.relational.faults.RetryPolicy`), ``faults`` (one
  :class:`~repro.relational.faults.FaultPolicy`, derived per replica by
  :func:`replica_fault_policy`, or one per replica), ``replicas`` (a
  count, or a live :class:`ReplicaPool` that keeps its health across
  calls) and ``hedge_ms`` (the backup-request trigger).
* :class:`ResilientExecutor` — what
  :func:`~repro.relational.dispatch.execute_specs` (and the streaming
  materializer) hands each spec to instead of the connection: it owns
  routing, the fault draw, retry with backoff, failover, hedging, the
  health epochs and each stream's
  :class:`~repro.relational.faults.StreamAttemptStats`.
* :class:`ReplicaPool` — N connections over one database and the health
  of each (consecutive failures, EWMA latency).  The pool executes
  nothing; the executor asks an epoch *which replica next*.

Determinism contract (the property every byte-identity test rides on):
fault draws are keyed by ``(label, plan fingerprint, attempt)``, and
routing decisions are frozen per **epoch**.  :meth:`ReplicaPool.begin_epoch`
snapshots the health ranking; every health observation made while the
epoch is open is buffered and folded back in deterministically sorted
order by :meth:`ReplicaPool.finish_epoch`.  Within an epoch, the replica
chosen for a stream is a pure function of the snapshot and the stream's
own failure history — never of wall-clock completion order or of the
dispatch width — so every run routes identically, draws identical
faults, and produces byte-identical XML with identical simulated timings;
and because a dispatch that stops early never starts its later streams,
what it leaves on the pool's health is the same at every width too.
Hedging preserves the invariant because the winner is chosen by comparing
*simulated* completions, and both candidate streams carry identical
``server_ms``/``transfer_ms`` (the engine is deterministic and replicas
share one result cache).
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.common.errors import TransientConnectionError
from repro.obs import obs_parts
from repro.obs.tracer import NULL_SPAN
from repro.relational.connection import Connection
from repro.relational.dispatch import submit
from repro.relational.faults import FaultPolicy, StreamAttemptStats

#: The weight of a new completion in a replica's EWMA latency.
EWMA_ALPHA = 0.25


def replica_fault_policy(policy, index):
    """The fault policy replica ``index`` runs under, derived from a base
    policy: replica 0 keeps the policy unchanged (so a 1-replica pool is
    indistinguishable from the plain connection), replica *i* draws from
    the seed extended with ``|r<i>`` — independent outcomes per replica,
    reproducible across runs and dispatch orders."""
    if policy is None or index == 0:
        return policy
    return replace(policy, seed=f"{policy.seed}|r{index}")


@dataclass(frozen=True)
class Resilience:
    """What resilience one execution runs under; the executor it builds
    (:meth:`executor`) does the rest.

    ``retry`` re-submits a stream that drew a
    :class:`~repro.common.errors.TransientConnectionError`, with simulated
    backoff; without it the first fault is terminal, and only under it
    does :class:`~repro.core.silkroute.XmlView` degrade a stream that
    exhausted its attempts.  ``faults`` is one
    :class:`~repro.relational.faults.FaultPolicy` (replica *i* draws under
    :func:`replica_fault_policy` of it) or a sequence of one policy (or
    None) per replica.  ``replicas`` is a replica count — a fresh
    :class:`ReplicaPool` per execution, so runs stay independent; 1 or
    None is the connection alone — or a live :class:`ReplicaPool`, used
    as it is, health and all.  ``hedge_ms`` is the simulated completion
    past which a pooled stream gets a backup request on the next-ranked
    replica.

    Frozen and hashable, like the options it rides in (a pool hashes by
    identity).
    """

    retry: object = None
    faults: object = None
    replicas: object = None
    hedge_ms: float = None

    def __post_init__(self):
        if self.faults is not None and not isinstance(self.faults, FaultPolicy):
            object.__setattr__(self, "faults", tuple(self.faults))

    def executor(self, connection):
        """A :class:`ResilientExecutor` over ``connection`` (replica 0 of
        a fresh pool when ``replicas`` is a count above 1)."""
        return ResilientExecutor(self, connection)

    @staticmethod
    def summary(stats, degraded=()):
        """A plan's resilience: the counter-wise total of its streams'
        ``stats`` (those of degraded-away streams included) with the
        ``degraded`` labels — what a report carries when this ran."""
        total = StreamAttemptStats.total(stats)
        total.degraded_streams = tuple(degraded)
        return total


class ResilientExecutor:
    """One execution's resilience: the routes, their fault policies and
    the open epoch.

    :meth:`run` is the one submit/retry/route loop, for a single
    connection and for a replica pool alike, eager or lazy.  Executions
    that span several dispatches share one executor: a materialization's
    degradation rounds (one epoch each, so each round routes by what the
    last learned) and a sweep's plans (one epoch for all, opened by the
    sweep, so partition order cannot change the routing).
    """

    def __init__(self, resilience, connection):
        self.resilience = resilience
        pool = resilience.replicas
        if pool is not None and not isinstance(pool, ReplicaPool):
            pool = (ReplicaPool.from_connection(connection, int(pool))
                    if int(pool) > 1 else None)
        self.pool = pool
        self.connections = [connection] if pool is None else pool.connections
        faults = resilience.faults
        if faults is None or isinstance(faults, FaultPolicy):
            self.policies = [replica_fault_policy(faults, i)
                             for i in range(len(self.connections))]
        else:
            if len(faults) != len(self.connections):
                raise ValueError(f"faults has {len(faults)} entries for "
                                 f"{len(self.connections)} replicas")
            self.policies = list(faults)
        #: The policy in play: it decides whether a replay is worth
        #: checking for, and seeds the backoff jitter.
        self.policy = next((p for p in self.policies if p), None)
        self.epoch = None

    @contextmanager
    def routing(self):
        """Hold a routing epoch open for the body — unless one already is
        (a sweep's) — and fold what it observed into the pool's health at
        the end."""
        if self.pool is None or self.epoch is not None:
            yield
            return
        self.epoch = self.pool.begin_epoch()
        try:
            yield
        finally:
            epoch, self.epoch = self.epoch, None
            self.pool.finish_epoch(epoch)

    def run(self, spec, opts, lazy=False):
        """Submit one spec under the retry/backoff regime; return
        ``(stream, stats)`` — a :class:`~repro.relational.connection.TupleStream`,
        or a :class:`~repro.relational.connection.TupleCursor` when
        ``lazy``, and its :class:`~repro.relational.faults.StreamAttemptStats`.

        * **cache short-circuit** — under a fault policy, a plan the
          engine would replay from its
          :class:`~repro.relational.cache.PlanResultCache` never contacts
          the (possibly faulty) source: no fault draw, no attempt recorded
          (``stats.from_cache``), which is why a warm cache makes a flaky
          source harmless.
        * **retry with simulated backoff** — each
          :class:`~repro.common.errors.TransientConnectionError` charges
          its wasted connection latency and the next backoff to the
          *simulated* clock (``stats.fault_latency_ms`` /
          ``stats.backoff_ms``); the stream is exhausted after
          ``retry.max_attempts`` submissions or when the next backoff
          would cross the deadline (``retry.deadline_ms``, defaulting to
          the plan's ``budget_ms``).

        A single connection is the degenerate route: one candidate,
        nothing to observe, ``stats.replica`` None.  Under an open epoch
        the pool only changes *which connection next*:

        * **routing** — the first attempt goes to the epoch's best-ranked
          replica;
        * **failover** — a failure moves the next attempt to the
          next-ranked replica *without* backoff (a different backend needs
          no cool-off); only when every candidate has failed the stream
          once does the round wrap, with the backoff charged and the tried
          set cleared — which on a single connection is every time.
          Failover consumes retry attempts — without a ``retry`` policy
          the first fault is terminal either way;
        * **hedging** — see :meth:`_hedge`; an eager stream only, since a
          lazy cursor has no completion yet to race.

        A lazy open draws its fault and is retried the same way: nothing
        has been read from a cursor that failed to open.
        :class:`~repro.common.errors.TimeoutExceeded` is deterministic in
        simulated time and is never retried.  On exhaustion the raised
        ``TransientConnectionError`` carries ``stats`` (as ``exc.stats``)
        and the total ``attempts``.
        """
        tracer, _ = obs_parts(opts.obs)
        retry = self.resilience.retry
        epoch = self.epoch
        stats = StreamAttemptStats(label=spec.label)
        first = current = None
        if epoch is not None:
            first = current = stats.replica = epoch.pick()
        if self.policy and self.connections[first or 0].is_cached(spec.plan):
            stats.from_cache = True
            with tracer.span("cache", label=spec.label, replay=True):
                stream, _ = submit(self.connections[first or 0], spec, opts,
                                   lazy)
            return stream, stats
        max_attempts = retry.max_attempts if retry is not None else 1
        deadline = opts.budget_ms
        if retry is not None and retry.deadline_ms is not None:
            deadline = retry.deadline_ms
        spent_ms = 0.0
        tried = set()
        while True:
            stats.attempts += 1
            try:
                stream, latency_ms = self._open(
                    spec, opts, current, stats.attempts, lazy)
                break
            except TransientConnectionError as exc:
                stats.faults += 1
                stats.fault_latency_ms += exc.latency_ms
                spent_ms += exc.latency_ms
                tracer.event(
                    "fault", label=spec.label, attempt=stats.attempts,
                    latency_ms=round(exc.latency_ms, 3),
                    **({} if epoch is None else {"replica": current}),
                )
                if stats.attempts >= max_attempts:
                    _exhaust(exc, stats)
                nxt = None
                if epoch is not None:
                    tried.add(current)
                    nxt = epoch.pick(exclude=tried)
                if nxt is None:
                    # Every candidate failed this stream once this round:
                    # wrap to the best-ranked one after a backoff.
                    tried.clear()
                    nxt = first
                    backoff = retry.backoff_for(
                        spec.label, stats.faults,
                        seed=self.policy.seed if self.policy else 0,
                    )
                    if deadline is not None and spent_ms + backoff > deadline:
                        _exhaust(exc, stats)
                    spent_ms += backoff
                    stats.backoff_ms += backoff
                    with tracer.span(
                        "retry", label=spec.label, failure=stats.faults,
                    ) as retry_span:
                        retry_span.set_sim(backoff)
                if nxt != current:
                    stats.failovers += 1
                    tracer.event(
                        "failover", label=spec.label, from_replica=current,
                        to_replica=nxt, attempt=stats.attempts,
                    )
                stats.retries += 1
                current = nxt
        stats.replica = current
        if epoch is not None and not lazy:
            stream, latency_ms, stats.replica = self._hedge(
                spec, opts, stats, tried, current, stream, latency_ms)
        stats.fault_latency_ms += latency_ms
        return stream, stats

    def _open(self, spec, opts, replica, attempt, lazy=False, **span_attrs):
        """One submission: the fault draw, then the connection; returns
        ``(stream, latency_ms)``, the injected connection latency beside
        the stream.

        The draw comes first and raises before the engine or its cache is
        touched, so fault outcomes are never cached.  Under an epoch,
        ``replica`` serves the submission under its own policy inside a
        ``replica:<i>`` span, and the outcome — failure, or success with
        its simulated completion (None for a lazy open, which has not run
        yet: the pool learns that the replica took it, not how long it
        takes) — is buffered on the epoch for the pool's health.
        """
        epoch = self.epoch
        index = replica or 0
        span = NULL_SPAN
        if epoch is not None:
            span = obs_parts(opts.obs)[0].span(
                f"replica:{replica}", label=spec.label, attempt=attempt,
                **span_attrs,
            )
        policy = self.policies[index]
        try:
            with span:
                latency_ms = 0.0
                if policy:
                    decision = policy.decide(
                        spec.label or "?", spec.plan.fingerprint(), attempt)
                    if decision.fail:
                        raise TransientConnectionError(
                            stream_label=spec.label, attempt=attempt,
                            latency_ms=decision.latency_ms,
                        )
                    latency_ms = decision.latency_ms
                stream, _ = submit(self.connections[index], spec, opts, lazy)
        except TransientConnectionError as exc:
            if epoch is not None:
                epoch.observe(spec.label, attempt, replica, False,
                              exc.latency_ms)
            raise
        if epoch is not None:
            epoch.observe(
                spec.label, attempt, replica, True,
                None if lazy else _completion_ms(stream, latency_ms),
            )
        return stream, latency_ms

    def _hedge(self, spec, opts, stats, tried, primary, stream, latency_ms):
        """The hedge step of a pooled stream; returns the winning
        ``(stream, latency_ms, replica)``.

        After a successful attempt whose simulated completion exceeds
        ``hedge_ms``, a backup executes on the next-ranked untried
        replica.  The backup's simulated completion is ``hedge_ms`` later
        than the primary's start; whichever finishes first in simulated
        time wins (ties favour the primary).  A winning backup charges
        ``hedge_wait_ms`` plus its own fault latency; the loser charges
        nothing — its window is subsumed by the winner's, so ``server_ms``
        is never double-counted.
        """
        hedge_ms = self.resilience.hedge_ms
        primary_cost = _completion_ms(stream, latency_ms)
        if hedge_ms is None or primary_cost <= hedge_ms:
            return stream, latency_ms, primary
        backup = self.epoch.pick(exclude=tried | {primary})
        if backup is None:
            return stream, latency_ms, primary
        stats.attempts += 1
        stats.hedges += 1
        with obs_parts(opts.obs)[0].span(
            "hedge", label=spec.label, primary=primary, backup=backup,
            after_ms=hedge_ms,
        ) as hedge_span:
            try:
                backup_stream, backup_latency_ms = self._open(
                    spec, opts, backup, stats.attempts, hedged=True)
            except TransientConnectionError:
                # A failed backup is abandoned: the primary already
                # succeeded, so the fault costs nothing but the count.
                stats.faults += 1
                hedge_span.set(won=False, backup_failed=True)
                return stream, latency_ms, primary
            backup_cost = _completion_ms(backup_stream, backup_latency_ms)
            if hedge_ms + backup_cost < primary_cost:
                stats.hedge_wins += 1
                stats.hedge_wait_ms += hedge_ms
                hedge_span.set(
                    won=True,
                    saved_ms=round(primary_cost - hedge_ms - backup_cost, 3),
                )
                return backup_stream, backup_latency_ms, backup
            hedge_span.set(won=False)
            return stream, latency_ms, primary


def _completion_ms(stream, latency_ms):
    """One submission's simulated completion, as replica health and the
    hedge race see it."""
    return latency_ms + stream.server_ms + stream.transfer_ms


def _exhaust(exc, stats):
    exc.attempts = stats.attempts
    exc.stats = stats
    raise exc


@dataclass
class ReplicaHealth:
    """Rolling health of one replica, in simulated milliseconds.

    ``ewma_latency_ms`` smooths the simulated completion cost of
    successful attempts (fault latency + server + transfer; a success
    reported without one — a lazily opened cursor, which has run nothing
    yet — leaves it alone); ``consecutive_failures`` resets on success.
    Both are folded from epoch observations in deterministic order — see
    the module docstring's determinism contract.
    """

    replica: int
    ewma_latency_ms: float = None
    consecutive_failures: int = 0
    successes: int = 0
    failures: int = 0

    def record_success(self, cost_ms):
        self.successes += 1
        self.consecutive_failures = 0
        if cost_ms is None:
            return
        if self.ewma_latency_ms is None:
            self.ewma_latency_ms = cost_ms
        else:
            self.ewma_latency_ms += EWMA_ALPHA * (cost_ms - self.ewma_latency_ms)

    def record_failure(self):
        self.failures += 1
        self.consecutive_failures += 1


class ReplicaEpoch:
    """A frozen routing snapshot plus the observations made under it.

    ``ranking`` orders replica ids best-first as of
    :meth:`ReplicaPool.begin_epoch`; :meth:`pick` is a pure function of
    it.  Observations buffer here (thread safe: the server's request
    threads may share a reused pool) until
    :meth:`ReplicaPool.finish_epoch` folds them into the live health
    state in sorted order.
    """

    def __init__(self, ranking):
        self.ranking = tuple(ranking)
        self._observations = []
        self._lock = threading.Lock()

    def pick(self, exclude=()):
        """The best-ranked replica id not in ``exclude`` (None if every
        replica is excluded)."""
        for replica in self.ranking:
            if replica not in exclude:
                return replica
        return None

    def observe(self, label, attempt, replica, ok, cost_ms):
        with self._lock:
            self._observations.append((label, attempt, replica, ok, cost_ms))

    def observations(self):
        """The buffered observations in deterministic order."""
        with self._lock:
            return sorted(self._observations)


class ReplicaPool:
    """N connections over the same simulated database, and their health.

    All replicas must share the *same*
    :class:`~repro.relational.database.Database` instance — they are
    replicas of one logical source, so any of them can serve any stream
    with byte-identical rows.  Build one from connections you configured
    yourself (a replica with its own
    :class:`~repro.relational.connection.TransferModel`, say), or clone
    one connection N ways with :meth:`from_connection`.

    A pool accumulates health across epochs, so reusing one instance
    across materializations (``Resilience(replicas=pool)``) routes around
    a replica that went dark in an earlier call.  A *fresh* pool (what
    ``Resilience(replicas=N)`` builds per execution) starts with a clean
    slate — runs stay independent and reproducible.
    """

    def __init__(self, connections):
        connections = list(connections)
        if not connections:
            raise ValueError("a ReplicaPool needs at least one connection")
        database = connections[0].database
        for i, conn in enumerate(connections):
            if conn.database is not database:
                raise ValueError(
                    f"replica {i} serves a different Database instance; "
                    "all replicas must share one logical source"
                )
        self.connections = connections
        self.health = [ReplicaHealth(i) for i in range(len(connections))]

    @classmethod
    def from_connection(cls, connection, n):
        """Clone ``connection`` into an ``n``-replica pool.

        Replica 0 *is* the given connection (same engine, same cache);
        replicas 1..n-1 are fresh connections over the same database, cost
        model, transfer model and engine mode, sharing its result cache.
        """
        if n < 1:
            raise ValueError(f"need at least 1 replica, got {n}")
        connections = [connection]
        for _ in range(1, n):
            conn = Connection(
                connection.database, connection.engine.cost_model,
                transfer_model=connection.transfer_model,
                engine=connection.engine.mode,
            )
            if connection.cache is not None:
                conn.cache = connection.cache
            connections.append(conn)
        return cls(connections)

    def begin_epoch(self):
        """Freeze the current health ranking into a :class:`ReplicaEpoch`.

        Replicas rank by consecutive failures, then EWMA latency, then
        id — the worst is still reachable, as a stream's last resort
        before the round wraps.  Also re-shares replica 0's result cache
        across the set, so a cache installed after the pool was built
        still serves every replica.
        """
        base_cache = self.connections[0].engine.cache
        for conn in self.connections[1:]:
            if conn.engine.cache is not base_cache:
                conn.cache = base_cache

        def health_key(replica):
            health = self.health[replica]
            ewma = health.ewma_latency_ms
            return (
                health.consecutive_failures,
                ewma if ewma is not None else 0.0,
                replica,
            )

        return ReplicaEpoch(sorted(range(len(self.connections)),
                                   key=health_key))

    def finish_epoch(self, epoch):
        """Fold the epoch's buffered observations into the live health
        state, in deterministic sorted order — so the health trail does
        not depend on the order the streams ran in."""
        for _label, _attempt, replica, ok, cost_ms in epoch.observations():
            if ok:
                self.health[replica].record_success(cost_ms)
            else:
                self.health[replica].record_failure()
