"""Replica routing state for the stream dispatcher.

SilkRoute is middle-ware over an RDBMS it does not control (Sec. 1); a
production deployment would sit in front of *several* replicas of that
database.  This module models that serving layer deterministically, on
the same simulated clock as the rest of the system:

* :class:`ReplicaSet` — N :class:`~repro.relational.connection.Connection`
  objects over the *same* :class:`~repro.relational.database.Database`,
  each with its own :class:`~repro.relational.faults.FaultPolicy` /
  :class:`~repro.relational.connection.TransferModel`.  Replica 0 is the
  original connection; derived replicas draw faults from a seed extended
  with their id, so each replica fails independently but reproducibly.
* :class:`ReplicaPool` — the health of each replica (consecutive
  failures, EWMA latency) and the ranking it implies.  The pool executes
  nothing: the
  dispatcher's one submit/retry loop
  (:func:`~repro.relational.dispatch.run_spec_with_retry`) asks an epoch
  *which replica next*, which is all that routing, **failover** and the
  **hedged backup request** need from here.

Determinism contract (the property every byte-identity test rides on):
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
from dataclasses import dataclass, replace

from repro.relational.connection import Connection


def replica_fault_policy(policy, index):
    """The fault policy replica ``index`` runs under, derived from a base
    policy: replica 0 keeps the policy unchanged (so a 1-replica pool is
    indistinguishable from the plain connection), replica *i* draws from
    the seed extended with ``|r<i>`` — independent outcomes per replica,
    reproducible across runs and dispatch orders."""
    if policy is None or index == 0:
        return policy
    return replace(policy, seed=f"{policy.seed}|r{index}")


class ReplicaSet:
    """N connections over the same simulated database.

    Build one explicitly from connections you configured yourself, or via
    :meth:`from_connection` to clone an existing connection's engine
    configuration N ways.  All replicas must share the *same*
    :class:`~repro.relational.database.Database` instance — they are
    replicas of one logical source, so any of them can serve any stream
    with byte-identical rows.
    """

    def __init__(self, connections):
        connections = list(connections)
        if not connections:
            raise ValueError("a ReplicaSet needs at least one connection")
        database = connections[0].database
        for i, conn in enumerate(connections):
            if conn.database is not database:
                raise ValueError(
                    f"replica {i} serves a different Database instance; "
                    "all replicas must share one logical source"
                )
        self.connections = connections

    @classmethod
    def from_connection(cls, connection, n, faults=None, transfer_models=None):
        """Clone ``connection`` into an ``n``-replica set.

        Replica 0 *is* the given connection (same engine, same cache);
        replicas 1..n-1 are fresh connections over the same database and
        cost model, sharing the result cache installed at build time.

        ``faults`` selects the per-replica fault policies: None derives
        them from the connection's installed policy via
        :func:`replica_fault_policy`; a single
        :class:`~repro.relational.faults.FaultPolicy` derives from that
        instead; a sequence of length ``n`` pins each replica explicitly
        (the lever for chaos scenarios — one hard-down replica, one slow
        one).  ``transfer_models`` optionally does the same for transfer
        coefficients; identical models keep hedged timings identical.
        """
        if n < 1:
            raise ValueError(f"need at least 1 replica, got {n}")
        if transfer_models is not None and len(transfer_models) != n:
            raise ValueError(
                f"transfer_models has {len(transfer_models)} entries "
                f"for {n} replicas"
            )
        per_replica = cls._fault_plan(connection, n, faults)
        connections = [connection]
        connection.faults = per_replica[0]
        for i in range(1, n):
            transfer = None
            if transfer_models is not None:
                transfer = transfer_models[i]
            conn = Connection(
                connection.database,
                connection.engine.cost_model,
                transfer_model=transfer or connection.transfer_model,
                faults=per_replica[i],
                engine=connection.engine.mode,
            )
            if connection.cache is not None:
                conn.cache = connection.cache
            connections.append(conn)
        return cls(connections)

    @staticmethod
    def _fault_plan(connection, n, faults):
        if faults is None or hasattr(faults, "decide"):
            base = connection.faults if faults is None else faults
            return [replica_fault_policy(base, i) for i in range(n)]
        per_replica = list(faults)
        if len(per_replica) != n:
            raise ValueError(
                f"faults has {len(per_replica)} entries for {n} replicas"
            )
        return per_replica


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

    def record_success(self, cost_ms, alpha):
        self.successes += 1
        self.consecutive_failures = 0
        if cost_ms is None:
            return
        if self.ewma_latency_ms is None:
            self.ewma_latency_ms = cost_ms
        else:
            self.ewma_latency_ms += alpha * (cost_ms - self.ewma_latency_ms)

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
    """Health-tracked routing over a replica set.

    ``replicas`` is a :class:`ReplicaSet` or an iterable of connections
    over one database.  ``hedge_ms`` is the default hedge trigger (a
    stream whose first attempt's simulated completion exceeds it gets a
    backup request on the next-ranked replica); ``ewma_alpha`` the
    latency smoothing.

    A pool accumulates health across epochs, so reusing one instance
    across materializations routes around a replica that went dark in an
    earlier call.  A *fresh* pool (what ``ExecutionOptions(replicas=N)``
    builds per call) starts with a clean slate — runs stay independent
    and reproducible.
    """

    def __init__(self, replicas, hedge_ms=None, ewma_alpha=0.25):
        if isinstance(replicas, ReplicaSet):
            connections = list(replicas.connections)
        else:
            connections = list(ReplicaSet(replicas).connections)
        self.connections = connections
        self.hedge_ms = hedge_ms
        self.ewma_alpha = ewma_alpha
        self.health = [ReplicaHealth(i) for i in range(len(connections))]

    def policy_for(self, replica, override=None):
        """The fault policy replica ``replica`` runs under: the per-call
        ``override`` re-derived for that replica, else its connection's
        installed policy."""
        if override is not None:
            return replica_fault_policy(override, replica)
        return self.connections[replica].faults

    # -- epochs ------------------------------------------------------------------

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
                self.health[replica].record_success(cost_ms, self.ewma_alpha)
            else:
                self.health[replica].record_failure()


def resolve_pool(replicas, connection):
    """Normalize the ``replicas`` execution option to a
    :class:`ReplicaPool` (or None).

    ``None`` and ``1`` mean no pool (the plain single-connection path);
    an integer ``n >= 2`` builds a fresh pool of ``n`` replicas derived
    from ``connection`` (health state scoped to this call); a
    :class:`ReplicaSet` is wrapped; a :class:`ReplicaPool` instance is
    used as-is, health and all.
    """
    if replicas is None:
        return None
    if isinstance(replicas, ReplicaPool):
        return replicas
    if isinstance(replicas, ReplicaSet):
        return ReplicaPool(replicas)
    n = int(replicas)
    if n <= 1:
        return None
    return ReplicaPool(ReplicaSet.from_connection(connection, n))


def resolve_resilience(opts, connection):
    """``opts`` with ``replicas`` normalized to a live :class:`ReplicaPool`
    by :func:`resolve_pool` (idempotent — a resolved pool passes
    through)."""
    pool = resolve_pool(opts.replicas, connection)
    return opts if pool is opts.replicas else replace(opts, replicas=pool)
