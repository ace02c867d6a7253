"""Cross-plan result cache: shared relational work across plan executions.

An exhaustive sweep (Figs. 13/14) executes every partition of the view-tree
edge set — 2^|E| plans whose SQL queries overwhelmingly repeat: the same
subtree query, i.e. the same root-to-node join path, recurs across almost
every partition.  For Query 1's 512-plan sweep the 2816 stream executions
collapse to 185 distinct plans, so memoizing whole-plan outcomes removes
~93% of the relational work without touching a single simulated
millisecond.

:class:`PlanResultCache` stores, per executed plan, the exact result rows
**and** the ordered log of simulated cost charges.  A hit *replays* the
charge log through a fresh accumulator, so the returned
:class:`~repro.relational.engine.ExecutionResult` is byte-identical to an
uncached execution — same ``server_ms``, same per-operator ``breakdown``
(same dict insertion order), same ``rows_examined``, and the same
:class:`~repro.common.errors.TimeoutExceeded` behaviour under any budget.
Executions that time out are cached too (as *incomplete* entries holding
the charge prefix up to the raise); an incomplete entry is served only when
replaying it is guaranteed to raise within the caller's budget, otherwise
the plan is re-executed (and the entry upgraded if it now completes).

Keys are ``(plan.fingerprint(), database.dependency_key(tables), cost_model,
include_startup)``:

* the structural fingerprint identifies the plan,
* the dependency key combines a unique per-instance token with the
  **per-table generation counters** of exactly the tables the plan reads
  (bumped on every mutation of that table), so a stale entry can never be
  served after a write — while entries for plans that do not read the
  mutated table stay valid and keep replaying,
* the (hashable, frozen) cost model guards against a cache shared by
  connections with different simulated servers,
* ``include_startup`` separates the two timing modes, whose charge values
  can differ at the ulp level (some charges are running-total deltas).

Entries are LRU-evicted against a configurable memory bound, estimated
from the cached rows' value widths.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters."""

    hits: int
    misses: int
    stores: int
    evictions: int
    oversize_rejections: int
    entries: int
    current_bytes: float
    max_bytes: float
    #: Entries dropped because a mutation made their dependency key stale
    #: (as opposed to capacity ``evictions``).
    invalidations: int = 0

    @property
    def requests(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if not self.requests:
            return 0.0
        return self.hits / self.requests

    def as_dict(self):
        """The snapshot as a plain (JSON-dumpable) dict, derived fields
        included — the shape the observability exporters publish."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "oversize_rejections": self.oversize_rejections,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
        }

    def __str__(self):
        return (
            f"{self.hits}/{self.requests} hits ({self.hit_rate:.1%}), "
            f"{self.entries} entries, {self.current_bytes / 1e6:.1f} MB "
            f"of {self.max_bytes / 1e6:.1f} MB, {self.evictions} evicted"
        )


class CacheEntry:
    """One cached execution outcome.

    ``charge_log`` is the ordered tuple of ``(label, scaled_ms, rows)``
    charges the engine accumulated *after* the per-query startup charge
    (startup is charged by the engine before the cache is consulted; the
    ``include_startup`` mode is part of the engine's key).  ``complete`` is
    False
    when the recorded run raised ``TimeoutExceeded``; then ``rows`` is
    ``None`` and the log ends at the raising charge.
    """

    __slots__ = ("rows", "charge_log", "complete", "nbytes")

    def __init__(self, rows, charge_log, complete, nbytes):
        self.rows = rows
        self.charge_log = charge_log
        self.complete = complete
        self.nbytes = nbytes

    def replay_raises(self, spent_ms, budget_ms):
        """Would replaying this log on top of ``spent_ms`` exceed the
        budget?  Performs the exact accumulation replay will perform, so
        the answer cannot disagree with the replay itself."""
        if budget_ms is None:
            return False
        total = spent_ms
        for _, ms, _ in self.charge_log:
            total += ms
            if total > budget_ms:
                return True
        return False


class _Flight:
    """One in-flight computation: completion flag plus the leader's
    published outcome (used by :meth:`SingleFlight.do`; the bare
    :meth:`SingleFlight.begin`/:meth:`SingleFlight.finish` protocol leaves
    ``value``/``error`` as None)."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = False
        self.value = None
        self.error = None


class SingleFlight:
    """Collapse concurrent identical work into one execution.

    The generalization of the per-plan single-flight that
    :class:`PlanResultCache` has always run for concurrent cache misses:
    the first caller for a key becomes the *leader* and computes; callers
    arriving while the leader is in flight block and share the leader's
    outcome instead of redoing the work.  The serving layer
    (:mod:`repro.serve`) uses the same object to coalesce identical
    in-flight client queries — same plan fingerprint, same dependency
    generations, same options — into one execution whose byte-identical
    document every coalesced client receives.

    Two protocols, usable side by side on one instance:

    * :meth:`begin` / :meth:`finish` — the cache's historical guard.  The
      leader computes and publishes through its own side channel (the
      cache entry), then releases; followers re-consult that channel.
    * :meth:`do` — run a callable under the guard.  The leader's return
      value (or exception) is delivered to every follower that was in
      flight with it; the call reports whether this caller led.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._flights = {}

    def __len__(self):
        """Number of keys currently in flight."""
        with self._lock:
            return len(self._flights)

    def begin(self, key):
        """Return True when the caller becomes the leader for ``key`` (it
        must call :meth:`finish` when done).  When another caller is
        already leading the same key, block until it finishes and return
        False."""
        with self._cv:
            flight = self._flights.get(key)
            if flight is None:
                self._flights[key] = _Flight()
                return True
            while not flight.done:
                self._cv.wait()
            return False

    def finish(self, key, value=None, error=None):
        """Release the guard taken by :meth:`begin`, optionally publishing
        the leader's outcome to followers blocked in :meth:`do`."""
        with self._cv:
            flight = self._flights.pop(key, None)
            if flight is not None:
                flight.value = value
                flight.error = error
                flight.done = True
            self._cv.notify_all()

    def do(self, key, fn):
        """Run ``fn()`` single-flighted under ``key``; return
        ``(value, led)``.

        The leader executes ``fn`` and its result — value or raised
        exception — is shared with every follower that arrived while the
        execution was in flight (the exception object itself is re-raised
        in each follower).  ``led`` is True for the caller that actually
        executed."""
        with self._cv:
            flight = self._flights.get(key)
            if flight is not None:
                while not flight.done:
                    self._cv.wait()
                if flight.error is not None:
                    raise flight.error
                return flight.value, False
            self._flights[key] = _Flight()
        try:
            value = fn()
        except BaseException as exc:
            self.finish(key, error=exc)
            raise
        self.finish(key, value=value)
        return value, True


def resolve_cache(cache):
    """Normalize the one cache-wiring convention shared by every layer.

    ``SilkRoute(cache=...)``, ``Connection(cache=...)``, the
    ``Connection.cache`` property, and ``sweep_partitions(cache=...)`` all
    funnel through this: ``True`` builds a fresh :class:`PlanResultCache`,
    ``False``/``None`` disables caching, and an instance (possibly empty —
    ``len()`` is falsy) is used as-is, which is how one cache is shared
    across systems.  The cache itself always lives in exactly one place:
    the engine's :attr:`~repro.relational.engine.QueryEngine.cache`
    attribute.
    """
    if cache is True:
        return PlanResultCache()
    if cache is False or cache is None:
        return None
    return cache


class PlanResultCache:
    """Thread-safe LRU cache of plan execution outcomes.

    Install one on a :class:`~repro.relational.engine.QueryEngine` (or pass
    ``cache=`` to ``Connection`` / ``sweep_partitions`` / ``SilkRoute``) and
    every ``execute`` call consults it.  Rows are returned by reference;
    callers must treat result rows as immutable (the engine's own
    common-subexpression memo already shares them the same way).
    """

    #: Default memory bound: generous for the paper's workloads while still
    #: bounding a long-lived middle-ware process.
    DEFAULT_MAX_BYTES = 256 * 1024 * 1024

    def __init__(self, max_bytes=DEFAULT_MAX_BYTES):
        self.max_bytes = max_bytes
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._flight = SingleFlight()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._oversize = 0
        self._invalidations = 0
        self._current_bytes = 0.0

    def __len__(self):
        return len(self._entries)

    def peek(self, key):
        """Return the entry for ``key`` without touching counters or LRU
        order (or None).  Used by the resilient dispatcher to decide
        whether a plan can be replayed without contacting the (possibly
        faulty) source — a peek is not a request and must not skew
        :meth:`stats`."""
        with self._lock:
            return self._entries.get(key)

    def lookup(self, key, spent_ms=0.0, budget_ms=None):
        """Return a usable :class:`CacheEntry` or None.

        An incomplete (timed-out) entry is usable only when replaying it on
        top of ``spent_ms`` is guaranteed to raise within ``budget_ms`` —
        otherwise the caller must re-execute (it may now complete).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not entry.complete:
                if not entry.replay_raises(spent_ms, budget_ms):
                    entry = None
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def begin(self, key):
        """Single-flight guard for concurrent misses on the same key.

        Returns True when the caller becomes the *leader* for ``key`` (it
        must execute the plan and call :meth:`finish` when done, whether or
        not it stored an entry).  When another thread is already computing
        the same key, blocks until that leader finishes and returns False —
        the caller should then re-:meth:`lookup` (the leader's entry is
        usually usable; if not, e.g. an incomplete entry under a larger
        budget, the next ``begin`` makes the caller the new leader).

        This is what makes concurrent stream dispatch insert each distinct
        plan *once*: N simultaneous misses produce one execution and N-1
        replays instead of N executions racing to store.  The guard itself
        is a :class:`SingleFlight`, the same mechanism the serving layer
        uses to coalesce whole client queries.
        """
        return self._flight.begin(key)

    def finish(self, key):
        """Release the single-flight guard taken by :meth:`begin`."""
        self._flight.finish(key)

    def store(self, key, entry):
        """Insert (or replace) one entry, evicting LRU entries as needed.
        Entries larger than the whole bound are rejected."""
        if entry.nbytes > self.max_bytes:
            with self._lock:
                self._oversize += 1
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._current_bytes -= old.nbytes
            self._entries[key] = entry
            self._current_bytes += entry.nbytes
            self._stores += 1
            while self._current_bytes > self.max_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._current_bytes -= evicted.nbytes
                self._evictions += 1

    def invalidate_tables(self, token, tables, current_generations):
        """Drop entries made stale by a mutation of ``tables``.

        With dependency-scoped keys a stale entry can never be *served*
        (its key no longer matches), so this is garbage collection plus
        accounting: it frees the bytes held by entries whose dependency
        key records, for one of the mutated tables, a generation different
        from ``current_generations[table]``, and counts them as
        ``invalidations``.  Entries keyed by anything other than the
        dependency-key shape for ``token`` — including caller-chosen
        opaque keys — are left alone.  Returns the number dropped.
        """
        tables = set(tables)
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                if _stale_dependency_key(key, token, tables, current_generations):
                    entry = self._entries.pop(key)
                    self._current_bytes -= entry.nbytes
                    self._invalidations += 1
                    dropped += 1
        return dropped

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0.0

    def publish(self, metrics, prefix="plan_cache"):
        """Publish a :meth:`stats` snapshot as ``<prefix>.<field>`` gauges
        into an observability metrics registry (gauges, not counters: the
        cache keeps its own lifetime totals and a snapshot is
        last-write-wins)."""
        for name, value in self.stats().as_dict().items():
            metrics.gauge(f"{prefix}.{name}", value)

    def stats(self):
        """A :class:`CacheStats` snapshot."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                oversize_rejections=self._oversize,
                entries=len(self._entries),
                current_bytes=self._current_bytes,
                max_bytes=self.max_bytes,
                invalidations=self._invalidations,
            )

    def __repr__(self):
        return f"PlanResultCache({self.stats()})"


def _stale_dependency_key(key, token, tables, current_generations):
    """Does a plan-cache ``key`` record a stale generation for one of the
    mutated ``tables``?  Duck-typed: only keys shaped
    ``(fingerprint, (token, ((table, gen), ...)), cost_model, startup)``
    for this ``token`` qualify; anything else is not ours to judge."""
    if not (isinstance(key, tuple) and len(key) == 4):
        return False
    dep = key[1]
    if not (isinstance(dep, tuple) and len(dep) == 2 and dep[0] == token):
        return False
    pairs = dep[1]
    if not isinstance(pairs, tuple):
        return False
    for pair in pairs:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        name, generation = pair
        if name in tables and generation != current_generations.get(name):
            return True
    return False


class _NodeEntry:
    __slots__ = ("value", "tables", "nbytes")

    def __init__(self, value, tables, nbytes):
        self.value = value
        self.tables = tables
        self.nbytes = nbytes


def _node_value_bytes(value):
    """Byte estimate for a node-cache value: a ``Batch`` or a
    ``(Batch, build_work)`` pair (the outer-join kernel's shape).  A cheap
    deterministic heuristic — 16 bytes per cell plus a fixed overhead —
    reported as ``current_bytes`` in :meth:`NodeResultCache.stats`."""
    batch = value[0] if isinstance(value, tuple) else value
    length = getattr(batch, "length", 0)
    arity = getattr(batch, "arity", 1)
    return 64.0 + 16.0 * length * max(arity, 1)


class NodeResultCache:
    """Dependency-tracked cache of batch-engine sub-plan results.

    This is the "data half" cache of the columnar engine: each entry maps
    a sub-plan fingerprint to its materialized
    :class:`~repro.relational.batch.Batch` (charges always run live, so
    simulated timings never depend on hits).  Every entry remembers the
    base tables its sub-plan reads; :meth:`invalidate` drops exactly the
    entries that depend on mutated tables, which is what lets untouched
    view subtrees replay across writes instead of recomputing.

    ``max_entries`` is a pop-oldest capacity bound enforced on store.

    Thread-safe; an engine shared by concurrent stream dispatch threads
    hits this cache from all of them.
    """

    DEFAULT_MAX_ENTRIES = 4096

    def __init__(self, max_entries=DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`: when set,
        #: every hit/miss/store/eviction/invalidation also increments the
        #: matching ``node_cache.*`` counter at event time (so counters
        #: reconcile exactly with :meth:`stats`, even under concurrent
        #: dispatch).  The engine points this at the current execution's
        #: registry.
        self.metrics = None
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._invalidations = 0
        self._current_bytes = 0.0

    def __len__(self):
        return len(self._entries)

    def _inc(self, counter, amount=1):
        # Caller holds the lock; MetricsRegistry has its own.
        if self.metrics is not None and amount:
            self.metrics.inc(f"node_cache.{counter}", amount)

    def get(self, fingerprint):
        """The cached value for a sub-plan fingerprint, or None."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self._misses += 1
                self._inc("misses")
                return None
            self._entries.move_to_end(fingerprint)
            self._hits += 1
            self._inc("hits")
            return entry.value

    def store(self, fingerprint, value, tables):
        """Cache ``value`` for a sub-plan reading ``tables`` (an iterable
        of base-table names — the invalidation footprint)."""
        entry = _NodeEntry(value, frozenset(tables), _node_value_bytes(value))
        with self._lock:
            old = self._entries.pop(fingerprint, None)
            if old is not None:
                self._current_bytes -= old.nbytes
            self._entries[fingerprint] = entry
            self._current_bytes += entry.nbytes
            self._stores += 1
            self._inc("stores")
            while len(self._entries) > self.max_entries:
                _, evicted = self._entries.popitem(last=False)
                self._current_bytes -= evicted.nbytes
                self._evictions += 1
                self._inc("evictions")

    def invalidate(self, changed_tables):
        """Delta propagation: drop every entry whose sub-plan reads one of
        ``changed_tables``.  Returns the number of entries invalidated."""
        changed = frozenset(changed_tables)
        dropped = 0
        with self._lock:
            for fingerprint in list(self._entries):
                if self._entries[fingerprint].tables & changed:
                    entry = self._entries.pop(fingerprint)
                    self._current_bytes -= entry.nbytes
                    self._invalidations += 1
                    self._inc("invalidations")
                    dropped += 1
        return dropped

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0.0

    def publish(self, metrics, prefix="node_cache"):
        """Publish a :meth:`stats` snapshot as ``<prefix>.<field>`` gauges
        (mirrors :meth:`PlanResultCache.publish`)."""
        for name, value in self.stats().as_dict().items():
            metrics.gauge(f"{prefix}.{name}", value)

    def stats(self):
        """A :class:`CacheStats` snapshot (``max_bytes`` is infinite: the
        bound is the entry count)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                oversize_rejections=0,
                entries=len(self._entries),
                current_bytes=self._current_bytes,
                max_bytes=float("inf"),
                invalidations=self._invalidations,
            )

    def __repr__(self):
        return f"NodeResultCache({self.stats()})"
