"""Cross-plan result cache: shared relational work across plan executions.

An exhaustive sweep (Figs. 13/14) executes every partition of the view-tree
edge set — 2^|E| plans whose SQL queries overwhelmingly repeat: the same
subtree query, i.e. the same root-to-node join path, recurs across almost
every partition.  For Query 1's 512-plan sweep the 2816 stream executions
collapse to 185 distinct plans, so memoizing whole-plan outcomes removes
~93% of the relational work without touching a single simulated
millisecond.

:class:`PlanResultCache` stores, per executed plan, the exact result rows
(a sweep's :class:`PlanCostCache`: only their number) **and** the ordered
log of simulated cost charges.  A hit *replays* the
charge log through a fresh accumulator, so the returned
:class:`~repro.relational.engine.ExecutionResult` is byte-identical to an
uncached execution — same ``server_ms``, same per-operator ``breakdown``
(same dict insertion order), same ``rows_examined``, and the same
:class:`~repro.common.errors.TimeoutExceeded` behaviour under any budget.
Executions that time out are cached too (as *incomplete* entries holding
the charge prefix up to the raise); an incomplete entry is served only when
replaying it is guaranteed to raise within the caller's budget, otherwise
the plan is re-executed (and the entry upgraded if it now completes).

Keys are ``(plan.fingerprint(), database.dependency_key(tables),
cost_model)``:

* the structural fingerprint identifies the plan,
* the dependency key combines a unique per-instance token with the
  **per-table generation counters** of exactly the tables the plan reads
  (bumped on every mutation of that table), so a stale entry can never be
  served after a write — while entries for plans that do not read the
  mutated table stay valid and keep replaying,
* the (hashable, frozen) cost model guards against a cache shared by
  connections with different simulated servers.

Entries are LRU-evicted against a configurable memory bound, estimated
from the cached rows' value widths.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass
from math import inf
from operator import attrgetter

from repro.common.errors import ExecutionError
from repro.relational.dependencies import is_stale
from repro.relational.types import average_row_width

_COUNTERS = ("hits", "misses", "stores", "evictions", "oversize_rejections",
             "invalidations")


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters."""

    hits: int
    misses: int
    stores: int
    evictions: int
    oversize_rejections: int
    #: Entries dropped because a mutation made them stale (as opposed to
    #: capacity ``evictions``).
    invalidations: int
    entries: int
    #: The most entries the cache ever held at once.
    peak_entries: int
    current_bytes: float
    #: ``inf`` when only the entry count is bounded.
    max_bytes: float

    @property
    def requests(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self):
        """The snapshot as a plain (JSON-dumpable) dict, derived fields
        included — the shape the observability exporters publish."""
        return {
            **vars(self), "requests": self.requests,
            "hit_rate": self.hit_rate,
        }

    def __getitem__(self, name):
        """One field of :meth:`as_dict` by name; ``"bytes"`` reads
        ``current_bytes``."""
        return getattr(self, "current_bytes" if name == "bytes" else name)


class BoundedCache:
    """The one bounded map: thread-safe, least-recently-used first out.

    Every bounded map in the package is one of these (DESIGN.md §6 lists
    them), so there is one eviction policy and one :class:`CacheStats`.

    ``max_entries`` and/or ``max_bytes`` bound it (None: unbounded);
    ``size_of(value)`` is what a value weighs against ``max_bytes`` and
    must not change while the value is stored.  A value heavier than the
    whole byte bound is rejected, not stored.  Values are never None: that
    is what a miss returns.  ``name`` prefixes the gauges of
    :meth:`publish`.
    """

    def __init__(self, name, max_entries=None, max_bytes=None, size_of=None):
        self.name = name
        self.max_entries = inf if max_entries is None else max_entries
        self.max_bytes = inf if max_bytes is None else max_bytes
        self._size_of = size_of or (lambda value: 0)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self._peak = 0
        #: The event counters, under their :class:`CacheStats` names.
        self._counts = dict.fromkeys(_COUNTERS, 0)

    def __len__(self):
        return len(self._entries)

    def items(self):
        """The ``(key, value)`` entries now, oldest first; not a request."""
        with self._lock:
            return list(self._entries.items())

    def peek(self, key):
        """The value for ``key`` (or None) without touching counters or
        recency — a peek is not a request and must not skew
        :meth:`stats`."""
        with self._lock:
            return self._entries.get(key)

    def get(self, key, usable=None):
        """The value for ``key``, or None; counted as a hit or a miss, and
        a hit becomes the most recently used entry.  A stored value that
        ``usable(value)`` turns down is a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None or (usable is not None and not usable(value)):
                self._counts["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self._counts["hits"] += 1
            return value

    def store(self, key, value):
        """Insert (or replace) one entry, then evict least recently used
        entries until the bounds hold again.  Returns how many were
        evicted."""
        size = self._size_of(value)
        with self._lock:
            if size > self.max_bytes:
                self._counts["oversize_rejections"] += 1
                return 0
            entries = self._entries
            old = entries.pop(key, None)
            if old is not None:
                self._bytes -= self._size_of(old)
            entries[key] = value
            self._bytes += size
            self._counts["stores"] += 1
            evicted = 0
            while entries and (len(entries) > self.max_entries
                               or self._bytes > self.max_bytes):
                self._bytes -= self._size_of(entries.popitem(last=False)[1])
                evicted += 1
            self._counts["evictions"] += evicted
            self._peak = max(self._peak, len(entries))
            return evicted

    def discard_where(self, stale):
        """Drop every entry ``stale(key, value)`` holds for, counting each
        as an invalidation.  Returns the number dropped."""
        with self._lock:
            doomed = [
                key for key, value in self._entries.items()
                if stale(key, value)
            ]
            for key in doomed:
                self._bytes -= self._size_of(self._entries.pop(key))
            self._counts["invalidations"] += len(doomed)
            return len(doomed)

    def discard_stale(self, database, at=1):
        """Retire on write: :meth:`discard_where` over the entries whose
        key holds, at position ``at``, a dependency key naming a dead
        generation of ``database`` (``dependencies.is_stale``) — garbage
        collection: no lookup can ask for such a key again.  A key of any
        other shape is not ours to judge."""
        token, current = database._token, database.table_generations()

        def stale(key, _value):
            try:
                return is_stale(key[at], token, current)
            except (TypeError, ValueError, IndexError):
                return False

        return self.discard_where(stale)

    def stats(self):
        """A :class:`CacheStats` snapshot."""
        with self._lock:
            return CacheStats(
                **self._counts, entries=len(self._entries),
                peak_entries=self._peak, current_bytes=self._bytes,
                max_bytes=self.max_bytes,
            )

    def publish(self, metrics):
        """Publish a :meth:`stats` snapshot as ``<name>.<field>`` gauges
        into an observability metrics registry (gauges, not counters: the
        cache keeps its own lifetime totals and a snapshot is
        last-write-wins)."""
        for field, value in self.stats().as_dict().items():
            metrics.gauge(f"{self.name}.{field}", value)


class RowCount(int):
    """The rows of a complete :class:`PlanCostCache` entry — their number:
    ``len()`` answers, iterating is an error, never an empty result."""

    __len__ = int.__int__

    def __iter__(self):
        raise ExecutionError(
            f"the {self:d} rows of this result were not kept: it replays "
            "a cost-only plan-cache entry (a sweep's) — timings, not data"
        )


class CacheEntry:
    """One cached execution outcome.

    ``charge_log`` is the ordered tuple of ``(label, scaled_ms, rows)``
    charges the engine accumulated *after* the per-query startup charge
    (startup is charged by the engine before the cache is consulted).
    ``complete`` is False when the recorded run raised
    ``TimeoutExceeded``; then ``rows`` is ``None`` and the log ends at the
    raising charge.  In a :class:`PlanCostCache` the ``rows`` of a
    complete entry are a :class:`RowCount`.

    ``transfer_sums`` holds what clients summed over ``rows``: the total
    transfer cost per ``(transfer model, compact row format)`` — per
    model because replicas with different
    :class:`~repro.relational.connection.TransferModel` s share one plan
    cache.  Filled by :meth:`Connection.execute
    <repro.relational.connection.Connection.execute>`, so a replay skips
    the row walk, and gone with the entry: nothing else to bound, count or
    invalidate.
    """

    __slots__ = ("rows", "charge_log", "complete", "nbytes", "transfer_sums")

    def __init__(self, rows, charge_log, complete, nbytes):
        self.rows = rows
        self.charge_log = charge_log
        self.complete = complete
        self.nbytes = nbytes
        self.transfer_sums = {}

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


def resolve_cache(cache, fresh=None):
    """Normalize the one cache-wiring convention shared by every layer.

    ``SilkRoute(cache=...)``, ``Connection(cache=...)``, the
    ``Connection.cache`` property, and ``sweep_partitions(cache=...)`` all
    funnel through this: ``True`` builds a fresh :class:`PlanResultCache`
    (or ``fresh()``: a sweep names its :class:`PlanCostCache`),
    ``False``/``None`` disables caching, and an instance (possibly empty —
    ``len()`` is falsy) is used as-is, which is how one cache is shared
    across systems.  The cache itself always lives in exactly one place:
    the engine's :attr:`~repro.relational.engine.QueryEngine.cache`
    attribute.
    """
    if cache is True:
        return (fresh or PlanResultCache)()
    if cache is False or cache is None:
        return None
    return cache


class PlanResultCache(BoundedCache):
    """LRU cache of plan execution outcomes, bounded by their bytes.

    Install one on a :class:`~repro.relational.engine.QueryEngine` (or pass
    ``cache=`` to ``Connection`` / ``sweep_partitions`` / ``SilkRoute``) and
    every ``execute`` call consults it.  Rows are returned by reference;
    callers must treat result rows as immutable (the engine's own
    common-subexpression memo already shares them the same way).  What
    a connection sums over an entry's rows rides on the entry
    (:attr:`CacheEntry.transfer_sums`) and is evicted or retired with it.
    :meth:`peek` is how the resilient dispatcher decides whether a plan
    can be replayed without contacting the (possibly faulty) source.
    Threads that miss the same plan at once each evaluate it, to the same
    rows and charges, and the last :meth:`record` replaces the others'.
    """

    def __init__(self, max_bytes=256 * 1024 * 1024):
        # The default is generous for the paper's workloads while still
        # bounding a long-lived middle-ware process.
        super().__init__("plan_cache", max_bytes=max_bytes,
                         size_of=attrgetter("nbytes"))

    def lookup(self, key, spent_ms=0.0, budget_ms=None):
        """Return a usable :class:`CacheEntry` or None.

        An incomplete (timed-out) entry is usable only when replaying it on
        top of ``spent_ms`` is guaranteed to raise within ``budget_ms`` —
        otherwise the caller must re-execute (it may now complete).
        """
        return self.get(
            key,
            lambda entry: entry.complete
            or entry.replay_raises(spent_ms, budget_ms),
        )

    #: Whether a complete entry keeps its rows — and so weighs them.
    keeps_rows = True

    def record(self, key, plan, rows, charge_log, row_bytes=None):
        """Store a fresh evaluation of ``plan`` — its ``rows``, or None for
        the charge prefix of a timed-out run — weighed by what this cache
        keeps of it; return the entry.  ``row_bytes`` is the rows' average
        width when the run already sampled it (a root sort does), else
        the rows are sampled here."""
        nbytes = 64 * len(charge_log)
        if rows is not None:
            nbytes += 128
        if rows and self.keeps_rows:
            # ~56 bytes of tuple/pointer overhead per row in CPython.
            columns = plan.columns()
            if row_bytes is None:
                row_bytes = average_row_width(columns, rows)
            nbytes += len(rows) * (row_bytes + 56 + 8 * len(columns))
        entry = CacheEntry(rows, tuple(charge_log), rows is not None, nbytes)
        self.store(key, entry)
        return entry


class PlanCostCache(PlanResultCache):
    """The plan cache a sweep installs: entries hold costs, not rows.

    A sweep reads a stream's server and transfer time, never its rows, so
    a complete entry is stored with a :class:`RowCount` in their place.
    The charge log replays as ever and the transfer sum the first
    execution took, over the rows it still had, rides on the entry; a
    connection with no sum under its own ``(transfer model, row format)``
    re-evaluates the plan.
    """

    keeps_rows = False

    def store(self, key, entry):
        if entry.complete:
            entry.rows = RowCount(len(entry.rows))
            entry.nbytes = 128 + 64 * len(entry.charge_log)
        return super().store(key, entry)


#: What a node cache holds for a sub-plan computed once: an entry that
#: weighs nothing and that no lookup returns.
SEEN = object()


def _node_entry_bytes(value):
    """Byte estimate (16 per cell plus a fixed overhead) for a node-cache
    value, a ``Batch``; the :data:`SEEN` marker weighs nothing."""
    if value is SEEN:
        return 0.0
    return 64.0 + 16.0 * value.length * max(value.arity, 1)


def _kept(value):
    return value is not SEEN


class NodeResultCache(BoundedCache):
    """A sweep's cache of batch-engine sub-plan results, bounded by entry
    count, admitting a result on its second computation.

    This is the "data half" cache of the columnar engine: each entry maps
    a sub-plan fingerprint to its materialized
    :class:`~repro.relational.batch.Batch` (charges always run live, so
    simulated timings never depend on hits).  Most results are read once,
    by the kernel call that computed them, so the first :meth:`store` of a
    fingerprint leaves the weightless :data:`SEEN` marker (a miss to
    :meth:`get`, evicted like any other entry) and the value is kept from
    the second on.  Only a sweep installs one
    (:func:`repro.bench.sweep.sweep_partitions`), for its own plans: it
    pins the table generations, and the next sweep starts empty, so a
    fingerprint alone is the key and no write has anything to retire.
    ``generations`` is what the sweep pinned: an execution that sees
    others (a write during the sweep) neither reads nor feeds the cache.
    """

    def __init__(self, max_entries=4096, generations=None):
        super().__init__("node_cache", max_entries=max_entries,
                         size_of=_node_entry_bytes)
        self.generations = generations

    def get(self, fingerprint):
        """The kept value for a sub-plan fingerprint, or None."""
        return super().get(fingerprint, _kept)

    def store(self, fingerprint, value):
        """Keep ``value`` for a sub-plan if its fingerprint was stored
        before, else only mark it :data:`SEEN`."""
        if self.peek(fingerprint) is None:
            value = SEEN
        return super().store(fingerprint, value)
