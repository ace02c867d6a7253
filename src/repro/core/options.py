"""One options object for the whole execution surface.

Every execution-facing method (``XmlView.materialize``, ``materialize_to``,
``execute_partition``, ``explain``, ``greedy_plan``,
``repro.bench.sweep.sweep_partitions``, the ``Session``/``Server``
methods in front of them, and the dispatch layer behind them —
``execute_specs``, ``run_spec_with_retry``, ``Connection.execute`` /
``execute_iter``) has the signature ``(…, options=None, **overrides)``,
and each hands the resolved bundle to the next as one object.
:class:`ExecutionOptions` is the bundle: build one frozen object, pass it
as ``options=`` everywhere, share it across calls and threads.  An override
is one field of it by name, so one-off changes stay cheap, and
:func:`resolve_options` is the only place the two are merged::

    opts = ExecutionOptions(budget_ms=300_000, workers=4,
                            retry=RetryPolicy(max_attempts=3))
    view.materialize(options=opts)                   # uses everything
    view.materialize(options=opts, workers=1)        # one-off override
    view.materialize(workers=1)                      # no bundle at all

``explain``, ``execute_partition`` and ``sweep_partitions`` default
``reduce=False`` (the materializers use the field default, ``reduce=True``)
— a method default applies only when neither a keyword nor an ``options``
object supplies a value.
"""

from dataclasses import dataclass, replace

from repro.core.sqlgen import PlanStyle


@dataclass(frozen=True)
class RequestContext:
    """Identity of one client request flowing through the service.

    The serving layer (:mod:`repro.serve`) attaches one of these to the
    :class:`ExecutionOptions` it executes under (``request=``) so that
    errors raised deep inside dispatch worker threads —
    :class:`~repro.common.errors.OverloadError`,
    :class:`~repro.common.errors.StaleGenerationError`,
    :class:`~repro.common.errors.TimeoutExceeded` — surface carrying the
    originating ``tenant`` and ``request_id`` (see
    :func:`~repro.common.errors.tag_request`).  Frozen and hashable, like
    everything else in the options bundle.
    """

    tenant: str = None
    request_id: str = None


@dataclass(frozen=True)
class ExecutionOptions:
    """Frozen bundle of execution knobs.

    ``style``/``reduce``/``keep`` select and reduce the SQL generation,
    ``budget_ms`` is the per-subquery simulated timeout, ``workers``
    dispatches subqueries (or sweep partitions) concurrently,
    ``retry``/``faults`` are the resilience policies
    (:class:`~repro.relational.faults.RetryPolicy` /
    :class:`~repro.relational.faults.FaultPolicy`), and ``obs`` is an
    optional :class:`~repro.obs.ObsOptions` observability session
    (tracing/metrics; None — the default — keeps the no-op fast path).

    The replica serving layer adds three knobs, normalized by
    :func:`~repro.relational.replicas.resolve_pool` /
    :func:`~repro.relational.replicas.resolve_admission`: ``replicas``
    (an integer replica count, a
    :class:`~repro.relational.replicas.ReplicaSet`, or a
    :class:`~repro.relational.replicas.ReplicaPool`), ``hedge_ms`` (the
    simulated latency past which a backup request is hedged on a second
    replica), and ``max_concurrent`` (an integer stream cap, an
    :class:`~repro.relational.replicas.AdmissionPolicy`, or an
    :class:`~repro.relational.replicas.AdmissionController`).

    ``engine`` is a pure performance switch — results, simulated timings,
    and cache entries are identical either way: it selects row-at-a-time
    (``"tuple"``) or vectorized columnar (``"batch"``) plan evaluation.
    ``None`` (the default) defers to the connection's
    :class:`~repro.relational.engine.QueryEngine` default.  ``backend``
    selects where the generated SQL is *also* executed for real
    (:mod:`repro.relational.backends`) — cross-validated against the
    simulated oracle, wall-clock recorded separately, results and
    simulated timings untouched.

    Hashable as long as its fields are, so it can key plan caches
    (``ObsOptions`` hashes by identity).
    """

    style: PlanStyle = PlanStyle.OUTER_JOIN
    reduce: bool = True
    keep: tuple = ()
    budget_ms: float = None
    workers: int = None
    retry: object = None
    faults: object = None
    obs: object = None
    replicas: object = None
    hedge_ms: float = None
    max_concurrent: object = None
    engine: str = None
    #: Where generated SQL is executed: None defers to the connection's
    #: backend (usually pure simulation), ``"sqlite"``/``"simulated"`` or a
    #: :class:`~repro.relational.backends.Backend` instance select one for
    #: this execution.  A real backend never changes results, simulated
    #: timings, or cache keys — it adds measured ``backend_wall_ms`` to the
    #: reports (see :mod:`repro.relational.backends`).  Backend instances
    #: hash by identity, keeping the options bundle hashable.
    backend: object = None
    #: Optional :class:`RequestContext` naming the client request this
    #: execution serves; errors raised anywhere under the dispatch carry
    #: its tenant/request id.  Purely diagnostic — never affects results,
    #: timings, or cache keys.
    request: object = None

    def __post_init__(self):
        object.__setattr__(self, "keep", tuple(self.keep))


def resolve_options(options, overrides, **method_defaults):
    """The :class:`ExecutionOptions` one call runs under — the only merge
    on the execution surface.  Precedence: an ``overrides`` keyword > the
    caller's ``options`` object (taken at face value, every field) > the
    calling method's own ``method_defaults`` > the field default.  A
    keyword that is not an option field raises :class:`TypeError`."""
    if options is None:
        options = ExecutionOptions(**method_defaults)
    return replace(options, **overrides) if overrides else options
