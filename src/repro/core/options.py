"""One options object for the whole execution surface.

Every execution-facing method (``XmlView.materialize``, ``materialize_to``,
``explain``, ``greedy_plan``,
``repro.bench.sweep.sweep_partitions``, the ``Session``/``Server``
methods in front of them, and the dispatch layer behind them —
``execute_specs``, ``Connection.execute`` / ``execute_iter``) has the
signature ``(…, options=None, **overrides)``,
and each hands the resolved bundle to the next as one object.
:class:`ExecutionOptions` is the bundle: build one frozen object, pass it
as ``options=`` everywhere, share it across calls and threads.  An override
is one field of it by name, so one-off changes stay cheap, and
:func:`resolve_options` is the only place the two are merged::

    opts = ExecutionOptions(budget_ms=300_000, workers=4,
                            resilience=Resilience(retry=RetryPolicy()))
    view.materialize(options=opts)                   # uses everything
    view.materialize(options=opts, workers=1)        # one-off override
    view.materialize(workers=1)                      # no bundle at all

``explain`` and ``sweep_partitions`` default ``reduce=False`` (the
materializers use the field default, ``reduce=True``) — a method default
applies only when neither a keyword nor an ``options`` object supplies a
value.
"""

from dataclasses import dataclass, replace

from repro.core.sqlgen import PlanStyle
# The one module of repro.core that names the resilience policies: the
# command line and the wire spell them as flat options, and this is where
# they become a Resilience (options_from_flat).
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import Resilience


@dataclass(frozen=True)
class ExecutionOptions:
    """Frozen bundle of execution knobs.

    ``style``/``reduce``/``keep`` select and reduce the SQL generation,
    ``budget_ms`` is the per-subquery simulated timeout, ``workers`` is
    the *simulated* dispatch width (below), and ``obs`` is an optional
    :class:`~repro.obs.ObsOptions` observability session
    (tracing/metrics; None — the default — keeps the no-op fast path).

    ``resilience`` is a :class:`~repro.relational.resilience.Resilience`
    — retry, fault injection, replicas and hedging, each set there and
    nowhere else — or None, the paper's path: the plan's queries go to
    the connection as they are, and reports carry no resilience
    accounting.

    Concurrency lives on the simulated clock.  ``workers=N`` says the
    source runs N of a plan's subqueries at once, and that is computed,
    not enacted: it sets ``PlanReport.workers`` and the
    ``elapsed_query_ms``/``elapsed_total_ms`` makespans
    (:func:`~repro.relational.dispatch.simulated_makespan`).  It
    starts no thread — the in-process engine waits on nothing a thread
    could overlap — and moves no document, per-stream time, fault draw or
    routing decision; it means the same for every method, a sweep
    included.

    What is *not* here is which engine evaluates the plans and whether
    SQLite is asked too: the reference interpreter is a connection built
    in that mode (``Connection(engine="tuple")``) and the SQLite check a
    call (:func:`~repro.relational.backends.cross_validate`) — oracles a
    test or tool constructs, never something a request carries.

    Hashable as long as its fields are, so it can key plan caches
    (``ObsOptions`` hashes by identity).
    """

    style: PlanStyle = PlanStyle.OUTER_JOIN
    reduce: bool = True
    keep: tuple = ()
    budget_ms: float = None
    workers: int = None
    obs: object = None
    resilience: object = None

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


# -- flat option names ------------------------------------------------------
#
# The command line and the wire protocol spell the bundle the same way: flat
# scalar names (``argparse``'s namespace, the keys of a request's ``options``
# object).  The value checks and the flat -> bundle step live here, for both.

#: The spellings of :class:`~repro.core.sqlgen.PlanStyle` outside Python.
STYLES = {style.value: style for style in PlanStyle}


def _checked(name, convert, what, accept=lambda result: True):
    """The check ``name``: ``convert(value)`` (from text or a number) when
    that is ``what`` says, a :class:`ValueError` saying so otherwise."""
    def check(value):
        try:
            result = convert(value)
            if accept(result):
                return result
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
        raise ValueError(f"{value!r} is not {what}")
    check.__name__ = name       # what argparse calls a bad value's type
    return check


def _whole(value):
    number = int(value)
    if number != float(value):      # 2.7 is not 2
        raise ValueError(value)
    return number


positive_int = _checked(
    "positive_int", _whole, "an integer >= 1", lambda n: n >= 1)
positive_float = _checked(
    "positive_float", float, "a number > 0", lambda x: x > 0.0)
probability = _checked(
    "probability", float, "a probability (0 to 1)", lambda x: 0.0 <= x <= 1.0)
_style = _checked("style", STYLES.__getitem__, f"one of {sorted(STYLES)}")

#: Flat option name -> the check its value must pass (None: unset).
FLAT_OPTIONS = {
    "style": _style, "reduce": bool, "budget_ms": positive_float,
    "workers": positive_int, "retries": positive_int, "fault_seed": int,
    "fault_rate": probability, "replicas": positive_int,
    "hedge_ms": positive_float,
}


def options_from_flat(flat, **fields):
    """The :class:`ExecutionOptions` a mapping of :data:`FLAT_OPTIONS`
    names describes (other keys, and None values, are ignored; ``fields``
    are further bundle fields, set as given).  Every value is checked — a
    bad one raises :class:`ValueError` naming the option — and ``style``
    becomes the :class:`~repro.core.sqlgen.PlanStyle`.  ``retries``,
    ``fault_seed``/``fault_rate``, ``replicas`` and ``hedge_ms``, when
    any is given, become one
    :class:`~repro.relational.resilience.Resilience`: a
    :class:`~repro.relational.faults.RetryPolicy` of ``retries``
    attempts, a :class:`~repro.relational.faults.FaultPolicy`, the replica
    count and the hedge trigger."""
    given = {}
    for name, check in FLAT_OPTIONS.items():
        value = flat.get(name)
        if value is not None:
            try:
                given[name] = check(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"option {name!r}: {exc}") from None
    policies = {}
    retries = given.pop("retries", None)
    if retries is not None:
        policies["retry"] = RetryPolicy(max_attempts=retries)
    seed, rate = given.pop("fault_seed", None), given.pop("fault_rate", None)
    if seed is not None or rate is not None:
        policies["faults"] = FaultPolicy(seed=seed or 0, error_rate=rate or 0.0)
    for name in ("replicas", "hedge_ms"):
        if name in given:
            policies[name] = given.pop(name)
    if policies:
        fields["resilience"] = Resilience(**policies)
    return ExecutionOptions(**given, **fields)
