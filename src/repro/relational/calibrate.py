"""Measurement-calibrated cost estimation against a real backend.

The simulated :class:`~repro.relational.engine.CostModel` carries hand-set
constants shaped after the paper's Configuration A/B hardware.  With a
real backend available (:mod:`repro.relational.backends`), those constants
can instead be *fitted to measurement*: execute a sweep of generated
partition SQL on SQLite, record each statement's wall-clock, and solve a
small least-squares system relating the simulated engine's per-operator
charge breakdown to the measured walls.

The fit is per *charge group*, not per raw constant — several constants
always appear together in a plan's breakdown (hash build, probe, and join
output rows, for instance), so they are scaled jointly.
:data:`CHARGE_TAXONOMY` is the one table of which breakdown labels fold
into which group and which constants its fitted factor scales.

Solving uses plain normal equations with a small ridge pulling every
scale toward 1.0 (the identity), so a group the sweep never exercises
keeps its hand-set constant instead of drifting to an arbitrary value.
No numpy — the system is 9×9 and Gaussian elimination suffices.

The result is a :class:`CalibratedCostModel`: a frozen *subclass* of
:class:`~repro.relational.engine.CostModel`, so it drops into every slot
a cost model fits — :class:`~repro.relational.connection.Connection`,
:class:`~repro.relational.estimator.CostEstimator`, the greedy planner —
and, because dataclass equality is class-aware, plans executed under a
calibrated model never collide with cached results computed under the
default model (distinct fingerprints, no stale cross-model hits).
"""

from dataclasses import dataclass, fields
from statistics import median

from repro.common.errors import QueryError
from repro.relational.backends import SqliteBackend, cross_validate
from repro.relational.engine import CostModel

#: Charge group → (the engine breakdown labels folded into it, the
#: cost-model constants its fitted factor scales), in solve order.  A
#: constant no group scales (``speed``, the sort-memory and spill shape,
#: the re-evaluation threshold) is structural and survives a fit as set.
CHARGE_TAXONOMY = {
    "startup": (("startup",), ("startup_ms",)),
    "scan": (("scan",), ("scan_row_ms",)),
    "filter": (("filter",), ("filter_row_ms",)),
    "project": (("project",), ("project_row_ms",)),
    "hash": (("distinct", "join", "outer_join"),
             ("hash_row_ms", "probe_row_ms", "join_out_row_ms")),
    "union": (("union",), ("union_row_ms",)),
    "sort": (("sort",), ("sort_cmp_ms",)),
    "rescan": (("rescan",), ("rescan_row_ms",)),
    "reevaluation": (("outer_join_reevaluation",), ("reevaluation_factor",)),
}

#: Fitted charge groups, in solve order.
CALIBRATION_GROUPS = tuple(CHARGE_TAXONOMY)

#: Engine breakdown label → charge group.
_LABEL_GROUP = {
    label: group
    for group, (labels, _) in CHARGE_TAXONOMY.items() for label in labels
}


@dataclass(frozen=True)
class CalibratedCostModel(CostModel):
    """A :class:`~repro.relational.engine.CostModel` whose constants were
    fitted to measured backend walls.

    Behaves exactly like its base everywhere a cost model is accepted.
    The distinct class is load-bearing: dataclass ``__eq__`` compares
    classes first, so a calibrated model never compares equal to a
    default :class:`CostModel` with coincidentally identical constants —
    plan caches and estimator memos keyed on the model stay segregated.

    ``calibrated_on`` names the backend the fit measured (``"sqlite"``);
    ``calibration_scales`` records the fitted per-group factors, in
    :data:`CALIBRATION_GROUPS` order, for provenance.
    """

    calibrated_on: str = "sqlite"
    calibration_scales: tuple = ()


def group_features(breakdown):
    """Fold an engine charge ``breakdown`` (label → simulated ms) into the
    per-group feature vector the fit runs on: a dict over
    :data:`CALIBRATION_GROUPS` (missing groups are 0.0)."""
    features = dict.fromkeys(CALIBRATION_GROUPS, 0.0)
    for label, ms in breakdown.items():
        group = _LABEL_GROUP.get(label)
        if group is None:
            raise QueryError(
                f"unknown charge label {label!r} in execution breakdown"
            )
        features[group] += ms
    return features


@dataclass(frozen=True)
class CalibrationObservation:
    """One sweep point: a stream's simulated charge features and its
    measured wall on the backend (median over the repeats)."""

    label: str
    features: dict
    wall_ms: float


@dataclass
class CalibrationResult:
    """The fitted model plus everything needed to audit the fit."""

    model: CalibratedCostModel
    scales: dict
    observations: list


def measure_streams(connection, specs, backend, repeats=3):
    """Execute every spec on the simulated engine (for its charge
    breakdown) and on ``backend`` ``repeats`` times (for its wall) through
    :func:`~repro.relational.backends.cross_validate`, so the rows are
    checked against the simulated oracle on the way; return a
    :class:`CalibrationObservation` per spec.

    The wall is the median over the repeats — SQLite statements at this
    scale run in microseconds, where a single sample is mostly noise.
    """
    return [
        CalibrationObservation(
            label=spec.label,
            features=group_features(result.breakdown),
            wall_ms=median(walls),
        )
        for spec, result, walls in cross_validate(
            connection.engine, specs, backend, repeats
        )
    ]


def fit_scales(observations, ridge=1e-3, prior=1.0):
    """Fit one non-negative scale per charge group by ridge-regularized
    least squares over ``observations``.

    Minimizes ``sum_i (sum_g s_g * f_gi - wall_i)^2 +
    ridge * sum_g (s_g - prior)^2``: the ridge pulls every scale toward
    ``prior`` (1.0 — keep the hand-set constant), which both conditions
    the normal equations and pins groups the sweep never exercises.
    Fitted scales are clamped at 0 (a negative per-row cost is
    meaningless measurement noise).  Returns ``{group: scale}``.
    """
    n = len(CALIBRATION_GROUPS)
    ata = [[0.0] * n for _ in range(n)]
    atb = [0.0] * n
    for obs in observations:
        row = [obs.features.get(g, 0.0) for g in CALIBRATION_GROUPS]
        for i in range(n):
            if row[i] == 0.0:
                continue
            atb[i] += row[i] * obs.wall_ms
            for j in range(n):
                ata[i][j] += row[i] * row[j]
    # Ridge toward the prior: (AtA + rI) s = Atb + r*prior.
    for i in range(n):
        ata[i][i] += ridge
        atb[i] += ridge * prior
    solution = _solve(ata, atb)
    return {
        group: max(0.0, scale)
        for group, scale in zip(CALIBRATION_GROUPS, solution)
    }


def _solve(matrix, vector):
    """Gaussian elimination with partial pivoting on a copy (the system
    is 9×9 and positive definite after the ridge)."""
    n = len(vector)
    a = [list(row) + [v] for row, v in zip(matrix, vector)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-12:
            raise QueryError("singular calibration system (no observations?)")
        a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, n):
            factor = a[row][col] / a[col][col]
            if factor == 0.0:
                continue
            for k in range(col, n + 1):
                a[row][k] -= factor * a[col][k]
    solution = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = a[row][n] - sum(
            a[row][k] * solution[k] for k in range(row + 1, n)
        )
        solution[row] = acc / a[row][row]
    return solution


def apply_scales(cost_model, scales, backend_name="sqlite"):
    """``cost_model`` with each group's constants multiplied by its
    fitted scale, as a :class:`CalibratedCostModel`."""
    values = {
        f.name: getattr(cost_model, f.name) for f in fields(CostModel)
    }
    for group, (_, constants) in CHARGE_TAXONOMY.items():
        for constant in constants:
            values[constant] *= scales.get(group, 1.0)
    return CalibratedCostModel(
        calibrated_on=backend_name,
        calibration_scales=tuple(
            round(scales.get(g, 1.0), 9) for g in CALIBRATION_GROUPS
        ),
        **values,
    )


def calibrate(connection, specs, backend=None, repeats=3, ridge=1e-3):
    """Sweep ``specs`` on a real backend and fit the connection's cost
    model to the measured walls; returns a :class:`CalibrationResult`.

    ``backend`` defaults to a fresh in-memory
    :class:`~repro.relational.backends.SqliteBackend` over the
    connection's database.  ``specs`` are
    :class:`~repro.core.sqlgen.StreamSpec` objects — typically the
    streams of several partitions of a view
    (:func:`~repro.core.partition.enumerate_partitions` +
    :class:`~repro.core.sqlgen.SqlGenerator`), so the sweep exercises
    everything from the unified plan's wide outer joins to the fully
    partitioned plan's many small scans.
    """
    backend = backend or SqliteBackend(connection.database)
    observations = measure_streams(connection, specs, backend, repeats)
    scales = fit_scales(observations, ridge=ridge)
    model = apply_scales(
        connection.engine.cost_model, scales, backend_name=backend.name
    )
    return CalibrationResult(
        model=model, scales=scales, observations=observations
    )


def plan_agreement(predicted_costs, measured_walls):
    """How well a cost model's per-plan predictions order the plans like
    the measurements do.

    ``predicted_costs`` and ``measured_walls`` are parallel sequences
    (one entry per candidate plan).  Returns a dict with ``top1`` (did
    the model pick the measured-cheapest plan) and ``concordance`` (the
    fraction of plan pairs ordered the same way by prediction and
    measurement — Kendall-style, ties count as half).
    """
    n = len(predicted_costs)
    if n != len(measured_walls):
        raise QueryError(
            f"{n} predictions for {len(measured_walls)} measurements"
        )
    if n == 0:
        return {"top1": False, "concordance": 0.0}
    best_predicted = min(range(n), key=lambda i: predicted_costs[i])
    best_measured = min(range(n), key=lambda i: measured_walls[i])
    pairs = concordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            predicted = predicted_costs[i] - predicted_costs[j]
            measured = measured_walls[i] - measured_walls[j]
            if predicted == 0.0 or measured == 0.0:
                concordant += 0.5
            elif (predicted > 0) == (measured > 0):
                concordant += 1
    return {
        "top1": best_predicted == best_measured,
        "concordance": concordant / pairs if pairs else 1.0,
    }


__all__ = [
    "CALIBRATION_GROUPS",
    "CHARGE_TAXONOMY",
    "CalibratedCostModel",
    "CalibrationObservation",
    "CalibrationResult",
    "apply_scales",
    "calibrate",
    "fit_scales",
    "group_features",
    "measure_streams",
    "plan_agreement",
]
