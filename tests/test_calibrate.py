"""Tests for measurement-calibrated cost estimation
(repro.relational.calibrate).

The fit itself is exercised on synthetic timings — walls manufactured
from known per-group scales — so recovery can be asserted exactly;
the end-to-end path runs a real (tiny) sweep on SQLite.
"""

import dataclasses
import inspect
import math
import re

import pytest

from repro.common.errors import BackendMismatchError, QueryError
from repro.core.partition import enumerate_partitions
from repro.core.sqlgen import SqlGenerator
from repro.relational.backends import SqliteBackend
from repro.relational.cache import PlanResultCache
from repro.relational import engine as engine_module, pipeline
from repro.relational.calibrate import (
    CALIBRATION_GROUPS,
    CHARGE_TAXONOMY,
    CalibratedCostModel,
    CalibrationObservation,
    apply_scales,
    calibrate,
    fit_scales,
    group_features,
    measure_streams,
    plan_agreement,
)
from repro.relational.connection import Connection
from repro.relational.engine import CostModel


def _features(**groups):
    base = dict.fromkeys(CALIBRATION_GROUPS, 0.0)
    base.update(groups)
    return base


def _synthetic_observations(true_scales, rows):
    """Observations whose walls are *exactly* the linear model at
    ``true_scales`` — the fit should recover them (up to the ridge)."""
    return [
        CalibrationObservation(
            label=f"obs{i}",
            features=_features(**row),
            wall_ms=sum(true_scales.get(g, 1.0) * ms
                        for g, ms in row.items()),
        )
        for i, row in enumerate(rows)
    ]


class TestTaxonomy:
    """``CHARGE_TAXONOMY`` is the one statement of which label folds into
    which group and which constants a group scales: a new charge label
    or coefficient cannot go silently uncalibrated."""

    #: Shape, not price: no fit may scale these.
    STRUCTURAL = {
        "speed", "sort_width_norm", "sort_memory_bytes", "spill_factor",
        "reevaluation_threshold",
    }

    def test_every_emitted_label_is_in_the_table(self):
        emitted = set()
        for module in (engine_module, pipeline):
            emitted |= set(re.findall(
                r'charges\.charge\(\s*"(\w+)"', inspect.getsource(module)
            ))
        labels = [
            label for labels, _ in CHARGE_TAXONOMY.values() for label in labels
        ]
        assert sorted(labels) == sorted(emitted)

    def test_every_coefficient_is_scaled_once_or_structural(self):
        scaled = [
            constant
            for _, constants in CHARGE_TAXONOMY.values()
            for constant in constants
        ]
        assert len(scaled) == len(set(scaled))
        assert not set(scaled) & self.STRUCTURAL
        assert set(scaled) | self.STRUCTURAL == {
            f.name for f in dataclasses.fields(CostModel)
        }

    def test_groups_are_the_table_in_solve_order(self):
        assert CALIBRATION_GROUPS == tuple(CHARGE_TAXONOMY) == (
            "startup", "scan", "filter", "project", "hash", "union", "sort",
            "rescan", "reevaluation",
        )


class TestGroupFeatures:
    def test_labels_fold_into_groups(self):
        features = group_features({
            "startup": 15.0, "scan": 2.0, "filter": 0.5, "project": 0.25,
            "distinct": 1.0, "join": 2.0, "outer_join": 3.0,
            "union": 0.125, "sort": 4.0, "rescan": 0.5,
            "outer_join_reevaluation": 10.0,
        })
        assert set(features) == set(CALIBRATION_GROUPS)
        assert features["hash"] == 1.0 + 2.0 + 3.0
        assert features["reevaluation"] == 10.0
        assert features["scan"] == 2.0

    def test_missing_labels_are_zero(self):
        features = group_features({"scan": 1.0})
        assert features["sort"] == 0.0

    def test_unknown_label_raises(self):
        with pytest.raises(QueryError):
            group_features({"quantum": 1.0})


class TestFitScales:
    def test_recovers_known_scales(self):
        true = {"startup": 0.2, "scan": 3.0, "sort": 0.5, "hash": 1.5}
        rows = [
            {"startup": 15.0, "scan": 2.0},
            {"startup": 15.0, "scan": 8.0, "sort": 4.0},
            {"startup": 30.0, "hash": 6.0},
            {"startup": 15.0, "scan": 1.0, "hash": 2.0, "sort": 9.0},
            {"startup": 45.0, "scan": 5.0, "sort": 2.0, "hash": 1.0},
        ]
        scales = fit_scales(_synthetic_observations(true, rows))
        for group, expected in true.items():
            assert scales[group] == pytest.approx(expected, rel=1e-2)

    def test_unexercised_groups_keep_prior(self):
        true = {"scan": 2.0}
        rows = [{"scan": 1.0}, {"scan": 4.0}, {"scan": 9.0}]
        scales = fit_scales(_synthetic_observations(true, rows))
        assert scales["scan"] == pytest.approx(2.0, rel=1e-3)
        # Groups the sweep never touched are pinned at 1.0 by the ridge.
        for group in CALIBRATION_GROUPS:
            if group != "scan":
                assert scales[group] == pytest.approx(1.0)

    def test_scales_clamped_non_negative(self):
        # Walls that *shrink* as the feature grows pull the scale
        # negative; the clamp floors it at zero.
        observations = [
            CalibrationObservation("a", _features(scan=1.0, startup=15.0),
                                   wall_ms=20.0),
            CalibrationObservation("b", _features(scan=50.0, startup=15.0),
                                   wall_ms=1.0),
            CalibrationObservation("c", _features(scan=100.0, startup=15.0),
                                   wall_ms=0.5),
        ]
        scales = fit_scales(observations)
        assert scales["scan"] == 0.0

    def test_no_observations_keeps_prior_everywhere(self):
        scales = fit_scales([])
        for group in CALIBRATION_GROUPS:
            assert scales[group] == pytest.approx(1.0)


class TestApplyScales:
    def test_constants_multiplied_per_group(self):
        base = CostModel()
        model = apply_scales(base, {"scan": 2.0, "hash": 0.5})
        assert model.scan_row_ms == pytest.approx(base.scan_row_ms * 2.0)
        assert model.hash_row_ms == pytest.approx(base.hash_row_ms * 0.5)
        assert model.probe_row_ms == pytest.approx(base.probe_row_ms * 0.5)
        assert model.join_out_row_ms \
            == pytest.approx(base.join_out_row_ms * 0.5)
        # Untouched groups keep their hand-set constants.
        assert model.sort_cmp_ms == base.sort_cmp_ms
        assert model.startup_ms == base.startup_ms

    def test_result_is_calibrated_model(self):
        model = apply_scales(CostModel(), {}, backend_name="sqlite")
        assert isinstance(model, CalibratedCostModel)
        assert isinstance(model, CostModel)
        assert model.calibrated_on == "sqlite"
        assert len(model.calibration_scales) == len(CALIBRATION_GROUPS)

    def test_identity_scales_never_equal_base_model(self):
        base = CostModel()
        calibrated = apply_scales(base, {g: 1.0 for g in CALIBRATION_GROUPS})
        # Same constants — but dataclass equality is class-aware, so the
        # calibrated model can never impersonate the default one.
        assert calibrated.scan_row_ms == base.scan_row_ms
        assert calibrated != base
        assert base != calibrated
        hash(calibrated)  # stays usable as a cache-key component

    def test_no_stale_cross_model_cache_hits(self, tiny_db):
        plan_cache = PlanResultCache()
        base = CostModel()
        calibrated = apply_scales(base, {g: 1.0 for g in CALIBRATION_GROUPS})
        conn_a = Connection(tiny_db, base, cache=plan_cache)
        conn_b = Connection(tiny_db, calibrated, cache=plan_cache)
        from repro.relational.algebra import Scan, Sort

        plan = Sort(Scan(tiny_db.schema.table("Region"), "r"),
                    ["r.regionkey"])
        conn_a.execute(plan)
        assert conn_a.is_cached(plan)
        # Identical constants, shared cache — still no cross-model hit.
        assert not conn_b.is_cached(plan)
        conn_b.execute(plan)
        assert conn_b.is_cached(plan)
        assert conn_a.is_cached(plan)


class TestPlanAgreement:
    def test_perfect_agreement(self):
        result = plan_agreement([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        assert result == {"top1": True, "concordance": 1.0}

    def test_total_disagreement(self):
        result = plan_agreement([3.0, 2.0, 1.0], [10.0, 20.0, 30.0])
        assert result["top1"] is False
        assert result["concordance"] == 0.0

    def test_ties_count_half(self):
        result = plan_agreement([1.0, 1.0], [5.0, 9.0])
        assert result["concordance"] == 0.5

    def test_length_mismatch_raises(self):
        with pytest.raises(QueryError):
            plan_agreement([1.0], [1.0, 2.0])

    def test_empty(self):
        assert plan_agreement([], []) == {"top1": False, "concordance": 0.0}


@pytest.fixture(scope="module")
def sweep_specs(request):
    tiny_db = request.getfixturevalue("tiny_db")
    q1_tree = request.getfixturevalue("q1_tree")
    generator = SqlGenerator(q1_tree, tiny_db.schema)
    partitions = list(enumerate_partitions(q1_tree))
    specs = []
    for partition in (partitions[0], partitions[len(partitions) // 2],
                      partitions[-1]):
        specs.extend(generator.streams_for_partition(partition))
    return specs


class TestEndToEnd:
    def test_calibrate_on_sqlite(self, tiny_db, sweep_specs):
        connection = Connection(tiny_db, CostModel())
        result = calibrate(connection, sweep_specs, repeats=2)
        assert isinstance(result.model, CalibratedCostModel)
        assert result.model.calibrated_on == "sqlite"
        assert set(result.scales) == set(CALIBRATION_GROUPS)
        assert all(s >= 0.0 for s in result.scales.values())
        assert len(result.observations) == len(sweep_specs)
        assert all(obs.wall_ms >= 0.0 for obs in result.observations)

    def test_measure_streams_cross_validates(self, tiny_db, sweep_specs):
        class LyingBackend(SqliteBackend):
            def execute_sql(self, plan, sql):
                rows, wall_ms = super().execute_sql(plan, sql)
                return rows[:-1] if rows else rows, wall_ms

        connection = Connection(tiny_db, CostModel())
        backend = LyingBackend(tiny_db)
        with pytest.raises(BackendMismatchError):
            measure_streams(connection, sweep_specs, backend, repeats=1)
        backend.close()

    def test_calibrated_model_drives_estimator(self, tiny_db, sweep_specs):
        from repro.relational.estimator import CostEstimator

        connection = Connection(tiny_db, CostModel())
        model = calibrate(connection, sweep_specs, repeats=1).model
        estimator = CostEstimator(tiny_db, model)
        estimate = estimator.estimate(sweep_specs[0].plan)
        assert math.isfinite(estimate.server_ms)
        assert estimate.server_ms >= 0.0
