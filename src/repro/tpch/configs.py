"""Experimental configurations A and B (the paper's Table 1).

Configuration A: 1 MB TPC-H database on a slow server (AMD K6-2 350 MHz) —
used for the exhaustive 512-plan sweeps of Figs. 13/14.  Configuration B:
100 MB database on a faster server (Intel Celeron 566 MHz) — used for the
greedy-algorithm evaluation of Fig. 15.  Here the data scale is reduced
(documented substitution in DESIGN.md) but the A:B ratio and the
slow-vs-fast server cost models are preserved.
"""

from dataclasses import dataclass, field

from repro.relational.connection import Connection, SourceDescription, TransferModel
from repro.relational.engine import CONFIG_A_COST_MODEL, CONFIG_B_COST_MODEL, CostModel
from repro.relational.estimator import CostEstimator
from repro.tpch.generator import TpchGenerator, TpchScale


@dataclass(frozen=True)
class Configuration:
    """One experimental setup: data scale + server cost model + timeout."""

    name: str
    scale: TpchScale
    cost_model: CostModel
    transfer_model: TransferModel = field(default_factory=TransferModel)
    source: SourceDescription = field(default_factory=SourceDescription)
    seed: int = 20010521
    #: The paper's per-subquery budget ("If a subquery did not complete
    #: within 5 minutes, no time was reported"), in simulated ms.
    subquery_budget_ms: float = 300_000.0


CONFIG_A = Configuration(
    name="A",
    scale=TpchScale(),
    cost_model=CONFIG_A_COST_MODEL,
)

CONFIG_B = Configuration(
    name="B",
    scale=TpchScale().scaled(25.0),
    cost_model=CONFIG_B_COST_MODEL,
)


def build_database(config):
    """Generate the TPC-H database for a configuration."""
    return TpchGenerator(scale=config.scale, seed=config.seed).generate()


def build_configuration(config, database=None):
    """Return ``(database, connection, estimator)`` ready for experiments;
    the estimator is the database's shared one (``CostEstimator.shared``)."""
    database = database or build_database(config)
    connection = Connection(database, config.cost_model, config.transfer_model)
    return database, connection, CostEstimator.shared(database, config.cost_model)
