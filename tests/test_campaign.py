"""Tests for the adversary campaign engine."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.adversary.controller import random_adversary
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.sim.campaign import (
    AGGREGATION_MODES,
    CampaignCell,
    CampaignResult,
    campaign_matrix,
    run_campaign,
)
from repro.sim.experiments import (
    RunRecord,
    Scenario,
    SweepResult,
    aggregated_scheduler,
    run_scenario,
)
from repro.sim.scheduler import FifoScheduler

#: (splits_envelopes, splits_slots) of each aggregation mode's wrappers.
SPLITS = {
    "plain": (True, True),
    "coalesce": (False, True),
    "svec": (True, False),
    "coalesce+svec": (False, False),
}


@lru_cache(maxsize=None)
def fifo_svss_record(mode: str) -> RunRecord:
    return run_scenario(
        Scenario(n=4, seed=1, scheduler="fifo", coin="svss", aggregation=mode)
    )


class TestMatrix:
    def test_matrix_covers_every_cell(self):
        matrix = campaign_matrix(
            n=4,
            adversaries=("none", "random"),
            schedulers=("uniform", "fifo"),
            modes=("plain", "coalesce"),
            seeds=range(3),
        )
        assert len(matrix) == 2 * 2 * 2 * 3
        assert all(s.monitor for s in matrix)
        assert {s.aggregation for s in matrix} == {"plain", "coalesce"}

    def test_owned_axes_cannot_be_overridden(self):
        for owned in ("monitor", "aggregation"):
            with pytest.raises(ConfigurationError):
                campaign_matrix(seeds=range(1), **{owned: True})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            campaign_matrix(modes=("plain", "warp"), seeds=range(1))

    def test_modes_cover_both_transports(self):
        flags = {}
        for name in AGGREGATION_MODES:
            scheduler = aggregated_scheduler(FifoScheduler(), name)
            flags[name] = (scheduler.splits_envelopes, scheduler.splits_slots)
        assert flags == SPLITS

    @pytest.mark.parametrize("mode", list(SPLITS))
    def test_aggregation_mode_splits_its_layers(self, mode):
        """Each mode strips exactly its layers, and under FIFO every mode
        decides what the per-message wire decides."""
        split_envelopes, split_slots = SPLITS[mode]
        record = fifo_svss_record(mode)
        assert record.agreed
        assert (record.envelopes_pushed == 0) == split_envelopes
        assert (record.svec_packed == 0) == split_slots
        plain = fifo_svss_record("plain")
        assert (record.decision, record.rounds) == (plain.decision, plain.rounds)


class TestCell:
    def test_aggregation_name_round_trips(self):
        for name in AGGREGATION_MODES:
            (scenario,) = campaign_matrix(
                adversaries=("none",),
                schedulers=("fifo",),
                modes=(name,),
                seeds=range(1),
            )
            cell = CampaignCell("none", "fifo", scenario.aggregation)
            assert cell.aggregation == name
            assert cell.describe() == f"none x fifo x {name}"

    def test_describe(self):
        cell = CampaignCell("random", "eclipse", "coalesce+svec")
        assert cell.describe() == "random x eclipse x coalesce+svec"


class TestRunCampaign:
    def test_small_campaign_is_clean(self):
        res = run_campaign(
            n=4,
            adversaries=("none", "random", "adaptive-crash"),
            schedulers=("uniform", "vote-balancing"),
            modes=("plain", "coalesce+svec"),
            seeds=range(3),
            workers=1,
        )
        assert res.ok and not res.violations
        assert len(res.cells) == 3 * 2 * 2
        assert len(res) == 3 * 2 * 2 * 3
        assert all(r.monitored for r in res.records)
        assert res.cell_violations() == {}
        assert "all invariants held" in res.table()

    def test_records_carry_adversary_specs(self):
        res = run_campaign(
            n=4,
            adversaries=("random",),
            schedulers=("uniform",),
            modes=("plain",),
            seeds=range(2),
            workers=1,
        )
        for record in res.records:
            kind = record.adversary_spec[0]
            assert kind == "random"

    def test_spec_rebuilds_the_same_corruption(self):
        """A RunRecord's adversary_spec seed replays the exact adversary."""
        record = run_scenario(
            Scenario(n=4, seed=9, adversary="random", monitor=True)
        )
        kind, seed, chosen = record.adversary_spec
        rebuilt = random_adversary(SystemConfig(n=4, seed=9), seed)
        assert rebuilt.spec == (kind, seed, chosen)

    def test_violations_surface_without_raising(self):
        """A run that trips the monitor becomes a recorded failure, and the
        campaign verdict turns red."""
        record = run_scenario(
            Scenario(
                n=4,
                seed=3,
                inputs="split",
                monitor=True,
                round_bound=0,  # absurd watchdog: every run violates
            )
        )
        assert record.invariant_violation is not None
        assert record.invariant_violation.startswith("[liveness]")
        assert not record.agreed
        cell = CampaignCell("none", "uniform", record.scenario.aggregation)
        res = CampaignResult(cells={cell: SweepResult(records=[record])})
        assert not res.ok
        assert res.violations == [record]
        assert res.cell_violations() == {cell: [record]}
        assert "VIOLATION" in res.table()

    def test_worker_count_does_not_change_results(self):
        kwargs = dict(
            n=4,
            adversaries=("none", "random"),
            schedulers=("uniform",),
            modes=("plain", "coalesce"),
            seeds=range(2),
        )
        inline = run_campaign(workers=1, **kwargs)
        pooled = run_campaign(workers=2, **kwargs)
        strip = lambda r: (r.scenario, r.agreed, r.decision, r.rounds,
                           r.adversary_spec, r.invariant_violation)
        assert [strip(r) for r in inline.records] == [
            strip(r) for r in pooled.records
        ]


class TestRunRecordFields:
    def test_defaults_for_unmonitored_runs(self):
        record = run_scenario(Scenario(n=4, seed=1))
        assert record.monitored is False
        assert record.invariant_violation is None
        assert record.coin_agreed == 0 and record.coin_split == 0

    def test_monitored_svss_run_reports_coin_tallies(self):
        record = run_scenario(
            Scenario(
                n=4,
                seed=5,
                coin="svss",
                scheduler="vote-balancing",
                monitor=True,
                round_bound=200,
            )
        )
        assert record.monitored and record.invariant_violation is None
        assert record.coin_agreed + record.coin_split >= 1

    def test_record_stays_picklable(self):
        import pickle

        record = run_scenario(
            Scenario(n=4, seed=2, adversary="adaptive-crash", monitor=True)
        )
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
