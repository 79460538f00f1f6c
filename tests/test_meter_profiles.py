"""Unit tests for the cost meter and the paper harness's engine profiles."""

import pytest

from repro.engine.meter import CostMeter, WorkBreakdown
from repro.errors import BudgetExceeded
from benchmarks.paper.profiles import EngineProfile, get_profile, profile_names


class TestCostMeter:
    def test_charges_accumulate(self):
        meter = CostMeter()
        meter.charge_scan(10)
        meter.charge_predicate(5)
        meter.charge_probe(2)
        meter.charge_intermediate(3)
        meter.charge_output(1)
        meter.charge_udf(4)
        assert meter.total == 25
        snapshot = meter.snapshot()
        assert snapshot.tuples_scanned == 10
        assert snapshot.total == 25

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostMeter().charge_scan(-1)

    def test_budget_exceeded(self):
        meter = CostMeter(budget=10)
        meter.charge_scan(10)
        with pytest.raises(BudgetExceeded):
            meter.charge_scan(1)
        # The overflowing charge is still recorded.
        assert meter.total == 11

    def test_budget_exceeded_carries_spent(self):
        meter = CostMeter(budget=5)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.charge_scan(20)
        assert excinfo.value.spent == 20

    def test_remaining(self):
        meter = CostMeter(budget=10)
        meter.charge_scan(4)
        assert meter.remaining == 6
        assert CostMeter().remaining is None

    def test_merge(self):
        a = CostMeter()
        a.charge_scan(3)
        b = CostMeter()
        b.charge_output(2)
        a.merge(b)
        assert a.total == 5
        a.merge(WorkBreakdown(predicate_evals=1))
        assert a.total == 6

    def test_clamp_batch_unlimited_meter_passes_through(self):
        assert CostMeter().clamp_batch(10_000) == 10_000

    def test_clamp_batch_limits_to_remaining_budget(self):
        meter = CostMeter(budget=100)
        meter.charge_scan(60)
        assert meter.clamp_batch(10_000) == 40
        assert meter.clamp_batch(25) == 25

    def test_clamp_batch_never_below_one(self):
        meter = CostMeter(budget=10)
        meter.charge_scan(10)
        assert meter.clamp_batch(10_000) == 1

    def test_clamp_batch_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CostMeter().clamp_batch(0)


class TestBatchBudgetClamping:
    """Regression: a single large batch must not overshoot a budget unbounded."""

    def _joinable_catalog(self, rows=400):
        from repro.storage.catalog import Catalog
        from repro.storage.table import Table

        catalog = Catalog()
        catalog.add_table(Table("a", {"k": [i % 7 for i in range(rows)]}))
        catalog.add_table(Table("b", {"k": [i % 7 for i in range(rows)]}))
        return catalog

    def test_batched_join_overshoot_is_bounded(self):
        from repro.query.predicates import column_equals_column
        from repro.query.query import make_query
        from repro.skinner.multiway_join import MultiwayJoin
        from repro.skinner.preprocessor import preprocess
        from repro.skinner.result_set import JoinResultSet
        from repro.skinner.state import initial_state

        catalog = self._joinable_catalog()
        query = make_query(
            [("a", "a"), ("b", "b")],
            predicates=[column_equals_column("a", "k", "b", "k")],
        )
        prepared = preprocess(catalog, query)
        budget = 50
        batch_size = 10_000
        meter = CostMeter(budget=budget)
        join = MultiwayJoin(prepared, batch_size=batch_size)
        offsets = {alias: 0 for alias in prepared.aliases}
        state = initial_state(("a", "b"), offsets)
        results = JoinResultSet(prepared.aliases)
        with pytest.raises(BudgetExceeded):
            while not join.continue_join(state, offsets, 1_000_000, results, meter):
                pass
        # Without clamping, the very first scan batch would charge the full
        # 10_000-tuple batch; with clamping the recorded overshoot is bounded
        # by one remaining-budget-sized chunk per charge kind.
        assert meter.total <= 3 * budget
        assert meter.total < batch_size


class TestProfiles:
    def test_known_profiles(self):
        assert set(profile_names()) == {"monetdb", "postgres", "commercial", "skinner"}
        for name in profile_names():
            assert get_profile(name).name == name

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            get_profile("oracle")

    def test_case_insensitive_lookup(self):
        assert get_profile("MonetDB").name == "monetdb"

    def test_simulated_time_weights(self):
        profile = EngineProfile("x", scan_weight=2.0, predicate_weight=1.0, startup_cost=5.0)
        work = WorkBreakdown(tuples_scanned=10, predicate_evals=4)
        assert profile.simulated_time(work) == pytest.approx(5.0 + 20.0 + 4.0)

    def test_parallelism_amdahl(self):
        profile = EngineProfile("x", scan_weight=1.0, parallel_fraction=0.5)
        work = WorkBreakdown(tuples_scanned=100)
        single = profile.simulated_time(work, threads=1)
        parallel = profile.simulated_time(work, threads=10)
        assert single == pytest.approx(100.0)
        assert parallel == pytest.approx(50.0 + 5.0)

    def test_monetdb_cheaper_per_tuple_than_skinner(self):
        work = WorkBreakdown(tuples_scanned=1000, intermediate_tuples=1000)
        assert get_profile("monetdb").simulated_time(work) < get_profile("skinner").simulated_time(work)

    def test_threads_do_not_help_serial_profile(self):
        work = WorkBreakdown(tuples_scanned=100)
        postgres = get_profile("postgres")
        assert postgres.simulated_time(work, threads=8) == postgres.simulated_time(work, threads=1)
