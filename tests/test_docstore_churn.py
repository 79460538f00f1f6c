"""Tests for the churn driver (:mod:`repro.docstore.churn`).

The driver itself is the assertion machine — it runs one deterministic
schedule of axis queries and subtree mutations twice (interleaved with
streaming fetches vs serialized replay) and compares rows, simulated
time, and ledger charges pairwise.  The tests here pin that it *reports
a match* on in-memory and durable catalogs, that its schedule builder is
deterministic and well-formed, and that the CLI wires through.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import SkinnerConfig
from repro.docstore.churn import ChurnOp, build_schedule, main, run_churn

FAST = SkinnerConfig(
    slice_budget=64,
    batches_per_table=3,
    base_timeout=200,
)

SMALL = dict(steps=10, seed=11, documents=2, items_per_document=5, depth=1,
             fetch_rows=2, config=FAST)


class TestSchedule:
    def test_deterministic_and_well_formed(self):
        one = build_schedule(steps=20, seed=9)
        two = build_schedule(steps=20, seed=9)
        assert one == two
        assert len(one) == 20
        assert one[0].kind == "query"  # streams must exist before mutations
        kinds = {op.kind for op in one}
        assert kinds <= {"query", "insert", "update", "delete"}
        for op in one:
            if op.kind == "query":
                assert op.sql.startswith("SELECT ")
                assert "DISTINCT" not in op.sql  # keeps streaming incremental
            if op.kind == "insert":
                assert op.subtree is not None

    def test_ops_are_frozen(self):
        op = build_schedule(steps=1, seed=1)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.kind = "delete"
        assert isinstance(op, ChurnOp)


class TestRunChurn:
    def test_in_memory_interleaving_matches_replay(self):
        report = run_churn(**SMALL)
        assert report.matched, report.summary()
        assert report.steps == 10
        assert report.queries + report.mutations == report.steps
        assert report.interleaved_work == report.replay_work
        assert len(report.per_query) == report.queries
        # some answer came from the result cache, and the driver checked
        # it against a direct run of the same statement
        assert report.cache_hits >= 1
        assert "MATCH" in report.summary()

    def test_durable_catalogs_match_too(self, tmp_path):
        report = run_churn(**SMALL, data_dir=tmp_path / "churn")
        assert report.matched, report.summary()
        assert (tmp_path / "churn" / "interleaved").is_dir()
        assert (tmp_path / "churn" / "replay").is_dir()

    @pytest.mark.parametrize("engine", ["skinner-g", "traditional"])
    def test_other_engines_uphold_the_contract(self, engine):
        # Non-streamable paths buffer rows until completion; byte-identity
        # must hold regardless of when rows become fetchable.
        report = run_churn(**{**SMALL, "steps": 6}, engine=engine)
        assert report.matched, report.summary()


class TestCli:
    def test_main_returns_zero_on_match(self, capsys, tmp_path):
        code = main(["--steps", "6", "--seed", "3",
                     "--data-dir", str(tmp_path / "cli")])
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out and "invalidations" in out
