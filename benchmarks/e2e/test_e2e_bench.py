"""Self-test of the end-to-end benchmark, at ``--size tiny``.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import layers, run
from e2e.trace import SHIM_TARGETS

SPEC = json.loads(run.BENCHMARK_JSON.read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _cli(*arguments: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run.HERE / "run.py"), *arguments],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def traced_twice() -> dict[str, list[dict]]:
    """Two traced tiny runs of every workload with one seed."""
    return {name: [run.measure(name, 5, 1.0, True, "tiny") for _ in range(2)]
            for name in WORKLOADS}


def test_benchmark_json_names_what_the_code_emits():
    assert list(run.WORKLOAD_NAMES) == WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_named_metric_with_unit_and_finite_value(trace):
    done = _cli("--size", "tiny", "--seed", "3", "--trace", trace)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == named
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for name, unit in named.items():  # printed by name, with its unit
        assert any(line.split()[0] == name and line.split()[-1] == unit
                   for line in done.stdout.splitlines() if line and not line.startswith("{"))


def test_tiny_never_writes_out(tmp_path):
    out = tmp_path / "out"
    done = _cli("--workload", WORKLOADS[0], "--size", "tiny", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert not out.exists()


def test_traced_runs_are_correct_and_leave_nothing_behind(traced_twice):
    for name, records in traced_twice.items():
        for record in records:
            assert record["failures"] == [], name
            # Span tree well-formed, shims gone, no temp path, listening
            # socket or open cursor left, work units equal traced/untraced.
            assert record["problems"] == [], name
    assert not any(run.SCRATCH_ROOT.iterdir())


def test_span_tree_is_well_formed(traced_twice):
    for name, records in traced_twice.items():
        spans = records[0]["spans_of_first_traced_pass"]
        assert spans, name
        assert layers.malformed(spans) == []
        by_id = {span[layers.ID]: span for span in spans}
        for span in spans:
            parent = by_id.get(span[layers.PARENT])
            if parent is not None:
                assert parent[layers.START] <= span[layers.START]
                assert span[layers.END] <= parent[layers.END]
        assert min(layers.self_times(spans).values()) >= 0


def test_exact_counts_repeat_for_a_seed(traced_twice):
    for name, (first, second) in traced_twice.items():
        exact = layers.EXACT_COUNTS
        if name != "wide_stream_remote":
            exact += layers.EXACT_COUNTS_IN_PROCESS
        for metric in exact:
            assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], (
                name, metric)


def test_workloads_do_what_they_were_chosen_for(traced_twice):
    value = lambda name, metric: traced_twice[name][0]["metrics"][metric]["value"]  # noqa: E731
    for local in ("job_learn_local", "tpch_hybrid_local", "doc_churn_durable"):
        assert value(local, "net.frames") == 0
    assert value("wide_stream_remote", "net.frames") > 0
    assert value("tpch_hybrid_local", "skinner.join_busy_s") == 0
    assert value("tpch_hybrid_local", "external.run_batch_calls") > 0
    assert value("job_learn_local", "skinner.join_busy_s") > 0
    assert value("doc_churn_durable", "storage.pool_evictions") > 0
    assert value("doc_churn_durable", "storage.fsync_calls") > 0
    assert value("doc_churn_durable", "serving.invalidations") > 0


def test_every_patched_attribute_is_restored():
    def held():
        found = []
        for _, owner_path, attribute, _ in SHIM_TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            found.append(vars(owner)[attribute])
        return found

    before = held()
    record = run.measure("tpch_hybrid_local", 2, 1.0, True, "tiny")
    assert record["problems"] == []
    assert all(now is then for now, then in zip(held(), before))


def _write_runs(directory: Path, values: list[float], failed_share: float = 0.0) -> None:
    directory.mkdir()
    for name in WORKLOADS:
        runs = [{"failed_share": failed_share,
                 "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                             for m in SPEC["end_to_end"]}} for value in values]
        (directory / f"{name}.json").write_text(json.dumps({"workload": name, "runs": runs}))


def test_compare_ok_regressed_unresolved(tmp_path, capsys):
    _write_runs(tmp_path / "a", [100.0, 101.0, 102.0, 103.0])
    _write_runs(tmp_path / "same", [100.5, 101.5, 102.5, 103.5])
    _write_runs(tmp_path / "worse", [150.0, 151.0, 152.0, 153.0])
    _write_runs(tmp_path / "noisy", [60.0, 90.0, 110.0, 140.0])
    _write_runs(tmp_path / "failing", [100.0, 101.0, 102.0, 103.0], failed_share=0.01)
    assert run.compare(tmp_path / "a", tmp_path / "same") == 0
    assert "regressed" not in capsys.readouterr().out
    # Lower-is-better metrics regress going up, higher-is-better going down.
    assert run.compare(tmp_path / "a", tmp_path / "worse") == 1
    assert "query_p50_ms" in capsys.readouterr().out
    assert run.compare(tmp_path / "worse", tmp_path / "a") == 1
    assert run.compare(tmp_path / "a", tmp_path / "noisy") == 0
    assert "unresolved" in capsys.readouterr().out
    assert run.compare(tmp_path / "a", tmp_path / "failing") == 1


def test_fails_without_the_program_under_test(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(run.HERE, target, ignore=shutil.ignore_patterns(
        "__pycache__", "out", ".tmp", ".pytest_cache"))
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
