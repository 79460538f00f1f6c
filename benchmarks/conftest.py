"""Shared helpers for the per-table / per-figure benchmark modules.

Each benchmark module regenerates one table or figure of the paper.  The
experiment runs once inside pytest-benchmark (``rounds=1``) — the interesting
output is the table/series itself, which is printed so that
``pytest benchmarks/ --benchmark-only -s`` shows the reproduced numbers.

Two environment variables drive the CI integration:

``BENCH_SMOKE=1``
    Shrink every experiment to a tiny scale factor (one repetition is the
    default already), so the whole suite finishes in CI minutes while still
    exercising every engine end to end.
``BENCH_OUTPUT_DIR=<dir>``
    Write one ``BENCH_<experiment>.json`` per experiment — the rendered rows
    or series, the parameters used, and the wall time — so CI can upload the
    results as a workflow artifact and the perf trajectory is tracked
    per-PR.  Unset means no files are written.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import pytest

from benchmarks.paper.report import render

#: Per-keyword ceilings applied when ``BENCH_SMOKE=1``: every experiment
#: keyword that appears here is reduced to a smoke-sized value.
_SMOKE_LIMITS: dict[str, Any] = {
    "scale": 0.15,
    "threads": 2,
    "workers": 2,
    "tuples_per_table": 60,
    "budget": 5_000,
    "table_counts": (3,),
    "clients": 3,
    "queries_per_client": 2,
    "heavy_sessions": 2,
    "documents": 3,
    "items_per_document": 8,
    "depth": 1,
}


def smoke_mode() -> bool:
    """Whether the suite runs in the reduced CI smoke configuration."""
    return os.environ.get("BENCH_SMOKE", "") == "1"


#: A benchmark session's scratch directory in the temp dir, named with the
#: pid of the process that owns it.
_SESSION_DIR = re.compile(r"repro-bench-(\d+)")


@pytest.fixture(scope="session", autouse=True)
def _session_scratch_dir():
    """Keep the session's temp files in a directory of its own.

    The storage benchmarks keep their on-disk state (CSV fixtures, durable
    ``data_dir``) in a ``tempfile.mkdtemp`` directory, and the
    external-engine benchmarks mirror tables into ``repro-mirror-*`` sqlite
    files; both are made under ``repro-bench-<pid>`` in the temp dir, which
    the session removes at its end.  A session that died leaves its
    directory behind, so every session first sweeps those of dead pids —
    never the files of a live process, such as the mirrors of a test suite
    running beside it.
    """
    root = tempfile.gettempdir()
    remove_dead_sessions(root)
    scratch = os.path.join(root, f"repro-bench-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tempfile, "tempdir", scratch)
            patch.setenv("TMPDIR", scratch)  # subprocesses too
            yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def remove_dead_sessions(root: str) -> None:
    """Remove the scratch directories in ``root`` of sessions that are gone."""
    for name in os.listdir(root):
        match = _SESSION_DIR.fullmatch(name)
        if match and not _alive(int(match.group(1))):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's process
        return True
    return True


def _smoke_kwargs(kwargs: dict[str, Any]) -> dict[str, Any]:
    reduced = dict(kwargs)
    for key, limit in _SMOKE_LIMITS.items():
        if key not in reduced:
            continue
        if key == "table_counts":
            reduced[key] = limit
        else:
            reduced[key] = min(reduced[key], limit)
    return reduced


def _json_safe(value: Any) -> Any:
    """Best-effort conversion of experiment outputs to JSON-compatible data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _json_safe(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return repr(value)


def _write_artifact(name: str, output: dict[str, Any], seconds: float,
                    kwargs: dict[str, Any]) -> None:
    output_dir = os.environ.get("BENCH_OUTPUT_DIR", "")
    if not output_dir:
        return
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    artifact = {
        "experiment": name,
        "title": output.get("title", name),
        "smoke": smoke_mode(),
        "wall_time_seconds": round(seconds, 3),
        "kwargs": _json_safe(kwargs),
        "output": _json_safe(output),
    }
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True))


def run_experiment(benchmark, experiment: Callable[..., dict[str, Any]], **kwargs) -> dict:
    """Run one experiment exactly once under pytest-benchmark and print it."""
    if smoke_mode():
        kwargs = _smoke_kwargs(kwargs)
    started = time.perf_counter()
    output = benchmark.pedantic(lambda: experiment(**kwargs), rounds=1, iterations=1)
    seconds = time.perf_counter() - started
    _write_artifact(experiment.__name__, output, seconds, kwargs)
    print()
    print(render(output))
    return output

