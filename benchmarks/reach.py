"""Reach gate: which ``src/`` functions run on a product path.

    python benchmarks/reach.py            # list every unreached function
    python benchmarks/reach.py --check    # exit 1 on one the allowlist lacks

Each product pass runs in its own interpreter under ``sys.setprofile`` and
``threading.setprofile``, keyed by code object.  A function is reached when
its code object ran; a function nested in another counts as its outermost
``def``.  The passes are the four ``benchmarks/e2e`` workloads at
``--size tiny`` and at full size for one second, the six ``examples/``, and
one workload with ``REPRO_PARALLEL_WORKERS=2``, whose pool workers are
profiled through a pool initializer.

An unreached function must be on ``benchmarks/reach_allowlist.txt``, one
``src/<path>:<Qualified.name> <kind>: <reason>`` a line, where the kind is
one of :data:`REASON_KINDS`.  ``tests/test_surface.py`` checks that every
line names a function that exists and gives a reason.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOWLIST = ROOT / "benchmarks" / "reach_allowlist.txt"
E2E_RUN = "benchmarks/e2e/run.py"
E2E_WORKLOADS = ("job_learn_local", "tpch_hybrid_local", "wide_stream_remote",
                 "doc_churn_durable")
EXAMPLES = ("quickstart", "remote_quickstart", "udf_predicates", "imdb_style_analytics",
            "external_engine_quickstart", "docstore_quickstart")

#: Passes run at once, each in its own interpreter.
JOBS = 2

#: ``api``: exported in ``repro.__all__`` and used in ``docs/api.md`` or
#: ``examples/``; ``abstract``: an abstract method; ``error``: a typed-error
#: path; ``input``: a branch only an input the passes do not make reaches
#: (the reason names that input).
REASON_KINDS = ("api", "abstract", "error", "input")


def passes() -> dict[str, tuple[list[str], dict[str, str]]]:
    """Pass name -> (script and its arguments, extra environment)."""
    table: dict[str, tuple[list[str], dict[str, str]]] = {}
    for workload in E2E_WORKLOADS:
        table[f"{workload}-tiny"] = (
            [E2E_RUN, "--workload", workload, "--size", "tiny"], {})
        table[f"{workload}-full"] = (
            [E2E_RUN, "--workload", workload, "--seconds", "1"], {})
    for example in EXAMPLES:
        table[f"example-{example}"] = ([f"examples/{example}.py"], {})
    table["job_learn_local-workers2"] = (
        [E2E_RUN, "--workload", "job_learn_local", "--size", "tiny"],
        {"REPRO_PARALLEL_WORKERS": "2"})
    return table


# ----------------------------------------------------------------------
# the functions of src/
# ----------------------------------------------------------------------
def functions() -> dict[str, dict[int, str]]:
    """``src/`` path -> {first line of an outermost def: qualified name}.

    The first line is the first decorator's, as a code object's
    ``co_firstlineno`` is; a property's setter shares its getter's name.
    """
    found: dict[str, dict[int, str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        defs: dict[int, str] = {}
        _collect(ast.parse(path.read_text()).body, "", defs)
        found[path.relative_to(ROOT).as_posix()] = defs
    return found


def _collect(body: list[ast.stmt], prefix: str, defs: dict[int, str]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            defs[first] = prefix + node.name
        elif isinstance(node, ast.ClassDef):
            _collect(node.body, f"{prefix}{node.name}.", defs)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                inner = getattr(node, field, None)
                if isinstance(inner, list):
                    _collect([n for n in inner if isinstance(n, ast.AST)], prefix, defs)


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, tuple[str, str]]:
    """``path:Qualified.name`` -> (kind, reason); comments and blanks skipped."""
    entries: dict[str, tuple[str, str]] = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, rest = line.partition(" ")
        kind, _, reason = rest.strip().partition(":")
        if name in entries:
            raise ValueError(f"{path.name}: {name} is listed twice")
        entries[name] = (kind.strip(), reason.strip())
    return entries


# ----------------------------------------------------------------------
# one profiled pass (a child interpreter)
# ----------------------------------------------------------------------
_CODES: set = set()


def _profile(frame, event, arg) -> None:
    _CODES.add(frame.f_code)


def _start_profiling() -> None:
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def _dump(path: str) -> None:
    sys.setprofile(None)
    prefix = str(SRC) + os.sep
    reached = sorted({(code.co_filename, code.co_firstlineno) for code in _CODES
                      if code.co_filename.startswith(prefix)})
    Path(path).write_text(json.dumps(reached))


def _profile_worker(dump_dir: str) -> None:
    """Pool initializer: profile this worker and dump what it ran at exit."""
    from multiprocessing import util

    _start_profiling()
    path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")
    util.Finalize(None, _dump, args=(path,), exitpriority=100)


def run_pass(argv: list[str], dump_dir: str) -> None:
    """Run one product script under the profiler (pool workers too)."""
    _start_profiling()
    from repro.skinner import parallel

    parallel.ProcessPoolExecutor = functools.partial(
        parallel.ProcessPoolExecutor, initializer=_profile_worker, initargs=(dump_dir,))
    sys.argv = list(argv)
    try:
        runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    except SystemExit as exit_:
        if exit_.code not in (None, 0):
            raise
    finally:
        parallel.shutdown_workers()
        _dump(os.path.join(dump_dir, "main.json"))


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
#: What a pass's interpreter runs: ``run_pass`` of the pass named by its
#: first argument, dumping into the directory named by its second.
_CHILD = ("import sys; from benchmarks import reach; "
          "reach.run_pass(reach.passes()[sys.argv[1]][0], sys.argv[2])")


def profile_passes() -> set[tuple[str, int]]:
    """Every (file, first line) of a code object that ran on any pass."""
    environment = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        def one(item):
            name, (argv, extra) = item
            dump_dir = os.path.join(scratch, name)
            os.mkdir(dump_dir)
            done = subprocess.run(
                [sys.executable, "-c", _CHILD, name, dump_dir],
                cwd=ROOT, env={**environment, **extra}, capture_output=True, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"pass {name} failed:\n{done.stdout[-2000:]}"
                                   f"\n{done.stderr[-4000:]}")
            dumps = sorted(Path(dump_dir).glob("*.json"))
            print(f"  {name}: ok ({len(dumps) - 1} worker dumps)", flush=True)
            return {(file, line) for dump in dumps
                    for file, line in json.loads(dump.read_text())}

        with ThreadPoolExecutor(JOBS) as pool:
            return set().union(*pool.map(one, passes().items()))


def unreached(reached: set[tuple[str, int]]) -> list[str]:
    """``path:Qualified.name`` of every outermost def no pass ran."""
    ran = {(Path(file).resolve().relative_to(ROOT).as_posix(), line)
           for file, line in reached}
    missing: list[str] = []
    for path, defs in functions().items():
        names = {}
        for line, name in defs.items():
            names[name] = names.get(name, True) and (path, line) in ran
        missing.extend(f"{path}:{name}" for name, hit in names.items() if not hit)
    return missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when an unreached function is not on the allowlist")
    args = parser.parse_args(argv)
    print(f"profiling {len(passes())} product passes, {JOBS} at a time")
    missing = unreached(profile_passes())
    allowed = read_allowlist()
    unlisted = [name for name in missing if name not in allowed]
    total = sum(len(defs) for defs in functions().values())
    print(f"{total} functions in src/, {len(missing)} unreached, "
          f"{len(missing) - len(unlisted)} of them allowlisted")
    for name in unlisted:
        print(f"UNREACHED {name}")
    stale = sorted(set(allowed) - set(missing))
    for name in stale:
        print(f"reached now, could leave the allowlist: {name}")
    return 1 if args.check and unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
