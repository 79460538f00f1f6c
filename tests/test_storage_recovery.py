"""Crash-recovery tests: SIGKILL a process mid-transaction, reopen, verify.

These are the end-to-end acceptance tests of the WAL protocol: a child
process commits some state, starts (but never commits) more mutations, and
is killed with ``SIGKILL`` — no atexit hooks, no checkpointing ``close()``.
Reopening the ``data_dir`` must recover exactly the committed state:
committed tables intact and queryable, uncommitted tables gone.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time

import pytest

from repro import SkinnerConfig, connect
from repro.errors import InterfaceError
from repro.skinner import parallel

_TIMEOUT = 60.0


def _wait_for(path, process, what: str) -> None:
    """Block until ``path`` exists (or the child exits prematurely)."""
    deadline = time.monotonic() + _TIMEOUT
    while not path.exists():
        if process.poll() is not None:
            out, err = process.communicate()
            raise AssertionError(
                f"child exited before {what}: rc={process.returncode}\n{out}\n{err}"
            )
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.02)


def _sigkill(process) -> None:
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=_TIMEOUT)


def _spawn(script_path, *args) -> subprocess.Popen:
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(script_path), *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


class TestKillNineRecovery:
    def test_committed_survives_uncommitted_does_not(self, tmp_path):
        data_dir = tmp_path / "db"
        sentinel = tmp_path / "mid-transaction"
        script = tmp_path / "child.py"
        script.write_text(textwrap.dedent("""\
            import sys, time
            from pathlib import Path
            from repro import connect

            def main():
                data_dir, sentinel = sys.argv[1], Path(sys.argv[2])
                conn = connect(data_dir=data_dir)
                conn.create_table("committed", {
                    "id": [1, 2, 3],
                    "name": ["ann", "bob", "cat"],
                    "score": [1.5, 2.5, 3.5],
                })
                conn.commit()
                # Open a second transaction and leave it hanging: these
                # mutations reach the WAL but no commit record follows.
                conn.create_table("uncommitted", {"id": [9, 9, 9]})
                conn.drop_table("uncommitted")
                conn.create_table("uncommitted", {"id": [7]})
                sentinel.touch()
                time.sleep(600)  # parent SIGKILLs us here

            if __name__ == "__main__":
                main()
        """))
        child = _spawn(script, data_dir, sentinel)
        _wait_for(sentinel, child, "mid-transaction sentinel")
        _sigkill(child)

        conn = connect(data_dir=data_dir)
        try:
            assert conn.catalog.table_names() == ["committed"]
            info = conn.catalog.buffer_manager.recovery_info
            assert info["discarded_records"] >= 3
            result = conn.execute_direct(
                "SELECT committed.name FROM committed WHERE committed.id > 1"
            )
            assert sorted(row["name"] for row in result.rows) == ["bob", "cat"]
        finally:
            conn.close()

    def test_kill_between_commits_keeps_every_committed_transaction(self, tmp_path):
        data_dir = tmp_path / "db"
        sentinel = tmp_path / "two-committed"
        script = tmp_path / "child.py"
        script.write_text(textwrap.dedent("""\
            import sys, time
            from pathlib import Path
            from repro import connect

            def main():
                data_dir, sentinel = sys.argv[1], Path(sys.argv[2])
                conn = connect(data_dir=data_dir)
                conn.create_table("first", {"a": [1, 2]})
                conn.commit()
                conn.create_table("second", {"b": ["x", "y", "z"]})
                conn.commit()
                sentinel.touch()
                time.sleep(600)

            if __name__ == "__main__":
                main()
        """))
        child = _spawn(script, data_dir, sentinel)
        _wait_for(sentinel, child, "second commit sentinel")
        _sigkill(child)

        conn = connect(data_dir=data_dir)
        try:
            assert sorted(conn.catalog.table_names()) == ["first", "second"]
            assert conn.catalog.table("second").column("b").values() == ["x", "y", "z"]
        finally:
            conn.close()

    def test_repeated_crashes_are_idempotent(self, tmp_path):
        # Crash-reopen-crash: each recovery checkpointed state must itself
        # recover cleanly (recovery is idempotent, generations stay fresh).
        data_dir = tmp_path / "db"
        script = tmp_path / "child.py"
        script.write_text(textwrap.dedent("""\
            import sys, time
            from pathlib import Path
            from repro import connect

            def main():
                data_dir, sentinel, name = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
                conn = connect(data_dir=data_dir)
                conn.create_table(name, {"v": [len(name)]}, replace=False)
                conn.commit()
                conn.create_table(name + "_doomed", {"v": [0]})
                sentinel.touch()
                time.sleep(600)

            if __name__ == "__main__":
                main()
        """))
        for name in ("alpha", "beta"):
            sentinel = tmp_path / f"ready-{name}"
            child = _spawn(script, data_dir, sentinel, name)
            _wait_for(sentinel, child, f"{name} sentinel")
            _sigkill(child)

        conn = connect(data_dir=data_dir)
        try:
            assert sorted(conn.catalog.table_names()) == ["alpha", "beta"]
        finally:
            conn.close()


    def test_kill_between_segment_write_and_wal_record(self, tmp_path):
        # The write order is segment fsync -> WAL record: a process killed
        # in between leaves a segment nothing points to.  The next open
        # must come up on the last commit and delete the orphan.
        data_dir = tmp_path / "db"
        sentinel = tmp_path / "segment-written"
        script = tmp_path / "child.py"
        script.write_text(textwrap.dedent("""\
            import sys, time
            from pathlib import Path
            from repro import connect
            from repro.storage.wal import WriteAheadLog

            def main():
                data_dir, sentinel = sys.argv[1], Path(sys.argv[2])
                conn = connect(data_dir=data_dir)
                conn.create_table("t", {"id": [1, 2, 3], "name": ["a", "b", "a"]})
                conn.commit()
                append = WriteAheadLog.append

                def stall(self, record, **kwargs):
                    if record.get("op") == "add_table":
                        sentinel.touch()
                        time.sleep(600)  # parent SIGKILLs us here
                    return append(self, record, **kwargs)

                WriteAheadLog.append = stall
                conn.create_table("t", {"id": [9], "name": ["z"]}, replace=True)

            if __name__ == "__main__":
                main()
        """))
        child = _spawn(script, data_dir, sentinel)
        _wait_for(sentinel, child, "segment-written sentinel")
        _sigkill(child)
        assert len(list((data_dir / "cols").iterdir())) == 2  # t's and the orphan

        conn = connect(data_dir=data_dir)
        try:
            assert conn.catalog.table("t").column("name").values() == ["a", "b", "a"]
            assert conn.catalog.buffer_manager.recovery_info["discarded_records"] == 0
            assert len(list((data_dir / "cols").iterdir())) == 1
        finally:
            conn.close()


class TestDamagedDataDir:
    def _committed(self, data_dir):
        conn = connect(data_dir=data_dir)
        conn.create_table("t", {"id": list(range(50)), "name": ["x", "y"] * 25})
        conn.commit()
        conn.close()

    def test_truncated_segment_raises_typed_error(self, tmp_path):
        self._committed(tmp_path / "db")
        (segment,) = (tmp_path / "db" / "cols").iterdir()
        os.truncate(segment, segment.stat().st_size - 16)
        with pytest.raises(InterfaceError, match="bytes"):
            connect(data_dir=tmp_path / "db")

    def test_missing_segment_raises_typed_error(self, tmp_path):
        self._committed(tmp_path / "db")
        (segment,) = (tmp_path / "db" / "cols").iterdir()
        segment.unlink()
        with pytest.raises(InterfaceError, match="missing"):
            connect(data_dir=tmp_path / "db")

    def test_version_one_directory_is_refused(self, tmp_path):
        # Layout 1: one .arr (and .dict) file per column, no segments.
        data_dir = tmp_path / "db"
        (data_dir / "cols").mkdir(parents=True)
        (data_dir / "cols" / "t-1.id.arr").write_bytes(bytes(24))
        (data_dir / "catalog.json").write_text(json.dumps({
            "format_version": 1, "next_generation": 2, "ingests": {},
            "tables": {"t": {"generation": 1, "rows": 3, "columns": [{
                "name": "id", "ctype": "int", "dtype": "<i8", "length": 3,
                "file": "cols/t-1.id.arr", "dictionary_file": None}]}},
        }))
        with pytest.raises(InterfaceError, match="format version 1"):
            connect(data_dir=data_dir)
        assert (data_dir / "cols" / "t-1.id.arr").exists()  # refused, not cleaned


class TestReaderOutlivesItsGeneration:
    """A cursor holds its tables, a table holds its mapping: replacing,
    committing (which unlinks the old segment) and checkpointing under a
    half-fetched result changes nothing the cursor returns."""

    CONFIG = SkinnerConfig(
        buffer_pool_bytes=1024, slice_budget=32, batches_per_table=3,
        base_timeout=150, serving_warm_start=False,
    )
    SQL = "SELECT a.k, b.v FROM t a, u b WHERE a.k = b.k"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replace_commit_checkpoint_between_fetches(self, tmp_path, workers, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 16)
        conn = connect(self.CONFIG, data_dir=tmp_path / "db", workers=workers)
        try:
            conn.create_table("t", {"k": list(range(300))})
            conn.create_table("u", {"k": list(range(300)),
                                    "v": [str(k % 7) for k in range(300)]})
            conn.commit()
            cursor = conn.cursor()
            cursor.execute(self.SQL)
            rows = cursor.fetchmany(5)  # the join is under way, far from done
            conn.create_table("u", {"k": [1], "v": ["z"]}, replace=True)
            conn.commit()
            segments = {path.name for path in (tmp_path / "db" / "cols").iterdir()}
            assert len(segments) == 2  # u's first generation is already gone
            conn.catalog.buffer_manager._checkpoint()
            rows += cursor.fetchall()
            assert sorted(rows) == [(k, str(k % 7)) for k in range(300)]
            if workers > 1:
                # Morsel payloads carry the columns the query read, so the
                # unlinked generation still reaches every worker.
                assert cursor.result().metrics.extra["parallel_morsels"] > 1
            assert conn.cursor().execute(self.SQL).fetchall() == [(1, "z")]
        finally:
            conn.close()


class TestServerKillNineRecovery:
    def test_server_sigkill_preserves_committed_state(self, tmp_path):
        data_dir = tmp_path / "db"
        port = _free_port()
        server = _spawn_server(port, data_dir)
        try:
            _wait_listening(server, port)
            remote = connect(f"repro://127.0.0.1:{port}/")
            remote.create_table("r", {"id": [1, 2, 3], "x": [10, 20, 30]})
            remote.commit()
            # Leave an uncommitted mutation hanging server-side.
            remote.create_table("doomed", {"id": [0]})
            _sigkill(server)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=_TIMEOUT)

        conn = connect(data_dir=data_dir)
        try:
            assert conn.catalog.table_names() == ["r"]
            result = conn.execute_direct("SELECT r.x FROM r WHERE r.id = 2")
            assert [row["x"] for row in result.rows] == [20]
        finally:
            conn.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_server(port: int, data_dir) -> subprocess.Popen:
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.net",
         "--port", str(port), "--data-dir", str(data_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def _wait_listening(process, port: int) -> None:
    deadline = time.monotonic() + _TIMEOUT
    while True:
        if process.poll() is not None:
            out, err = process.communicate()
            raise AssertionError(
                f"server exited early: rc={process.returncode}\n{out}\n{err}"
            )
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            if time.monotonic() > deadline:
                process.kill()
                raise AssertionError("server never started listening") from None
            time.sleep(0.05)
