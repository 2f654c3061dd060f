"""The serve-diff stage of the oracle ladder, through the check CLI."""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import repro
from repro.check import serve_oracle
from repro.check.cases import case_from_seed
from repro.check.cli import main, run_mutant
from repro.check.differential import check_case
from repro.errors import ReproError
from repro.serve import server as server_mod


def _spy_queries(monkeypatch):
    """Record ``[was_cached per answer]`` for every case the serve
    oracle serves."""
    real = serve_oracle.query_dfs
    calls = []

    def spy(graph, root, overrides=None):
        answers = real(graph, root, overrides)
        calls.append([cached for _, cached in answers])
        return answers

    monkeypatch.setattr(serve_oracle, "query_dfs", spy)
    return calls


def test_check_case_serve_passes_on_healthy_engine(monkeypatch):
    calls = _spy_queries(monkeypatch)
    assert check_case(case_from_seed(0)) is None
    # Served once, then repeated: the repeat must hit the result cache.
    assert calls == [[False, True]]


def test_serve_failure_carries_flag_into_repro_command(monkeypatch, capsys):
    # A serve-diff failure's repro command needs no stage flag: the plain
    # command runs every stage and replays the same failure.
    real = serve_oracle.query_dfs

    def corrupting(*args, **kwargs):
        return [({**result, "steps": result.get("steps", 0) + 1}, cached)
                for result, cached in real(*args, **kwargs)]

    monkeypatch.setattr(serve_oracle, "query_dfs", corrupting)
    failure = check_case(case_from_seed(4))
    assert failure is not None
    assert failure.stage == "serve-diff"
    assert "steps" in failure.message
    assert failure.repro_command == "python -m repro.check repro 4"
    assert main(["repro", "4"]) == 1
    assert "FAIL [serve-diff]" in capsys.readouterr().out


def test_cmd_repro_serve_exit_codes(monkeypatch, capsys):
    assert main(["repro", "3"]) == 0
    assert "PASS" in capsys.readouterr().out

    def broken(*args, **kwargs):
        raise ReproError("daemon unreachable")

    monkeypatch.setattr(serve_oracle, "query_dfs", broken)
    assert main(["repro", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL [serve-diff]" in out and "daemon unreachable" in out


def test_run_mutant_detected_through_serve_path(monkeypatch):
    failure = run_mutant("claim_lost_store", budget=4)
    assert failure is not None
    # The bug is caught by whichever stage fires first, and the mutation
    # survives into the reproduction command.
    assert "--mutation claim_lost_store" in failure.repro_command
    # A mutant the earlier stages miss on a case still reaches the
    # daemon; the mutation is live on the engine thread, so the served
    # payload, and its cached repeat, match the mutated direct run.
    calls = _spy_queries(monkeypatch)
    assert check_case(case_from_seed(0),
                      mutation="inter_skip_cas_validation") is None
    assert calls == [[False, True]]


def test_a_query_the_daemon_never_answers_fails_serve_diff(monkeypatch):
    """A served DFS that never completes times out into a serve-diff
    failure with its repro command, instead of hanging the ladder, and
    the abandoned daemon still closes its connection's socket."""
    release = threading.Event()

    def stuck(*args):
        release.wait(30.0)
        return []

    monkeypatch.setattr(server_mod, "execute_dfs_batch", stuck)
    monkeypatch.setattr(serve_oracle, "TIMEOUT", 0.5)
    gc.collect()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            failure = check_case(case_from_seed(3))
            gc.collect()
    finally:
        release.set()
    assert failure is not None and failure.stage == "serve-diff"
    assert "daemon response timed out" in failure.message
    assert failure.repro_command == "python -m repro.check repro 3"
    assert not [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)]


def test_a_stuck_engine_does_not_hold_the_process_open():
    """The abandoned query's engine call never returns in time, yet the
    process exits as soon as the ladder reports: the daemon's engine
    thread is not joined at exit."""
    script = textwrap.dedent("""
        import time
        from repro.check import serve_oracle
        from repro.check.cases import case_from_seed
        from repro.check.differential import check_case
        from repro.serve import server

        def stuck(*args):
            time.sleep(6.0)
            return []

        server.execute_dfs_batch = stuck
        serve_oracle.TIMEOUT = 0.5
        failure = check_case(case_from_seed(0))
        assert failure is not None and failure.stage == "serve-diff"
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=src))
    assert time.monotonic() - start < 3.0
