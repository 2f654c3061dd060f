"""The serve-diff stage of the oracle ladder, through the check CLI."""

from repro.check.cases import case_from_seed
from repro.check.cli import main, run_mutant
from repro.check.differential import check_case
from repro.errors import ReproError


def _spy_queries(monkeypatch):
    """Record ``(no_cache, was_cached)`` for every serve-oracle query."""
    from repro.check import serve_oracle as oracle_mod

    real = oracle_mod.ServeOracle.query_dfs
    calls = []

    def spy(self, graph, root, overrides=None, *, no_cache=False):
        result, cached = real(self, graph, root, overrides, no_cache=no_cache)
        calls.append((no_cache, cached))
        return result, cached

    monkeypatch.setattr(oracle_mod.ServeOracle, "query_dfs", spy)
    return calls


def test_check_case_serve_passes_on_healthy_engine(monkeypatch):
    calls = _spy_queries(monkeypatch)
    assert check_case(case_from_seed(0)) is None
    # Served once, then repeated: the repeat must hit the result cache.
    assert len(calls) == 2
    assert calls[1] == (False, True)


def test_serve_failure_carries_flag_into_repro_command(monkeypatch, capsys):
    # A serve-diff failure's repro command needs no stage flag: the plain
    # command runs every stage and replays the same failure.
    from repro.check import serve_oracle as oracle_mod

    real = oracle_mod.ServeOracle.query_dfs

    def corrupting(self, graph, root, overrides=None, **kwargs):
        result, cached = real(self, graph, root, overrides, **kwargs)
        bad = dict(result)
        bad["steps"] = bad.get("steps", 0) + 1
        return bad, cached

    monkeypatch.setattr(oracle_mod.ServeOracle, "query_dfs", corrupting)
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

    from repro.check import serve_oracle as oracle_mod

    def broken(self, graph, root, overrides=None, **kwargs):
        raise ReproError("daemon unreachable")

    monkeypatch.setattr(oracle_mod.ServeOracle, "query_dfs", broken)
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
    # daemon, once and past its result cache, so injected output is
    # never memoized; the mutation is live on the executor threads, so
    # the served payload matches the mutated direct run.
    calls = _spy_queries(monkeypatch)
    assert check_case(case_from_seed(0),
                      mutation="inter_skip_cas_validation") is None
    assert calls == [(True, False)]
