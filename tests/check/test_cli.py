"""Tests for the ``python -m repro.check`` command-line driver."""

from repro.check import cli
from repro.check.cases import case_from_seed
from repro.check.differential import CheckFailure, case_to_json


def test_fuzz_small_run_passes(capsys):
    rc = cli.main(["fuzz", "--cases", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "5 cases passed" in out


def test_fuzz_failure_prints_repro_and_exits_nonzero(capsys, monkeypatch):
    failure = CheckFailure(case=case_from_seed(3), stage="serial-diff",
                           message="synthetic divergence")
    monkeypatch.setattr(cli, "check_case",
                        lambda case, **kw: failure if case.seed == 3 else None)
    rc = cli.main(["fuzz", "--cases", "10", "--no-shrink"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL [serial-diff]" in out
    assert "repro: python -m repro.check repro 3" in out


def test_repro_clean_seed(capsys):
    rc = cli.main(["repro", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_repro_with_mutation_fails(capsys):
    rc = cli.main(["repro", "0", "--stress",
                   "--mutation", "flush_publish_drop"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL [invariants]" in out


def test_repro_case_spec(capsys):
    spec = case_to_json(case_from_seed(1))
    rc = cli.main(["repro", "--case", spec])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_repro_without_input_is_usage_error(capsys):
    assert cli.main(["repro"]) == 2


def test_mutants_subset(capsys):
    rc = cli.main(["mutants",
                   "--names", "intra_lost_cas_writeback,refill_double_pop"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2/2 injected bugs detected" in out


def test_mutants_unknown_name(capsys):
    assert cli.main(["mutants", "--names", "nope"]) == 2


def test_mutants_reports_misses(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_mutant", lambda name, **kw: None)
    rc = cli.main(["mutants", "--names", "flush_publish_drop"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "MISSED flush_publish_drop" in out
