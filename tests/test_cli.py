"""End-to-end command-line tests driven through main() in-process."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ptopt.cli as cli
import ptopt.training as tr
from ptopt import __version__
from ptopt.errors import NumericError, TrainingError
from ptopt.metrics import MetricsReport
from ptopt.model import PTConfig
from ptopt.training import STRATEGIES

from helpers import record_executors


@pytest.fixture(scope="module")
def prices_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    assert cli.main(["synth", "--assets", "3", "--days", "790", "--seed", "5", "--out", str(path)]) == 0
    return path


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_shape(tmp_path):
    out = tmp_path / "p.csv"
    assert cli.main(["synth", "--assets", "4", "--days", "25", "--seed", "7", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 26
    assert all(len(line.split(",")) == 5 for line in lines)
    assert lines[0] == "date,A1,A2,A3,A4"


def test_synth_same_flags_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["synth", "--assets", "3", "--days", "40", "--seed", "11"]
    assert cli.main(flags + ["--out", str(a)]) == 0
    assert cli.main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_zero_assets_is_usage_error(tmp_path):
    out = tmp_path / "p.csv"
    assert cli.main(["synth", "--assets", "0", "--days", "10", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("momentum", ["nan", "inf"])
def test_synth_non_finite_momentum_is_usage_error(momentum, tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert cli.main(["synth", "--assets", "2", "--days", "10", "--momentum", momentum, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: momentum must be finite, got {momentum}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_synth_refuses_a_market_whose_prices_overflow(tmp_path, capsys):
    # the planted momentum compounds past the largest double: the loader would refuse the file, and numpy's
    # overflow warning, an error here, is not printed before the command's one line
    out = tmp_path / "p.csv"
    assert cli.main(["synth", "--assets", "1", "--days", "2000", "--seed", "0", "--momentum", "1.05", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: prices must be finite and positive\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# run


def test_run_mv_writes_all_artifacts(prices_csv, tmp_path):
    out = tmp_path / "run"
    code = cli.main(
        ["run", "--strategy", "mv", "--data", str(prices_csv), "--out", str(out), "--first-test-year", "2016"]
    )
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert sorted(metrics) == sorted(cli.METRIC_COLUMNS)
    for name in ("equity.csv", "rolling_sharpe.csv", "trials.csv", "manifest.json"):
        assert (out / name).exists()
    equity_lines = (out / "equity.csv").read_text().splitlines()
    assert equity_lines[0] == "date,value"
    assert len(equity_lines) > 200


def test_run_manifest_records_config_seed_version_checksum(prices_csv, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out), "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["config"]["strategy"] == "equal_weight"
    assert manifest["input_sha256"] == hashlib.sha256(prices_csv.read_bytes()).hexdigest()
    assert manifest["version"]


MANIFEST = """{
  "blas": %(blas)s,
  "blas_threads": {
    "MKL_NUM_THREADS": null,
    "OMP_NUM_THREADS": null,
    "OPENBLAS_NUM_THREADS": null
  },
  "command": "run",
  "config": {
    "budget": 0,
    "cost_rate": 0.0002,
    "data": %(data)s,
    "first_test_year": 2016,
    "max_epochs": 100,
    "out_dir": %(out_dir)s,
    "patience": 10,
    "search_once": false,
    "seed": 9,
    "space_path": null,
    "strategy": "equal_weight",
    "t2v_k": 3,
    "window": 8
  },
  "input_sha256": %(input_sha256)s,
  "numpy": %(numpy)s,
  "python": %(python)s,
  "seed": 9,
  "version": %(version)s
}
"""


def test_manifest_bytes_are_pinned_apart_from_the_provenance_fields(prices_csv, tmp_path, monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    out = tmp_path / "run"
    assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out), "--seed", "9"]) == 0
    text = (out / "manifest.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    # what names the build, the host or the input comes from the file, each value as JSON at its depth
    fill = {k: json.dumps(doc[k], sort_keys=True, indent=2).replace("\n", "\n  ") for k in ("blas", "input_sha256", "numpy", "python", "version")}
    fill.update({k: json.dumps(doc["config"][k]) for k in ("data", "out_dir")})
    assert text == MANIFEST % fill


def test_a_command_without_data_exits_1_before_any_output(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["run", "--strategy", "mv", "--out", str(out)]) == 1
    assert "the following arguments are required: --data" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["run", "--strategy", "equal_weight"], ["compare", "--strategies", "mv", "equal_weight"]], ids=["run", "compare"]
)
def test_manifest_hashes_the_input_as_it_was_read(command, prices_csv, tmp_path, monkeypatch):
    data = tmp_path / "prices.csv"
    shutil.copyfile(prices_csv, data)
    digest = hashlib.sha256(data.read_bytes()).hexdigest()
    load_csv = cli.load_csv

    def load_then_rewrite(path):
        table = load_csv(path)
        Path(path).write_text("date,A1\n", encoding="utf-8")  # the file changes once the run has read it
        return table

    monkeypatch.setattr(cli, "load_csv", load_then_rewrite)
    out = tmp_path / "out"
    assert cli.main([*command, "--data", str(data), "--out", str(out)]) == 0
    assert hashlib.sha256(data.read_bytes()).hexdigest() != digest
    assert json.loads((out / "manifest.json").read_text())["input_sha256"] == digest


@pytest.mark.parametrize(
    "command", [["run", "--strategy", "equal_weight"], ["compare", "--strategies", "mv", "equal_weight"]], ids=["run", "compare"]
)
def test_manifest_hashes_the_bytes_that_were_parsed(command, prices_csv, tmp_path, monkeypatch):
    data = tmp_path / "prices.csv"
    shutil.copyfile(prices_csv, data)
    load_csv = cli.load_csv
    parsed = []

    def rewrite_then_load(path):
        # another valid market replaces the file once the command has started, just before the parse
        assert cli.main(["synth", "--assets", "3", "--days", "790", "--seed", "6", "--out", str(path)]) == 0
        parsed.append(Path(path).read_bytes())
        return load_csv(path)

    monkeypatch.setattr(cli, "load_csv", rewrite_then_load)
    out = tmp_path / "out"
    assert cli.main([*command, "--data", str(data), "--out", str(out)]) == 0
    assert parsed[0] != prices_csv.read_bytes()
    assert json.loads((out / "manifest.json").read_text())["input_sha256"] == hashlib.sha256(parsed[0]).hexdigest()


@pytest.mark.parametrize("command", [["run", "--strategy", "mv"], ["compare", "--strategies", "mv", "equal_weight"]])
def test_data_that_is_not_utf8_is_a_data_error(command, tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"date,A\xff\n2020-01-02,1\n2020-01-03,2\n")
    out = tmp_path / "o"
    assert cli.main([*command, "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(data) in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_run_manifest_records_result_flags_and_versions(prices_csv, tmp_path, monkeypatch):
    import platform

    import numpy as np

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    out = tmp_path / "run"
    assert cli.main(
        ["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out),
         "--max-epochs", "7", "--patience", "3", "--search-once"]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["max_epochs"] == 7
    assert manifest["config"]["patience"] == 3
    assert manifest["config"]["search_once"] is True
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas")
    if blas is None:
        assert manifest["blas"] is None
    else:
        assert manifest["blas"] == {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "3"}

    defaults = tmp_path / "defaults"
    assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(defaults)]) == 0
    config = json.loads((defaults / "manifest.json").read_text())["config"]
    assert (config["max_epochs"], config["patience"], config["search_once"]) == (100, 10, False)


def test_run_unknown_strategy_lists_valid_choices(prices_csv, tmp_path, capsys):
    code = cli.main(["run", "--strategy", "nosuch", "--data", str(prices_csv), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    for name in ("pt", "lstm", "mlp", "mv", "equal_weight"):
        assert name in err


def test_run_twice_identical_metrics_bytes(prices_csv, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(
            ["run", "--strategy", "mv", "--data", str(prices_csv), "--out", str(out), "--seed", "3"]
        ) == 0
    assert (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()


def test_run_refuses_nonempty_dir_without_force(prices_csv, tmp_path):
    out = tmp_path / "run"
    base = ["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out)]
    assert cli.main(base) == 0
    assert cli.main(base) == 1
    assert cli.main(base + ["--force"]) == 0


RUN_FILES = ["equity.csv", "history.csv", "manifest.json", "metrics.json", "rolling_sharpe.csv", "trials.csv"]
COMPARE_FILES = ["comparison.csv", "comparison.txt", "equity_curves.csv", "manifest.json"]
LSTM_RUN = ["run", "--strategy", "lstm", "--max-epochs", "1", "--patience", "1"]


def test_a_forced_rerun_leaves_only_its_own_files(prices_csv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --out
    base = [*LSTM_RUN, "--data", str(prices_csv), "--out", "run"]
    assert cli.main([*base, "--first-test-year", "2015"]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted([*RUN_FILES, "checkpoint_2015.ckpt", "checkpoint_2016.ckpt"])
    assert cli.main([*base, "--first-test-year", "2016", "--force"]) == 0
    # the first run's checkpoint_2015.ckpt is gone with the rest of it, and no hidden sibling is left
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted([*RUN_FILES, "checkpoint_2016.ckpt"])
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]["first_test_year"] == 2016


def test_a_forced_compare_over_a_run_leaves_only_its_own_files(prices_csv, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*LSTM_RUN, "--data", str(prices_csv), "--out", str(out)]) == 0
    assert cli.main(["compare", "--strategies", "mv", "equal_weight", "--data", str(prices_csv), "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in out.iterdir()) == COMPARE_FILES
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("force", [False, True, None], ids=["fresh", "force", "empty"])
def test_a_run_that_fails_while_writing_leaves_no_part_of_itself(force, prices_csv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    if force:
        assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out)]) == 0
    elif force is None:  # an existing empty --out, filled in place
        out.mkdir()
    before = snapshot(out) if out.exists() else None

    def full_disk(*a, **k):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "save_checkpoint", full_disk)  # after metrics.json and the CSVs are written
    argv = [*LSTM_RUN, "--data", str(prices_csv), "--out", str(out), *(["--force"] if force else [])]
    assert cli.main(argv) == 2
    assert "no space left on device" in capsys.readouterr().err
    # no hidden sibling is left, and an existing --out stays as it was
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["out"])
    assert before is None or snapshot(out) == before


@pytest.mark.parametrize("force", [False, True], ids=["fresh", "force"])
def test_a_killed_run_s_staging_directories_block_no_later_run(force, prices_csv, tmp_path):
    # a run killed after staging leaves .out.<pid> and .out.<pid>.old: a later run with the same pid must not mind
    out, plain = tmp_path / "out", tmp_path / "plain"
    stale = [tmp_path / f".out.{os.getpid()}", tmp_path / f".out.{os.getpid()}.old"]
    for d in stale:
        d.mkdir()
        (d / "metrics.json").write_text("stale")
    base = ["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out)]
    assert cli.main(base) == 0
    if force:
        assert cli.main([*base, "--force"]) == 0
    # both are left as they were, no new hidden sibling is left, and out has the mode a plain mkdir gives
    assert [sorted(p.name for p in d.iterdir()) for d in stale] == [["metrics.json"]] * 2
    assert all((d / "metrics.json").read_text() == "stale" for d in stale)
    plain.mkdir()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out", "plain", *(d.name for d in stale)])
    assert out.stat().st_mode == plain.stat().st_mode
    assert json.loads((out / "manifest.json").read_text())["command"] == "run"


def test_a_forced_run_whose_rename_fails_puts_the_old_directory_back(prices_csv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    base = ["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out)]
    assert cli.main(base) == 0
    before = snapshot(out)
    renames, rename = [], Path.rename

    def failing_second(self, target):  # the old directory moves aside, then the new one fails to take its name
        renames.append(self)
        if len(renames) == 2:
            raise OSError("injected rename failure")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", failing_second)
    assert cli.main([*base, "--seed", "1", "--force"]) == 2
    assert "injected rename failure" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out"] and snapshot(out) == before


@pytest.mark.parametrize("kind", ["unrelated file", "foreign manifest", "input inside", "mount point"])
def test_force_replaces_only_an_earlier_output_directory(kind, prices_csv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    data = out / "prices.csv" if kind == "input inside" else prices_csv
    if kind in ("input inside", "mount point"):  # an earlier run's directory, but one --force must not replace
        assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out)]) == 0
        if kind == "input inside":
            shutil.copy(prices_csv, data)
    else:
        out.mkdir()
        (out / ("notes.txt" if kind == "unrelated file" else "manifest.json")).write_text('{"name": "an app"}\n')
    monkeypatch.setattr(cli.os.path, "ismount", lambda p: kind == "mount point" and Path(p) == out)
    before = snapshot(out)

    def unread(path):
        raise AssertionError("load_csv must not be called")

    monkeypatch.setattr(cli, "load_csv", unread)
    assert cli.main(["run", "--strategy", "mv", "--data", str(data), "--out", str(out), "--force"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--force" in err
    assert snapshot(out) == before and [p.name for p in tmp_path.iterdir()] == ["out"]


def test_an_empty_out_is_filled_in_place_when_it_cannot_be_renamed_or_its_parent_written(prices_csv, tmp_path, monkeypatch):
    parent = tmp_path / "ro"
    (parent / "out").mkdir(parents=True)
    access = os.access
    monkeypatch.setattr(cli.os, "access", lambda p, mode: Path(p) != parent and access(p, mode))  # a read-only parent

    def busy(self, target):  # a mount point cannot be renamed
        raise OSError(16, "Device or resource busy")

    monkeypatch.setattr(Path, "rename", busy)
    argv = ["run", "--strategy", "equal_weight", "--data", str(prices_csv)]
    assert cli.main([*argv, "--out", str(parent / "out")]) == 0
    assert sorted(p.name for p in (parent / "out").iterdir()) == RUN_FILES
    assert [p.name for p in parent.iterdir()] == ["out"]
    # a missing --out under that parent is refused before any work
    monkeypatch.setattr(cli, "load_csv", lambda path: pytest.fail("load_csv must not be called"))
    assert cli.main([*argv, "--out", str(parent / "new")]) == 1
    assert [p.name for p in parent.iterdir()] == ["out"]


@pytest.mark.parametrize("given", ["relative", "symlink"])
def test_force_checks_the_parent_of_the_directory_out_resolves_to(given, prices_csv, tmp_path, capsys, monkeypatch):
    parent = tmp_path.resolve() / "ro"
    out = parent / "out"
    assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out)]) == 0
    before = snapshot(out)
    if given == "relative":  # given from a sibling of ro, its parent is checked as what "../ro" resolves to
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        arg = "../ro/out"
    else:
        arg = str(tmp_path / "link")
        os.symlink(out, arg)
    access = os.access
    monkeypatch.setattr(cli.os, "access", lambda p, mode: Path(p) != parent and access(p, mode))  # a read-only parent
    monkeypatch.setattr(cli, "load_csv", lambda path: pytest.fail("load_csv must not be called"))
    assert cli.main(["run", "--strategy", "mv", "--data", str(prices_csv), "--out", arg, "--force"]) == 1
    assert capsys.readouterr().err == f"error: output path {arg}: cannot write in {parent}\n"
    assert snapshot(out) == before and [p.name for p in parent.iterdir()] == ["out"]


@pytest.mark.parametrize("given", [".", ".."], ids=["dot", "dotdot"])
def test_force_refuses_an_out_that_holds_the_working_directory(given, prices_csv, tmp_path, capsys, monkeypatch):
    out = tmp_path.resolve() / "out"
    assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out)]) == 0
    before = snapshot(out)
    here = out if given == "." else out / "sub"  # inside the earlier run, or a directory made inside it
    here.mkdir(exist_ok=True)
    monkeypatch.chdir(here)
    monkeypatch.setattr(cli, "load_csv", lambda path: pytest.fail("load_csv must not be called"))
    assert cli.main(["run", "--strategy", "mv", "--data", str(prices_csv), "--out", given, "--force"]) == 1
    assert capsys.readouterr().err == (
        f"error: --force cannot replace {out}: it is a mount point or holds the input or the working directory\n"
    )
    # the caller's directory is still there, and the old run as it was
    assert Path.cwd() == here and here.is_dir()
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, *(["sub"] if given == ".." else [])])


def test_force_from_a_working_directory_that_no_longer_exists_replaces_the_earlier_run(prices_csv, tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(out)]
    assert cli.main(argv) == 0
    (tmp_path / "gone").mkdir()
    monkeypatch.chdir(tmp_path / "gone")
    (tmp_path / "gone").rmdir()
    assert cli.main([*argv, "--seed", "1", "--force"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 1


def test_run_out_naming_a_file_is_usage_error(prices_csv, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for out in (taken, taken / "sub"):
        assert cli.main(["run", "--strategy", "mv", "--data", str(prices_csv), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert taken.read_text() == "keep\n"


def test_run_malformed_space_file_is_usage_error(prices_csv, tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text("[1, 2]")
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "lstm", "--data", str(prices_csv), "--out", str(out), "--space", str(space)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_run_truncated_space_file_is_usage_error_naming_the_file(prices_csv, tmp_path, capsys, monkeypatch):
    def no_work(*a, **k):
        raise AssertionError("the data was read before the space was checked")

    monkeypatch.setattr(cli, "load_csv", no_work)
    space = tmp_path / "space.json"
    space.write_text('{"axes": {"hidden": [4, 8]}, "budget" 2}')
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "lstm", "--data", str(prices_csv), "--out", str(out), "--space", str(space)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --space {space}: Expecting ':' delimiter") and len(err.splitlines()) == 1
    assert not out.exists()


def test_run_space_axis_no_model_reads_is_usage_error(prices_csv, tmp_path, capsys, monkeypatch):
    def no_work(*a, **k):
        raise AssertionError("the data was read before the space was checked")

    monkeypatch.setattr(cli, "load_csv", no_work)
    space = tmp_path / "space.json"
    space.write_text('{"axes": {"d_modle": [8, 16]}, "budget": 2}')
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "pt", "--data", str(prices_csv), "--out", str(out), "--space", str(space)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'d_modle'" in err
    assert not out.exists()
    # compare checks the space against every trained strategy before any work
    space.write_text('{"axes": {"hidden": [4]}, "budget": 1}')
    code = cli.main(
        ["compare", "--strategies", "mv", "lstm", "pt", "--data", str(prices_csv), "--out", str(out), "--space", str(space)]
    )
    assert code == 1
    assert "'hidden'" in capsys.readouterr().err
    assert not out.exists()


def test_compare_space_keyed_by_strategy(prices_csv, tmp_path, monkeypatch):
    planned = {}
    walk_outcomes = cli.walk_outcomes

    def recording(table, schedule, strategies, walks, jobs, search_once):
        planned.update(walks)
        return walk_outcomes(table, schedule, strategies, walks, jobs, search_once)

    monkeypatch.setattr(cli, "walk_outcomes", recording)
    space = tmp_path / "space.json"
    space.write_text('{"lstm": {"axes": {"hidden": [4]}, "budget": 1}, "pt": {"axes": {"d_model": [4]}, "budget": 2}}')
    out = tmp_path / "c"
    code = cli.main(
        ["compare", "--strategies", "mv", "lstm", "mlp", "pt", "--data", str(prices_csv), "--out", str(out),
         "--space", str(space), "--max-epochs", "1", "--patience", "1"]
    )
    assert code == 0
    assert (planned["lstm"].combos, planned["lstm"].budget) == ([{"hidden": 4}], 1)
    # pt's space holds its --t2v-k setting too
    assert (planned["pt"].combos, planned["pt"].budget) == ([{"d_model": 4, "t2v_k": PTConfig.t2v_k}], 2)
    # a strategy with no entry gets what it gets with no --space, and a rule plans no walk
    assert planned["mlp"].budget == 0 and "mv" not in planned


@pytest.mark.parametrize("key", ["mlp", "mv", "lstmm"])
def test_compare_space_entry_for_no_listed_trained_strategy_is_usage_error(prices_csv, tmp_path, capsys, monkeypatch, key):
    def no_work(*a, **k):
        raise AssertionError("the data was read before the space was checked")

    monkeypatch.setattr(cli, "load_csv", no_work)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"lstm": {"axes": {"hidden": [4]}}, key: {"axes": {"learning_rate": [0.01]}}}))
    out = tmp_path / "c"
    code = cli.main(
        ["compare", "--strategies", "mv", "lstm", "--data", str(prices_csv), "--out", str(out), "--space", str(space)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and repr(key) in err
    assert err.startswith(f"error: --space {space}: has an entry for {key!r}")  # the path, as every --space error
    assert not out.exists()


def test_run_reads_its_own_entry_of_a_keyed_space(prices_csv, tmp_path):
    space = tmp_path / "space.json"
    space.write_text('{"lstm": {"axes": {"hidden": [3, 5]}, "budget": 2}, "pt": {"axes": {"d_model": [4]}}}')
    out = tmp_path / "r"
    code = cli.main(
        ["run", "--strategy", "lstm", "--data", str(prices_csv), "--out", str(out), "--space", str(space),
         "--max-epochs", "1", "--patience", "1"]
    )
    assert code == 0
    trials = (out / "trials.csv").read_text().splitlines()[1:]
    assert trials and len(trials) % 2 == 0  # a budget of 2 per split
    assert all('{""hidden"": 3}' in row or '{""hidden"": 5}' in row for row in trials)


def test_searched_run_ships_the_winning_trial(prices_csv, tmp_path):
    import csv

    from ptopt.model import load_checkpoint

    out = tmp_path / "r"
    code = cli.main(
        ["run", "--strategy", "lstm", "--data", str(prices_csv), "--out", str(out), "--budget", "3",
         "--max-epochs", "2", "--patience", "2", "--seed", "4"]
    )
    assert code == 0
    with open(out / "trials.csv", newline="") as fh:
        trials = list(csv.DictReader(fh))
    with open(out / "history.csv", newline="") as fh:
        history = list(csv.DictReader(fh))
    years = sorted({int(t["test_year"]) for t in trials})
    assert years and sorted({int(h["test_year"]) for h in history}) == years
    for split_idx, year in enumerate(years):
        rows = [t for t in trials if int(t["test_year"]) == year]
        winner = min(rows, key=lambda t: float(t["val_loss"]))
        ckpt = load_checkpoint(out / f"checkpoint_{year}.ckpt")
        assert ckpt.config.seed == 4 + 104729 * split_idx + int(winner["trial"])
        # history.csv is the shipped winner's curve: its best epoch is the trial's score
        curve = [h for h in history if int(h["test_year"]) == year]
        assert [int(h["epoch"]) for h in curve] == list(range(len(curve)))
        assert min(float(h["val_loss"]) for h in curve) == float(winner["val_loss"])


def test_run_history_csv_columns(prices_csv, tmp_path):
    out = tmp_path / "r"
    assert cli.main(
        ["run", "--strategy", "mlp", "--data", str(prices_csv), "--out", str(out), "--max-epochs", "2", "--patience", "2"]
    ) == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "test_year,epoch,train_loss,val_loss"
    assert [line.split(",")[:2] for line in lines[1:3]] == [["2016", "0"], ["2016", "1"]]
    assert all(repr(float(v)) == v for line in lines[1:] for v in line.split(",")[2:])


def test_run_where_every_trial_fails_exits_3(prices_csv, tmp_path, capsys, monkeypatch):
    import ptopt.training as tr
    from ptopt.errors import TrainingError

    def explode(*a, **k):
        raise TrainingError("non-finite loss")

    monkeypatch.setattr(tr, "fit", explode)
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "lstm", "--budget", "2", "--data", str(prices_csv), "--out", str(out)])
    assert code == 3
    assert "all 2 trials for test year 2016 failed" in capsys.readouterr().err
    assert not out.exists()


def test_run_space_with_no_valid_combo_is_usage_error(prices_csv, tmp_path, capsys):
    # an MLP hidden size of 32.5 is refused, not truncated to 32, which leaves no combo
    space = tmp_path / "space.json"
    space.write_text('{"axes": {"hidden": [[32.5]]}, "budget": 1}')
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "mlp", "--data", str(prices_csv), "--out", str(out), "--space", str(space)])
    assert code == 1
    err = capsys.readouterr().err
    # the message names the field and the value that sank the first combo
    assert "no valid combination" in err and "hidden" in err and "32.5" in err
    assert not out.exists()


def test_run_space_skips_a_combo_whose_fit_settings_cannot_build(prices_csv, tmp_path):
    # a negative or non-finite learning rate builds a model but no fit config, so the search drops its combo
    space = tmp_path / "space.json"
    space.write_text('{"axes": {"hidden": [4], "learning_rate": [0.001, -1, Infinity, "nan"]}, "budget": 4}')
    out = tmp_path / "o"
    assert cli.main([*LSTM_RUN, "--data", str(prices_csv), "--out", str(out), "--space", str(space)]) == 0
    with open(out / "trials.csv", newline="") as fh:
        params = [json.loads(row["params"]) for row in csv.DictReader(fh)]
    assert params == [{"hidden": 4, "learning_rate": 0.001}] * 4


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_jobs_below_one_is_usage_error(prices_csv, tmp_path, capsys, monkeypatch, jobs):
    def no_work(*a, **k):
        raise AssertionError("the data was read before --jobs was checked")

    monkeypatch.setattr(cli, "load_csv", no_work)
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "lstm", "--budget", "1", "--jobs", jobs, "--data", str(prices_csv), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--jobs" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags, field", [
    pytest.param("run --strategy lstm --seed -1", "seed", id="--seed--1-seed"),
    pytest.param("run --strategy lstm --max-epochs 0", "max_epochs", id="--max-epochs-0-max_epochs"),
    pytest.param("run --strategy lstm --patience 0", "patience", id="--patience-0-patience"),
    pytest.param("run --strategy lstm --cost-rate -1", "cost_rate", id="--cost-rate--1-cost_rate"),
    pytest.param("run --strategy equal_weight --cost-rate nan", "cost_rate must be finite", id="equal_weight--cost-rate-nan"),
    pytest.param("run --strategy equal_weight --cost-rate inf", "cost_rate must be finite", id="equal_weight--cost-rate-inf"),
    pytest.param("run --strategy pt --t2v-k 0", "t2v_k must be >= 1, got 0", id="pt--t2v-k-0"),
    pytest.param("run --strategy pt --window 1", "window must be >= 2, got 1", id="pt--window-1"),
    pytest.param("run --strategy mlp --window 1", "window must be >= 2, got 1", id="mlp--window-1"),
    # a later strategy's setting is refused before an earlier one trains
    pytest.param("compare --strategies lstm pt --t2v-k 0", "t2v_k must be >= 1, got 0", id="compare-lstm-pt--t2v-k-0"),
    pytest.param("run --strategy pt --budget 2 --window 1", "no valid combination; the first, {'d_model': 8", id="pt--budget-2--window-1"),
    pytest.param("run --strategy lstm --space LSTM_SPACE", "no valid combination; the first, {'hidden': 0}, fails: hidden must be >= 1, got 0",
                 id="lstm--space"),
    pytest.param("run --strategy lstm --space BATCH_SPACE",
                 "no valid combination; the first, {'hidden': 4, 'batch_size': 0}, fails: batch_size must be >= 1, got 0", id="lstm--space-batch-size"),
    pytest.param("run --strategy lstm --space INF_RATE_SPACE",
                 "the first, {'hidden': 4, 'learning_rate': inf}, fails: learning_rate must be finite, got inf", id="lstm--space-inf-rate"),
    pytest.param("run --strategy lstm --space NAN_RATE_SPACE",
                 "the first, {'hidden': 4, 'learning_rate': 'nan'}, fails: learning_rate must be finite, got nan", id="lstm--space-nan-rate"),
    pytest.param("compare --strategies lstm pt --space PT_SPACE --budget 2", "the first, {'n_heads': 3, 't2v_k': 3}, fails: n_heads 3 must divide",
                 id="compare-lstm-pt--space"),
])
def test_run_bad_flag_is_usage_error_before_the_data_is_read(prices_csv, tmp_path, capsys, monkeypatch, flags, field):
    def no_work(*a, **k):
        raise AssertionError(f"the data was read before {flags} was checked")

    monkeypatch.setattr(cli, "load_csv", no_work)
    spaces = {
        "PT_SPACE": '{"pt": {"axes": {"n_heads": [3]}}}', "LSTM_SPACE": '{"axes": {"hidden": [0, -1]}}',
        "BATCH_SPACE": '{"axes": {"hidden": [4], "batch_size": [0]}}',
        "INF_RATE_SPACE": '{"axes": {"hidden": [4], "learning_rate": [Infinity]}}',
        "NAN_RATE_SPACE": '{"axes": {"hidden": [4], "learning_rate": ["nan"]}}',
    }
    for name, text in spaces.items():  # no combo of any builds both its model and its fit
        (tmp_path / name).write_text(text)
        flags = flags.replace(name, str(tmp_path / name))
    out = tmp_path / "o"
    code = cli.main([*flags.split(), "--data", str(prices_csv), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and len(err.splitlines()) == 1
    # a run that does not search names the setting alone
    assert ("hyperparameter space" in err) == ("--budget" in flags or "--space" in flags)
    assert not out.exists()


# ---------------------------------------------------------------------------
# the trial pool


@pytest.fixture
def counted_pools(monkeypatch):
    """``(workers, shut down)`` of every ProcessPoolExecutor constructed; each one is real."""
    import concurrent.futures

    made = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append([max_workers, False])
            self.record = made[-1]
            super().__init__(max_workers, **kwargs)

        def shutdown(self, *args, **kwargs):
            self.record[1] = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return made


# two test years, so a search per split and strategy
SHORT_FLAGS = ["--first-test-year", "2015", "--max-epochs", "1", "--patience", "1"]
SEARCH_FLAGS = ["--budget", "2", *SHORT_FLAGS]


def test_compare_runs_every_search_on_one_pool(prices_csv, tmp_path, counted_pools):
    import multiprocessing

    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        code = cli.main(
            ["compare", "--strategies", "lstm", "mlp", "--data", str(prices_csv), "--out", str(outs[jobs]),
             "--jobs", jobs, *SEARCH_FLAGS]
        )
        assert code == 0
        assert multiprocessing.active_children() == []
        # four searches (two strategies, two test years) share one pool of two workers
        assert counted_pools == ([] if jobs == "1" else [[2, True]])
    for name in ("comparison.csv", "equity_curves.csv"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()


@pytest.mark.parametrize(
    "flags, rows",
    [(SEARCH_FLAGS, 5), ([*SEARCH_FLAGS, "--search-once"], 3), (SHORT_FLAGS, 1)],
    ids=["search_each_split", "search_once", "unsearched"],
)
def test_run_results_do_not_depend_on_jobs(flags, rows, prices_csv, tmp_path, counted_pools):
    import csv

    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        code = cli.main(
            ["run", "--strategy", "lstm", "--data", str(prices_csv), "--out", str(outs[jobs]), "--jobs", jobs, *flags]
        )
        assert code == 0
    # each batch holds two fits or more: with --search-once the 2016 split fits on the pool
    # after the 2015 search, and unsearched, both splits fit on it at once
    assert counted_pools == [[2, True]]
    trials = {}
    for jobs, out in outs.items():
        with open(out / "trials.csv", newline="") as fh:
            trials[jobs] = [row[:-1] for row in csv.reader(fh)]  # all but the seconds column
    assert len(trials["1"]) == rows and trials["1"] == trials["2"]
    for name in ("metrics.json", "equity.csv", "history.csv", "checkpoint_2015.ckpt", "checkpoint_2016.ckpt"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()


@pytest.mark.parametrize("flags", [[], ["--budget", "2"], ["--budget", "2", "--search-once"], ["--search-once"]])
def test_compare_results_do_not_depend_on_jobs(flags, prices_csv, tmp_path):
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        code = cli.main(
            ["compare", "--strategies", "lstm", "mlp", "mv", "--data", str(prices_csv), "--out", str(outs[jobs]),
             "--jobs", jobs, *SHORT_FLAGS, *flags]
        )
        assert code == 0
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == sorted(p.name for p in outs["2"].iterdir())
    for name in names:
        if name == "manifest.json":  # which names its own --out
            a, b = (json.loads((out / name).read_text()) for out in outs.values())
            assert a["config"].pop("out_dir") != b["config"].pop("out_dir") and a == b
        else:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


@pytest.mark.parametrize("once, sent", [([], [8] * 8), (["--search-once"], [4] * 4 + [6] * 2)], ids=["search_each_split", "search_once"])
def test_a_searched_compare_sends_every_task_before_it_reads_a_result(once, sent, prices_csv, tmp_path, monkeypatch):
    made = record_executors(monkeypatch)
    seen = []
    run_trial = tr._run_trial

    def recording(payload, table=None):
        seen.append(len(made[0].payloads))  # the tasks sent when this one runs
        return run_trial(payload, table)

    monkeypatch.setattr(tr, "_run_trial", recording)
    code = cli.main(
        ["compare", "--strategies", "lstm", "mlp", "mv", "--data", str(prices_csv), "--out", str(tmp_path / "c"),
         "--jobs", "2", *SEARCH_FLAGS, *once]
    )
    assert code == 0
    # two strategies, two test years and two trials a search: every fit in one batch, or with
    # --search-once the four first-split trials, then the two later fits, planned on their winners
    assert seen == sent and len(made) == 1


@pytest.mark.parametrize("once", [[], ["--search-once"]], ids=["search_each_split", "search_once"])
def test_a_searched_command_filters_each_grid_once(once, prices_csv, tmp_path, monkeypatch):
    calls = []
    valid_combos = tr.valid_combos

    def counting(space, strategy, *args):
        calls.append(strategy)
        return valid_combos(space, strategy, *args)

    monkeypatch.setattr(tr, "valid_combos", counting)
    code = cli.main(
        ["compare", "--strategies", "lstm", "pt", "mv", "--data", str(prices_csv), "--out", str(tmp_path / "c"),
         *SEARCH_FLAGS, *once]
    )
    assert code == 0 and calls == ["lstm", "pt"]


def test_a_budget_of_one_runs_a_search_of_one_trial(prices_csv, tmp_path):
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "mlp", "--budget", "1", "--data", str(prices_csv), "--out", str(out), *SHORT_FLAGS])
    assert code == 0
    with open(out / "trials.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # a search lists its trial, where a walk that does not search lists none
    assert [row[:2] for row in rows[1:]] == [["2015", "0"], ["2016", "0"]]


def test_a_run_without_a_parallel_search_starts_no_pool(prices_csv, tmp_path, counted_pools):
    base = ["--data", str(prices_csv), "--jobs", "2", "--max-epochs", "1", "--patience", "1"]
    assert cli.main(["run", "--strategy", "mv", "--first-test-year", "2015", "--out", str(tmp_path / "mv"), *base]) == 0
    # no batch holds two fits, so no second worker could run: one split of one trial,
    # or --search-once with one trial in the 2015 search and one 2016 fit
    assert cli.main(["run", "--strategy", "mlp", "--first-test-year", "2016", "--budget", "1", "--out", str(tmp_path / "one"), *base]) == 0
    assert cli.main(
        ["run", "--strategy", "mlp", "--first-test-year", "2015", "--budget", "1", "--search-once", "--out", str(tmp_path / "once"), *base]
    ) == 0
    assert counted_pools == []


def test_workers_never_outnumber_the_largest_batch(prices_csv, tmp_path, monkeypatch):
    made = record_executors(monkeypatch)
    space = tmp_path / "space.json"
    space.write_text('{"lstm": {"axes": {"hidden": [3]}, "budget": 1}, "mlp": {"axes": {"hidden": [[4]]}, "budget": 3}}')
    compare = ["compare", "--strategies", "lstm", "mlp", "mv", "--data", str(prices_csv), "--space", str(space), *SHORT_FLAGS]
    runs = [
        # one batch of two searches of two trials
        ["run", "--strategy", "lstm", "--data", str(prices_csv), "--jobs", "10000", *SEARCH_FLAGS],
        # one batch of 2 x 1 + 2 x 3 trials, more than the jobs
        [*compare, "--jobs", "6"],
        # 1 + 3 first-split trials, then two later fits
        [*compare, "--jobs", "8", "--search-once"],
        # two unsearched fits
        ["run", "--strategy", "lstm", "--data", str(prices_csv), "--jobs", "8", *SHORT_FLAGS],
    ]
    for i, argv in enumerate(runs):
        assert cli.main([*argv, "--out", str(tmp_path / str(i))]) == 0
    assert [e.max_workers for e in made] == [4, 6, 4, 2]
    assert all(e.shut for e in made)


def test_no_worker_outlives_a_run_whose_trials_all_fail(prices_csv, tmp_path, capsys, monkeypatch, counted_pools):
    import multiprocessing

    import ptopt.training as tr
    from ptopt.errors import TrainingError

    def explode(*a, **k):
        raise TrainingError("non-finite loss")

    monkeypatch.setattr(tr, "fit", explode)  # before the workers fork, so they inherit it
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "lstm", "--data", str(prices_csv), "--out", str(out), "--jobs", "2", *SEARCH_FLAGS])
    assert code == 3
    assert "all 2 trials for test year 2015 failed" in capsys.readouterr().err
    assert counted_pools == [[2, True]]
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_a_killed_trial_worker_exits_2(prices_csv, tmp_path, capsys, monkeypatch, counted_pools):
    import multiprocessing

    monkeypatch.setattr(tr, "fit", lambda *a, **k: os._exit(9))  # before the workers fork, so they inherit it
    out = tmp_path / "o"
    code = cli.main(["run", "--strategy", "lstm", "--data", str(prices_csv), "--out", str(out), "--jobs", "2", *SEARCH_FLAGS])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: a trial worker died: ") and len(err.splitlines()) == 1
    assert counted_pools == [[2, True]]
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_a_pipeline_that_fails_between_two_walks_shuts_the_workers_before_its_error_leaves(prices_csv, tmp_path, counted_pools):
    import multiprocessing

    argv = ["compare", "--strategies", "lstm", "mlp", "--data", str(prices_csv), "--out", str(tmp_path / "c"), "--jobs", "2", *SEARCH_FLAGS]
    args = cli.build_parser().parse_args(argv)

    def keep(outcomes, curve, report):  # lstm's turn, with mlp's outcomes not yet picked
        raise RuntimeError("first turn")

    with pytest.raises(RuntimeError, match="first turn") as caught:
        cli._walk_each(args, args.strategies, args.strategies, keep)
    # the kept traceback holds the pipeline's frame, and so the walk it left suspended, alive
    assert caught.tb is not None and counted_pools == [[2, True]]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("data", ["no.csv", "file.csv/x"], ids=["missing", "under_a_file"])
def test_run_missing_data_file_exits_2(data, tmp_path):
    (tmp_path / "file.csv").write_text("date,A\n2020-01-02,1\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--strategy", "mv", "--data", str(tmp_path / data), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.fixture(scope="module")
def short_history_csv(tmp_path_factory):
    """A 3-asset market of 2015-12-01 ... 2017-01-25: under a month of rows before 2016."""
    path = tmp_path_factory.mktemp("short") / "prices.csv"
    assert cli.main(["synth", "--assets", "3", "--days", "800", "--seed", "1", "--out", str(path)]) == 0
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(row for row in rows if row[:10] >= "2015-12-01"))
    return path


@pytest.mark.parametrize("flags, message", [
    ("mv", "need 50 rows before 2016 for the mean-variance window"),
    ("lstm", "training range before 2016 too short for window length 8"),
    # the walk checks its first split before it reads an outcome, searched or not, on any pool
    ("lstm --budget 2", "training range before 2016 too short for window length 8"),
    ("lstm --budget 2 --jobs 2", "training range before 2016 too short for window length 8"),
])
def test_too_short_a_history_before_the_first_test_year_exits_2(flags, message, short_history_csv, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["run", "--strategy", *flags.split(), "--data", str(short_history_csv), "--out", str(out), "--first-test-year", "2016"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("order, message", [
    (["mv", "lstm", "mlp"], "need 50 rows before 2016 for the mean-variance window"),
    (["lstm", "mv", "mlp"], "training range before 2016 too short for window length 8"),
], ids=["rule_first", "trained_first"])
def test_a_compare_raises_the_first_strategy_s_error(order, message, jobs, tmp_path, capsys):
    # every trained fit goes out before any walk, and with --search-once the first splits are
    # ranked before any walk too; still no fit's error comes before an earlier strategy's
    import multiprocessing

    data, out = tmp_path / "prices.csv", tmp_path / "cmp"
    assert cli.main(["synth", "--assets", "3", "--days", "1060", "--seed", "1", "--out", str(data)]) == 0
    header, *rows = data.read_text().splitlines(keepends=True)
    data.write_text(header + "".join(row for row in rows if row[:10] >= "2015-12-01"))  # tested in 2016 and 2017
    argv = ["compare", "--strategies", *order, "--data", str(data), "--out", str(out),
            "--first-test-year", "2016", "--budget", "2", "--search-once", "--jobs", jobs]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert multiprocessing.active_children() == []
    assert not out.exists()


@pytest.fixture(scope="module")
def mid_history_csv(short_history_csv):
    """The short-history market's synth run cut to start 2015-11-20: enough rows for a window-2 LSTM, not for MV."""
    path = short_history_csv.parent / "mid.csv"
    assert cli.main(["synth", "--assets", "3", "--days", "800", "--seed", "1", "--out", str(path)]) == 0
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(row for row in rows if row[:10] >= "2015-11-20"))
    return path


@pytest.mark.parametrize("market, flags, message", [
    ("short", "run --strategy lstm --budget 2", "training range before 2016 too short for window length 8"),
    ("short", "compare --strategies lstm mlp --budget 2 --search-once", "training range before 2016 too short for window length 8"),
    # MV fails after a trained strategy that passes
    ("mid", "compare --strategies lstm mv --window 2 --budget 2", "need 50 rows before 2016 for the mean-variance window"),
], ids=["run", "compare_search_once", "mv_after_trained"])
def test_a_failing_data_check_starts_no_pool(market, flags, message, short_history_csv, mid_history_csv, tmp_path, capsys, monkeypatch):
    made = record_executors(monkeypatch)
    data, out = {"short": short_history_csv, "mid": mid_history_csv}[market], tmp_path / "o"
    argv = [*flags.split(), "--data", str(data), "--out", str(out), "--first-test-year", "2016", "--jobs", "2"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert made == []  # no executor, so no task sent
    assert not out.exists()


def test_a_data_error_comes_before_an_earlier_strategy_s_numeric_failure(short_history_csv, tmp_path, capsys):
    # equal_weight alone is ruined on its first day at this cost rate (exit 3), but every
    # strategy's data is checked before any strategy walks
    out = tmp_path / "o"
    argv = ["compare", "--strategies", "equal_weight", "lstm", "--cost-rate", "2", "--data", str(short_history_csv),
            "--out", str(out), "--first-test-year", "2016"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "data error: training range before 2016 too short for window length 8\n"
    assert not out.exists()


def test_a_ruined_strategy_is_a_numeric_error_naming_its_first_ruined_day(prices_csv, tmp_path, capsys):
    # the first day buys the whole book from cash, at twice its value in costs
    out = tmp_path / "o"
    argv = ["run", "--strategy", "equal_weight", "--cost-rate", "2", "--data", str(prices_csv), "--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: net return -2.0") and err.endswith(" on 2016-01-01 is not above -100%\n")
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["lstm", "pt"])
def test_a_trained_strategy_on_one_asset_is_a_data_error(strategy, tmp_path, capsys):
    data, out = tmp_path / "one.csv", tmp_path / "o"
    assert cli.main(["synth", "--assets", "1", "--days", "800", "--out", str(data)]) == 0
    assert cli.main(["compare", "--strategies", "mv", strategy, "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f"data error: {strategy} needs at least 2 assets, got 1\n")
    assert not out.exists()


def test_a_year_missing_from_the_data_is_a_data_error(tmp_path, capsys):
    data, out = tmp_path / "gap.csv", tmp_path / "o"
    assert cli.main(["synth", "--assets", "3", "--days", "1600", "--seed", "2", "--out", str(data)]) == 0
    header, *rows = data.read_text().splitlines(keepends=True)
    data.write_text(header + "".join(row for row in rows if not row.startswith("2017-")))
    assert cli.main(["run", "--strategy", "mv", "--first-test-year", "2016", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: no data for test year 2017\n"
    assert not out.exists()


def test_an_unsearched_fit_that_fails_exits_3_naming_its_batch(prices_csv, tmp_path, monkeypatch, capsys):
    def explode(*a, **k):
        raise TrainingError("non-finite loss nan in epoch 0, batch 0")

    monkeypatch.setattr(tr, "fit", explode)
    out = tmp_path / "o"
    assert cli.main(["run", "--strategy", "lstm", "--data", str(prices_csv), "--out", str(out), *SHORT_FLAGS]) == 3
    err = capsys.readouterr().err
    # the fit's own error, not a search's summary, under the year whose split raised it
    assert "test year 2015: non-finite loss nan in epoch 0, batch 0" in err and "trials" not in err
    assert not out.exists()


def test_a_one_trial_search_that_fails_exits_3_naming_its_year(prices_csv, tmp_path, monkeypatch, capsys):
    def explode(*a, **k):
        raise TrainingError("non-finite loss nan in epoch 0, batch 0")

    monkeypatch.setattr(tr, "fit", explode)
    out = tmp_path / "o"
    assert cli.main(["run", "--strategy", "lstm", "--budget", "1", "--data", str(prices_csv), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: test year 2016: non-finite loss nan in epoch 0, batch 0\n"
    assert not out.exists()


@pytest.mark.parametrize("error", [NumericError, TrainingError])
def test_numeric_failure_exits_3(prices_csv, tmp_path, monkeypatch, capsys, error):
    def explode(*a, **k):
        raise error("boom")

    monkeypatch.setattr(cli, "clean_and_return", explode)
    assert cli.main(["run", "--strategy", "mv", "--data", str(prices_csv), "--out", str(tmp_path / "o")]) == 2 + 1
    assert capsys.readouterr().err == "numeric failure: boom\n"


def test_missing_subcommand_is_usage_error():
    assert cli.main([]) == 1


@pytest.mark.parametrize("argv", [[], ["run"]], ids=["ptopt", "run"])
def test_help_exits_0_with_usage_on_stdout(argv, capsys):
    assert cli.main([*argv, "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: ptopt", *argv]) + " ") and err == ""


@pytest.mark.parametrize("argv, prog, error", [
    (["--strategy", "nope"], ["run"], "ptopt run: error: argument --strategy: invalid choice: 'nope' (choose from "),
    (["--strategy", "mv", "--bogus"], [], "ptopt: error: unrecognized arguments: --bogus\n"),
], ids=["invalid_choice", "unknown_flag"])
def test_a_usage_error_exits_1_with_argparse_s_usage_and_error_lines(argv, prog, error, prices_csv, tmp_path, capsys):
    assert cli.main([*prog, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"  # the usage lines that open the help of the parser that errs
    assert cli.main(["run", *argv, "--data", str(prices_csv), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(usage + error) and err[len(usage):].count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "o").exists()


def test_run_trained_strategy_writes_checkpoint(prices_csv, tmp_path):
    out = tmp_path / "run"
    code = cli.main(
        ["run", "--strategy", "mlp", "--data", str(prices_csv), "--out", str(out),
         "--window", "4", "--max-epochs", "1"]
    )
    assert code == 0
    assert (out / "checkpoint_2016.ckpt").exists()
    from ptopt.model import load_checkpoint

    model = load_checkpoint(out / "checkpoint_2016.ckpt")
    assert model.kind == "mlp"


# ---------------------------------------------------------------------------
# compare


def test_compare_manifest_records_its_strategies_and_no_single_strategy(prices_csv, tmp_path):
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--strategies", "mv", "equal_weight", "--data", str(prices_csv), "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["strategies"] == ["mv", "equal_weight"]
    assert "strategy" not in config


def test_compare_two_strategies(prices_csv, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--strategies", "mv", "equal_weight", "--data", str(prices_csv), "--out", str(out)]
    )
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "strategy,returns,vol,sharpe,sortino,mdd,calmar,pct_positive"
    assert len(lines) == 3
    assert lines[1].startswith("mv,") and lines[2].startswith("equal_weight,")
    table = (out / "comparison.txt").read_text()
    assert "*" in table
    assert capsys.readouterr().out.splitlines()[0].split() == ["strategy", *cli.METRIC_COLUMNS]
    curves = (out / "equity_curves.csv").read_text().splitlines()
    assert curves[0] == "date,mv,equal_weight"
    assert all(len(line.split(",")) == 3 for line in curves)


@pytest.fixture(scope="module", params=[[], ["--budget", "2", "--search-once"]], ids=["fit", "search_once"])
def compare_and_runs(request, prices_csv, tmp_path_factory):
    """One compare of every strategy over two test years, and one run per strategy, with the same flags."""
    root = tmp_path_factory.mktemp("parity")
    flags = ["--data", str(prices_csv), *SHORT_FLAGS, *request.param]
    assert cli.main(["compare", "--strategies", *STRATEGIES, "--out", str(root / "compare"), *flags]) == 0
    for strategy in STRATEGIES:
        assert cli.main(["run", "--strategy", strategy, "--out", str(root / strategy), *flags]) == 0
    return root


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_compare_reports_what_run_reports(compare_and_runs):
    header, *rows = read_csv(compare_and_runs / "compare" / "comparison.csv")
    curves = read_csv(compare_and_runs / "compare" / "equity_curves.csv")
    assert header == ["strategy", *cli.METRIC_COLUMNS] and [row[0] for row in rows] == list(STRATEGIES)
    assert curves[0] == ["date", *STRATEGIES]
    for col, (strategy, *values) in enumerate(rows, start=1):
        metrics = json.loads((compare_and_runs / strategy / "metrics.json").read_text())
        assert values == [repr(metrics[c]) for c in cli.METRIC_COLUMNS], strategy
        equity = read_csv(compare_and_runs / strategy / "equity.csv")
        assert [[r[0], r[col]] for r in curves[1:]] == equity[1:], strategy


def test_every_table_is_one_dialect(compare_and_runs):
    """Each CSV ends its lines with \\n alone, and each of its rows has as many fields as its header."""
    tables = [compare_and_runs / "compare" / name for name in ("comparison.csv", "equity_curves.csv")]
    for strategy in STRATEGIES:
        tables += [compare_and_runs / strategy / name for name in ("equity.csv", "rolling_sharpe.csv", "trials.csv", "history.csv")]
    for path in tables:
        assert b"\r" not in path.read_bytes(), path
        header, *rows = read_csv(path)
        assert all(len(row) == len(header) for row in rows), path
    searched = json.loads((compare_and_runs / "lstm" / "manifest.json").read_text())["config"]["budget"] > 0
    # a search's trial rows hold params with commas and quotes: two trials, the first split's alone
    assert len(read_csv(compare_and_runs / "lstm" / "trials.csv")) == (3 if searched else 1)


def test_compare_holds_one_weight_stream_at_a_time(tmp_path, monkeypatch):
    """When the second strategy starts, the first has left only its curve and
    report: the memory traced then exceeds that at the first start by less than
    half a weight stream (1,300 test days x 20 assets, 208 KB). A result kept
    until the next strategy's turn held the first stream through it."""
    data = tmp_path / "wide.csv"
    assert cli.main(["synth", "--assets", "20", "--days", "1560", "--seed", "3", "--out", str(data)]) == 0
    held, streams = [], []
    walk = cli.walk_forward

    def traced_walk(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        result = walk(*args, **kwargs)
        streams.append(result.weights.nbytes)
        return result

    monkeypatch.setattr(cli, "walk_forward", traced_walk)
    tracemalloc.start()
    try:
        code = cli.main(["compare", "--strategies", "equal_weight", "mv", "--data", str(data),
                         "--out", str(tmp_path / "cmp"), "--first-test-year", "2015"])
    finally:
        tracemalloc.stop()
    assert code == 0 and len(held) == 2
    assert streams[0] == streams[1] >= 1300 * 20 * 8
    assert held[1] - held[0] < streams[0] / 2, (held, streams)


def test_compare_needs_two_strategies(prices_csv, tmp_path):
    assert cli.main(["compare", "--strategies", "mv", "--data", str(prices_csv), "--out", str(tmp_path / "c")]) == 1
    assert cli.main(
        ["compare", "--strategies", "mv", "mv", "--data", str(prices_csv), "--out", str(tmp_path / "d")]
    ) == 1


def report(**overrides):
    base = dict(returns=0.1, vol=0.2, sharpe=0.5, sortino=0.7, mdd=0.3, calmar=0.33, pct_positive=0.5)
    base.update(overrides)
    return MetricsReport(**base)


def test_render_table_flags_max_and_min_correctly():
    rows = [
        ("a", report(sharpe=1.0, vol=0.30, mdd=0.10)),
        ("b", report(sharpe=0.4, vol=0.15, mdd=0.25)),
    ]
    text = cli.render_table(rows)
    header, row_a, row_b = text.splitlines()
    cols = header.split()
    a_cells = row_a.split()
    b_cells = row_b.split()
    assert a_cells[cols.index("sharpe")].endswith("*")
    assert not b_cells[cols.index("sharpe")].endswith("*")
    assert b_cells[cols.index("vol")].endswith("*")
    assert a_cells[cols.index("mdd")].endswith("*")
    assert not a_cells[cols.index("vol")].endswith("*")


@pytest.mark.parametrize("head", [["run", "--strategy", "pt"], ["compare", "--strategies", "pt", "mv"]])
def test_flag_defaults_are_the_run_config_defaults(head):
    args = cli.build_parser().parse_args([*head, "--data", "d.csv", "--out", "o"])
    built = cli._run_config(args)
    assert built == cli.RunConfig(data="d.csv", out_dir="o")
    assert cli.RunConfig.t2v_k == PTConfig.t2v_k


def test_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = "import sys, ptopt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # a search imports the pool only when --jobs asks for one
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = "import sys, ptopt.cli; print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _git(*args, cwd):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd, check=True, capture_output=True, timeout=60)


def test_git_describe_runs_once_per_process(prices_csv, tmp_path, monkeypatch):
    calls = []
    run = subprocess.run
    monkeypatch.setattr(cli.subprocess, "run", lambda *a, **k: calls.append(a) or run(*a, **k))
    cli.version_string.cache_clear()
    for name in ("a", "b"):
        assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(tmp_path / name)]) == 0
    checkout = (Path(cli.__file__).resolve().parents[2] / ".git").exists()
    assert len(calls) == checkout


def test_a_git_describe_that_times_out_falls_back_to_the_package_version(prices_csv, tmp_path, monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(cli.subprocess, "run", hang)
    cli.version_string.cache_clear()
    try:
        assert cli.main(["run", "--strategy", "equal_weight", "--data", str(prices_csv), "--out", str(tmp_path / "o")]) == 0
    finally:
        cli.version_string.cache_clear()
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["version"] == f"v{__version__}"


def test_version_describes_only_the_source_checkout(tmp_path):
    # a repository that encloses an installed copy, and one whose src/ holds the package
    _git("init", "-q", cwd=tmp_path)
    _git("commit", "-q", "--allow-empty", "-m", "outer", cwd=tmp_path)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tmp_path, capture_output=True, text=True).stdout.strip()
    package = Path(cli.__file__).resolve().parent
    probe = "import ptopt, ptopt.cli; print(ptopt.cli.version_string(), ptopt.__version__)"
    for parent, expect_commit in ((tmp_path / "venv" / "lib" / "site-packages", False), (tmp_path / "src", True)):
        shutil.copytree(package, parent / "ptopt", ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(parent)}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        version, package_version = out.stdout.split()
        assert (version.startswith(commit) if expect_commit else version == f"v{package_version}"), (parent, version)
