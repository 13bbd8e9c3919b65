"""The comparer of ``tests/parity_report.py`` on two small output directories, without running a command."""

import json

import parity_report


def write_outputs(root, out_dir: str, seconds: str, sharpe: float) -> None:
    run = root / "run"
    run.mkdir(parents=True)
    (run / "equity.csv").write_text("date,value\n2020-01-02,1.01\n")
    manifest = {"config": {"data": "/data/prices.csv", "out_dir": out_dir, "seed": 0}, "seed": 0, "version": "v0.1.0"}
    (run / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    (run / "trials.csv").write_text(f"test_year,trial,params,train_loss,val_loss,seconds\n2016,0,{{}},-0.1,-0.2,{seconds}\n")
    (run / "metrics.json").write_text(json.dumps({"returns": 0.1, "sharpe": sharpe}, sort_keys=True) + "\n")


def test_only_a_changed_value_outside_the_ignored_fields_differs(tmp_path):
    write_outputs(tmp_path / "parent", "/tmp/a/run", "1.25", 0.5)
    write_outputs(tmp_path / "change", "/tmp/b/run", "0.75", 0.5000000000000001)
    found = parity_report.compare_trees(tmp_path / "parent", tmp_path / "change")
    assert found == {
        "run/equity.csv": parity_report.IDENTICAL,
        "run/manifest.json": parity_report.IGNORED_ONLY,
        "run/trials.csv": parity_report.IGNORED_ONLY,
        "run/metrics.json": "differs: 32 against 47 bytes, first difference at byte 30 (line 1)",
    }
