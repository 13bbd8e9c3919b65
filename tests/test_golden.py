"""Three small commands reproduce the outcomes stored in ``tests/data/golden.json``.

Every metric and checkpoint value must match within 1e-9 relative; every
output's sha256 must match where the running BLAS is the one the file records.
``tests/golden_report.py`` runs the commands and writes the file.
"""

import json

import numpy as np
import pytest

import golden_report

RTOL = 1e-9


def flatten(values: dict, prefix: str = "") -> dict:
    """A nested dict of numbers as one dict keyed by ``a/b`` paths."""
    flat = {}
    for key, value in values.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}/"))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(golden_report.GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def found(tmp_path_factory) -> dict:
    return golden_report.outcomes(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", golden_report.COMMANDS)
def test_values_and_vectors_match_golden(name, golden, found):
    want, got = golden["commands"][name], found["commands"][name]
    assert sorted(got["sha256"]) == sorted(want["sha256"])  # the same output files
    assert got["values"].keys() == want["values"].keys()
    for file, values in want["values"].items():
        flat_want, flat_got = flatten(values), flatten(got["values"][file])
        assert flat_got.keys() == flat_want.keys(), file
        keys = sorted(flat_want)
        np.testing.assert_allclose([flat_got[k] for k in keys], [flat_want[k] for k in keys], rtol=RTOL, atol=0, err_msg=file)
    assert got["vectors"].keys() == want["vectors"].keys()
    for file, vector in want["vectors"].items():
        np.testing.assert_allclose(got["vectors"][file], vector, rtol=RTOL, atol=0, err_msg=file)


@pytest.mark.parametrize("name", golden_report.COMMANDS)
def test_output_digests_match_golden_on_its_blas(name, golden, found):
    if found["blas"] != golden["blas"]:
        pytest.skip(f"golden digests were taken on {golden['blas']}, this is {found['blas']}")
    assert found["commands"][name]["sha256"] == golden["commands"][name]["sha256"]
