"""The catalogue of ``tests/mutation_report.py`` still applies to the code, without running a mutant."""

import mutation_report


def test_every_mutant_replaces_exactly_one_occurrence():
    texts = {}
    for file, old, new, why in mutation_report.CATALOGUE:
        text = texts.setdefault(file, (mutation_report.ROOT / file).read_text(encoding="utf-8"))
        assert text.count(old) == 1, f"{file}: {old!r} occurs {text.count(old)} times ({why})"
        assert new != old and why


def test_first_failure_keeps_a_parametrized_id_that_holds_spaces():
    summary = (
        "..F\n=========================== short test summary info ============================\n"
        "FAILED tests/test_cli.py::test_x[lstm --budget 2-a] - AssertionError: assert 2 == 1\n"
        "FAILED tests/test_cli.py::test_y\n1 failed, 2 passed in 0.50s\n"
    )
    assert mutation_report.first_failure(summary) == "tests/test_cli.py::test_x[lstm --budget 2-a]"
    assert mutation_report.first_failure("ERROR tests/test_a.py::test_b[a b]\n") == "tests/test_a.py::test_b[a b]"
    assert mutation_report.first_failure("3 passed in 0.10s\n") == "3 passed in 0.10s"
