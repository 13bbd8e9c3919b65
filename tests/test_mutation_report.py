"""The catalogue of ``tests/mutation_report.py`` still applies to the code, without running a mutant."""

import mutation_report


def test_every_mutant_replaces_exactly_one_occurrence():
    texts = {}
    for file, old, new, why in mutation_report.CATALOGUE:
        text = texts.setdefault(file, (mutation_report.ROOT / file).read_text(encoding="utf-8"))
        assert text.count(old) == 1, f"{file}: {old!r} occurs {text.count(old)} times ({why})"
        assert new != old and why
