"""The standing mutant list, tools/mutants.py, checked without running it.

Each mutant is one exact source edit and the tests that must fail under
it.  An edit whose old text no longer occurs exactly once in its file, or
a killing test that is gone, makes the mutant run stop or report a
survivor; both show here in milliseconds.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_edit_matches_its_source_once():
    mutants = _mutants()
    assert len(mutants) >= 17
    for what, path, old, new, tests in mutants:
        assert old != new, what
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, what
        for test in tests:
            file, _, name = test.partition("::")
            text = (ROOT / file).read_text(encoding="utf-8")
            assert not name or f"def {name}(" in text, (what, test)
