"""Golden transcripts: every run of tools/golden.py's cases prints, byte for
byte, the exit code, stdout and stderr kept in tests/golden/.

A difference here is a changed answer or message.  When the change is
meant, rewrite the files with ``python3 tools/golden.py --write``.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _golden()
CASES = golden.cases()


def test_every_golden_file_has_a_case():
    on_disk = {p.stem for p in golden.GOLDEN.glob("*.json")}
    assert on_disk == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_transcript_equals_its_golden_file(name):
    expected = golden.path(name).read_text(encoding="utf-8")
    assert golden.render(golden.run(CASES[name])) == expected
