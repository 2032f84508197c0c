"""Golden transcripts of the gor3 command line: check or rewrite tests/golden/.

Each case is one argv run in-process through gor3.cli.main.  Its file,
tests/golden/<name>.json, holds the argv, the exit code and the exact
stdout and stderr, the two streams split into lines that keep their line
ends, so that joining them gives the bytes printed.  The cases are

- every README_EXAMPLES argv of tests/test_cli.py over q, fp:32003 and
  fp:7, each as text and with --json;
- README examples with one defect each, which exit 2;
- a non-Artinian ideal asked of socle and of gap over q and fp:32003, as
  text and with --json, which exits 1;
- ideals with minimal generators in their bound degree, Ann(X^[3]) and the
  non-Gorenstein (x^2, xy, y^2, z^2) : z, over q, fp:32003 and fp:7, as text
  and with --json;
- reproduce --all over q, fp:32003 and fp:7, as text and with --json, so
  that every check label and detail of the case registry is pinned.

argparse wraps usage and help text to the terminal width, so every case
runs with COLUMNS=80.

Usage, from anywhere (stdlib only):

    python3 tools/golden.py            # compare; exit 1 and name each file that differs
    python3 tools/golden.py --write    # rewrite every file from the current code

tests/test_golden.py runs the comparison in tier-1.  A change that alters a
transcript on purpose rewrites it with --write and says why.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

FIELDS = {"q": "q", "fp:32003": "fp32003", "fp:7": "fp7"}

# README examples with one defect each: exit 2
USAGE_ERRORS = [
    ["socle", "--ideal=x*y,x*z,y*z,x^2-z^2,y^2-#z^2"],          # stray character
    ["betti", "--ideal=x^2,y^2,w^2"],                           # unknown variable
    ["colon", "--ci=x^3,(y^3,z^3", "--f=x^2+y^2+z^2"],          # unbalanced parenthesis
    ["gap", "--ideal=x^3,y^3,z^3,x*y*z +"],                     # dangling operator
    ["inverse", "--ideal=x*y,x*z,y*z,x^2-z^2,y^2-z^2/"],        # '/' outside a coefficient
    ["ann", "--dual=X^2+Y^2+z^2"],                              # lower case in a dual form
    ["spans", "--forms=x^2+z^2,x*y+z^2,x*z,y^2,y*z", "--e=one"],  # bad integer option
    ["directrix", "--ideal=x*y,x*z,y*z,x^2-z^2,y^2-z^2"],       # missing --m
    ["linres-test", "--f=(x+y+z)^2", "--m=3", "--field=fp:32004"],  # not a prime
    ["certify-quadrics", "--seed=forty-two"],                   # bad integer option
]

# four quadrics with the common zero (0, 1, 0): exit 1
NOT_ARTINIAN = "--ideal=x*y,x*z,y*z,x^2-z^2"

# a minimal generator in the bound degree: H(1) = 1, and not Gorenstein
AT_THE_BOUND = [
    ["ann", "--dual=X^3"],
    ["colon", "--ci=x^2,x*y,y^2,z^2", "--f=z"],
]


def _readme_examples():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from test_cli import README_EXAMPLES
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return README_EXAMPLES


def cases():
    """name -> argv, in a fixed order."""
    out = {}
    for k, argv in enumerate(_readme_examples()):
        for field, tag in FIELDS.items():
            for fmt, flags in (("text", []), ("json", ["--json"])):
                out[f"readme-{k:02d}-{argv[0].lstrip('-')}-{tag}-{fmt}"] = \
                    argv + [f"--field={field}"] + flags
    for k, argv in enumerate(USAGE_ERRORS):
        out[f"usage-{k:02d}-{argv[0]}"] = argv
    for sub in ("socle", "gap"):
        for field in ("q", "fp:32003"):
            for fmt, flags in (("text", []), ("json", ["--json"])):
                out[f"not-artinian-{sub}-{FIELDS[field]}-{fmt}"] = \
                    [sub, NOT_ARTINIAN, f"--field={field}"] + flags
    for k, argv in enumerate(AT_THE_BOUND):
        for field, tag in FIELDS.items():
            for fmt, flags in (("text", []), ("json", ["--json"])):
                out[f"bound-{k:02d}-{argv[0]}-{tag}-{fmt}"] = \
                    argv + [f"--field={field}"] + flags
    for field, tag in FIELDS.items():
        for fmt, flags in (("text", []), ("json", ["--json"])):
            out[f"registry-{tag}-{fmt}"] = ["reproduce", "--all", f"--field={field}"] + flags
    return out


def run(argv):
    """The transcript of one in-process run: argv, exit code, stdout and
    stderr as lists of lines with their line ends."""
    import gor3.cli

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gor3.cli.main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue().splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True)}


def render(transcript) -> str:
    return json.dumps(transcript, indent=1, ensure_ascii=False) + "\n"


def path(name) -> Path:
    return GOLDEN / f"{name}.json"


def main(argv):
    write = argv == ["--write"]
    if argv and not write:
        print("usage: python3 tools/golden.py [--write]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    all_cases = cases()
    if write:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for stale in set(GOLDEN.glob("*.json")) - {path(name) for name in all_cases}:
            stale.unlink()
    differ = []
    for name, case in all_cases.items():
        text = render(run(case))
        if write:
            path(name).write_text(text, encoding="utf-8")
        elif not path(name).exists() or path(name).read_text(encoding="utf-8") != text:
            differ.append(name)
    for name in differ:
        print(f"differs: {path(name).relative_to(ROOT)}")
    print(f"{len(all_cases)} transcripts " + ("written" if write else
          f"compared, {len(differ)} differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
