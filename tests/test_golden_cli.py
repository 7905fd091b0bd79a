"""The committed golden CLI corpus: every argv's outputs, byte for byte.

``golden_cli.json`` holds, for each argv, the exit code, the sha256 of
stdout and of stderr, and the sha256 of every file the run wrote, under
``HCM_CACHE_DIR`` or at ``--out``, by path.  Each argv runs in process
through ``cli.main`` in a fresh working directory that holds only the
module files below, with ``HCM_CACHE_DIR`` a fresh relative directory,
so no output holds a random path and no shared cache leaks in.  It then
runs a second time, served from that cache: its outputs must match and
it must write no cache file anew.

Argparse's own usage errors are left out: their wording changes between
Python versions.  A change that changes an output regenerates the
corpus with

    PYTHONPATH=src python tests/test_golden_cli.py

and names the argvs that changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).with_name("golden_cli.json")
CACHE = "cache"

# The module file of README's "File formats" section, and one with a misspelt key.
FILES = {
    "mymodule.json": {"window": [0, 3],
                      "cells": [{"label": "a", "degree": 0}, {"label": "b", "degree": 1}],
                      "edges": [{"from": "b", "to": "a", "sq": 1}],
                      "unstable": False},
    "misspelt.json": {"window": [0, 3], "cells": [{"label": "a", "degree": 0}],
                      "edges": [], "unstabel": False},
}

_README = [
    "ext --module builtin:d2-o --n 16 --max-s 3",
    "ext --module builtin:sphere --max-s 3 --max-t 8",
    "ext --module mymodule.json --format svg --out chart.svg",
    "d2 --module builtin:o --n 17",
    "bar-e1 --n 20",
    "bounds table --from 25 --to 32",
    "bounds table --from 25 --to 32 --csv",
    "bounds scan --case d1",
    "bounds check --k 52 --s 17 --l 1",
    "classify --n 9 --normal-h 1",
    "stems query --stem 7",
    "stems query --product sigma mu9",
]

_BUILTINS = ["sphere", "o --n 16", "o:0 --n 16", "o:1 --n 17", "o:4 --n 12", "Z --n 9",
             "d2-o --n 16", "d2-sphere --n 7", "d2-sphere --n 8", "d2-Z --n 9",
             "tensor-o --n 16"]

_MORE = [
    "ext --module mymodule.json --json",
    "ext --module builtin:d2-o --n 17 --format svg",
    "d2 --module builtin:o --n 16 --json",
    "d2 --module builtin:Z --n 9 --square-style power",
    "bounds table --from 1 --to 3 --json",
    "bounds scan --case d2-mod0 --json",
    "bounds scan --case d2-mod1",
    "bounds check --k 52 --s 5/2 --l 1 --json",
    "classify --n 4 --p1 3",
    "classify --n 8 --p2 2 --json",
    "classify --n 16",
    "stems query --stem 7 --json",
    "stems query --product sigma mu9 --json",
    "stems query --stem 7 --out stem.txt",
]

_EXIT_2 = [
    "ext --module builtin:nope",
    "ext --module missing.json",
    "ext --module misspelt.json",
    "ext --module builtin:o",
    "ext --module builtin:o:1 --n 16",
    "ext --module builtin:sphere --n 7 --max-s 1 --max-t 3",
    "ext --module builtin:sphere --max-s 2 --max-t 6 --out nodir/chart.txt",
    "d2 --module builtin:o --n 17 --lo 5",
    "d2 --module builtin:o --n 17 --lo 9 --hi 5",
    "bar-e1 --n 20 --stems stems.json",
    "bounds table --from 32 --to 25",
    "bounds check --k 52 --s x --l 1",
    "classify --n 5 --p1 3",
    "stems query",
    "stems query --stem 7 --product sigma mu9",
    "stems query --stem 99",
    "stems query --product foo bar",
    "stems query --stems missing.json --stem 7",
]

_EXIT_3 = [
    "ext --module builtin:sphere --max-s -1",
    "ext --module builtin:o --n 14",
    "ext --module builtin:d2-o --n 2",
    "d2 --module mymodule.json",
    "bounds scan --case d1 --horizon 10",
    "classify --n 2",
]

ARGVS = ([a.split() for a in _README]
         + [f"ext --module builtin:{b}{j}".split() for b in _BUILTINS for j in ("", " --json")]
         + [["bar-e1", "--n", str(n), "--json"] for n in range(16, 50)]
         + [a.split() for a in _MORE + _EXIT_2 + _EXIT_3])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files() -> dict:
    """Each file under the working directory but the fixtures: its sha256 and (inode, mtime)."""
    out = {}
    for path in sorted(Path(".").rglob("*")):
        if path.is_file() and str(path) not in FILES:
            st = path.stat()
            out[path.as_posix()] = (_sha(path.read_bytes()), (st.st_ino, st.st_mtime_ns))
    return out


def _run(argv: list[str]) -> dict:
    from hcm import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "exit": code,
            "stdout": _sha(out.getvalue().encode()), "stderr": _sha(err.getvalue().encode()),
            "files": {p: sha for p, (sha, _) in _files().items()}}


def observe(argv: list[str], work: Path, chdir) -> tuple[dict, list[str]]:
    """The record of argv run in the fresh directory ``work``, and what its cached rerun broke.

    ``chdir`` enters a directory; ``HCM_CACHE_DIR`` must already be ``CACHE``.
    """
    work.mkdir()
    for name, obj in FILES.items():
        (work / name).write_text(json.dumps(obj), encoding="utf-8")
    chdir(work)
    first = _run(argv)
    cached = {p: stamp for p, (_, stamp) in _files().items() if p.startswith(CACHE + "/")}
    again = _run(argv)
    problems = [] if again == first else ["the rerun from the cache gives other outputs"]
    after = _files()
    if any(after.get(p, (None, None))[1] != stamp for p, stamp in cached.items()):
        problems.append("the rerun from the cache rewrites a cache file")
    return first, problems


def test_golden_cli_corpus(tmp_path, monkeypatch):
    monkeypatch.setenv("HCM_CACHE_DIR", CACHE)
    want = {tuple(rec["argv"]): rec for rec in json.loads(CORPUS.read_text(encoding="utf-8"))}
    assert sorted(want) == sorted(map(tuple, ARGVS)), "the corpus lists other argvs"
    changed = []
    for k, argv in enumerate(ARGVS):
        got, problems = observe(argv, tmp_path / str(k), monkeypatch.chdir)
        if got != want[tuple(argv)]:
            problems.append("differs from the corpus")
        changed += [f"{' '.join(argv)}: {p}" for p in problems]
    assert changed == []


def main() -> None:
    """Rewrite the corpus from the outputs of the code as it stands."""
    records, home = [], os.getcwd()
    os.environ["HCM_CACHE_DIR"] = CACHE
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for k, argv in enumerate(ARGVS):
                rec, problems = observe(argv, Path(tmp) / str(k), os.chdir)
                if problems:
                    sys.exit(f"{' '.join(argv)}: {'; '.join(problems)}")
                records.append(rec)
        finally:
            os.chdir(home)
    text = json.dumps(records, indent=1, sort_keys=True) + "\n"
    CORPUS.write_text(text, encoding="utf-8")
    print(f"wrote {len(records)} argvs to {CORPUS.name}")


if __name__ == "__main__":
    main()
