"""Golden CLI grid: exit code, stdout and stderr of every case, pinned.

Each case is an argv for ``pstiefel.cli.main``; ``golden_cli.json``
maps the space-joined argv to the sha256 of its (exit code, stdout,
stderr), recorded from a known-good tree. A refactor that keeps the
output keeps every digest.

Re-record after an intended output change; the script names on stderr
each case whose digest changed, was added or was removed:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

from pstiefel.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

PAIRS = ("1,2", "2,1", "1,-1", "1,8", "3,-2", "1,1")


def _grid() -> list[list[str]]:
    cases = []
    for kind in ("span", "immersion"):
        for n in (2, 3, 5, 8):
            for ws in PAIRS:
                base = [kind, "--n", str(n), "--weights", ws]
                cases.append(base)
                cases += [base + ["--prime", p] for p in ("3", "7")]
        cases += [[kind, "--n", "7", "--weights", "1,2", "--prime-bound", b]
                  for b in ("0", "2", "3", "50")]
        cases += [[kind, "--n", "9", "--weights=-3,4"],
                  [kind, "--n", "7", "--weights", "1,2", "--prime", "15"],
                  [kind, "--n", "7", "--weights", "1,2", "--prime", "2"],
                  [kind, "--n", "7", "--weights", "1,2,3", "--prime", "3"],
                  [kind, "--n", "1", "--weights", "1,2", "--prime", "3"],
                  [kind, "--n", "7", "--weights", "2,4"]]
    for n in (2, 3, 5, 8, 9, 15, 21):
        for ws in PAIRS:
            cases.append(["check-claims", "--n", str(n), "--weights", ws])
    # weights with l2 - l1 sharing odd primes with n - 1, so that the
    # immersion claim has instances, the index-0 note among them
    for n in (4, 7, 10, 13, 16, 25, 31, 45):
        for ws in ("1,4", "2,-1", "1,10", "1,6", "-2,5"):
            cases.append(["check-claims", "--n", str(n), "--weights", ws])
    for n in (2, 4, 8):
        for ws in ("1,2", "1,8", "-2,3"):
            for extra in ([], ["--modulus", "7"], ["--modulus", "3",
                                                   "--truncation", "5"]):
                cases.append(["pontrjagin", "--n", str(n),
                              f"--weights={ws}"] + extra)
    cases += [["pontrjagin", "--n", "1", "--weights", "1,2"],
              ["pontrjagin", "--n", "4", "--weights", "1,2", "--modulus",
               "1"]]
    # truncations below 1: the refusal names the truncation asked for,
    # not that of the series in y = x^2 that the build runs at
    cases += [["pontrjagin", "--n", "5", "--weights", "1,2",
               f"--truncation={t}"] for t in ("0", "-1", "-3")]
    for n in (2, 3, 4, 6, 9):
        for k, ws in ((1, "1"), (2, "1,1"), (2, "1,2"), (2, "2,-3"),
                      (3, "1,1,2")):
            if k > n:
                continue
            for p in ("2", "3"):
                cases.append(["cohomology", "--n", str(n), "--k", str(k),
                              "--weights", ws, "--prime", p])
    # total ranks of 11, 24, 45 and 76 bits, so the Poincare coefficients
    # need 2, 4, 8 and more than 8 bytes each
    for n, k in ((16, 8), (40, 20), (80, 40), (140, 70)):
        for p in ("3", "7"):
            cases.append(["cohomology", "--n", str(n), "--k", str(k),
                          "--weights", ",".join(["1"] * (k - 1) + ["2"]),
                          "--prime", p])
    cases += [["cohomology", "--n", "4", "--k", "5", "--weights", "1,1,1,1,1",
               "--prime", "3"],
              ["cohomology", "--n", "4", "--k", "2", "--weights", "1,1",
               "--prime", "4"]]
    for d in (1, 2, 3, 4):
        for m in (2, 6, 7):
            for ws in ("1,2", "1,-1", "3,1"):
                cases.append(["lens", "--d", str(d), "--m", str(m),
                              "--weights", ws])
    cases += [["lens", "--d", "3", "--m", "7", "--weights", ws]
              for ws in ("2,4", "0,0", "1,2,3", "1", "2,4,6")]
    cases += [["lens", "--d", "0", "--m", "7", "--weights", "1,2"],
              ["lens", "--d", "3", "--m", "1", "--weights", "1,2"]]
    for n in (1, 2, 3, 4, 6):
        for ws in ("1,-1", "1,2", "1,1,2", "3"):
            cases.append(["complement", "--n", str(n), "--weights", ws])
    cases.append(["complement", "--n", "0", "--weights", "1,2"])
    cases += [["complement", "--n", n, "--weights=1,-2,3"]
              for n in ("400", "1000")]
    for ws in ("1,-1", "1,2,3"):
        cases += [["chern", "--weights", ws, "--n", "5"],
                  ["chern", "--weights", ws, "--truncation", "4"],
                  ["chern", "--weights", ws]]
    # an n below 0 is refused as such, not as the truncation n + 1
    cases += [["chern", "--weights", "1,2", "--n", "-1"],
              ["chern", "--weights", "1,2", "--n=-1"]]
    # requests that fail two checks: the message names the first one
    cases += [argv.split() for argv in (
        "cohomology --n 10000000 --k 3 --weights 1,2,3 --prime 2",
        "cohomology --n 10000000 --k 1 --weights 1 --prime 2",
        "cohomology --n 10000000 --k 2 --weights 1,2 --prime 4",
        # within every cap, so it fails the prime check alone
        "cohomology --n 50000 --k 3 --weights 1,2,1000 --prime 4",
        "cohomology --n 223000 --k 3 --weights 1,2,3 --prime 4",
        "complement --n 8000 --weights 1,1000000000000000000,3",
        "lens --d 2000000 --m 1 --weights 1,2",
        "lens --d 100000 --m 1 --weights 1,1000000000000000000",
        "span --n 100000 --weights 1,8 --prime 2",
        # a sweep checks the series cap first: not the default bound 4n,
        # and not a bound that admits no odd prime
        "span --n 300000 --weights 1,2",
        "span --n 1000000000000 --weights 1,2 --prime-bound 2",
        "check-claims --n 1000001 --weights 1,2")]
    # abbreviations of --weights, bound to a negative first weight
    cases += [argv.split() for argv in (
        "span --n 9 --wei -3,4", "immersion --n 9 --weight -3,4",
        "lens --d 3 --m 7 --we -1,2")]
    # argparse-path requests of every weighted command, so the params echo
    # is pinned off the plain reader too: a defaulted truncation, one from
    # --n and a given prime bound among them
    cases += [argv.split() for argv in (
        "pontrjagin --n 5 --weights 1,2 --mod 3",
        "chern --weights 1,2 --trunc 4", "chern --wei 1,2 --n 4",
        "cohomology --n 5 --k 2 --wei 1,2 --prime 3",
        "complement --n 4 --wei 1,2", "check-claims --n 7 --wei 1,2",
        "span --n 7 --weights 1,2 --prime-b 50",
        "immersion --n 8 --weights 1,8 --prime-b 50")]
    cases += [["bogus"], ["span", "--n", "7"],
              ["span", "--n", "7", "--weights", "1,two"],
              ["check-claims", "--n", "abc", "--weights", "1,2"],
              ["complement", "--n", "4"]]
    return [case + mode for case in cases for mode in ([], ["--json"])]


CASES = _grid()


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal width, and where it
    # breaks lines differs between Python versions; at this width it
    # never wraps, so the digests hold on every supported version
    with mock.patch.dict(os.environ, {"COLUMNS": "100000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_grid():
    golden = json.loads(GOLDEN.read_text())
    got = {" ".join(argv): digest(argv) for argv in CASES}
    assert sorted(got) == sorted(golden)
    changed = [key for key in got if got[key] != golden[key]]
    assert not changed, f"{len(changed)} cases changed, e.g. {changed[:5]}"


def test_readme_counts_the_grid():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    stated = re.search(r"stdout and stderr of (\d+)\s+CLI invocations", readme)
    assert int(stated.group(1)) == len(json.loads(GOLDEN.read_text()))


if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in CASES}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for key in sorted(old.keys() | table.keys()):
        if key not in old:
            print(f"added: {key}", file=sys.stderr)
        elif key not in table:
            print(f"removed: {key}", file=sys.stderr)
        elif old[key] != table[key]:
            print(f"changed: {key}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases in {GOLDEN}", file=sys.stderr)
