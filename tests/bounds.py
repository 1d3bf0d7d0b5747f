"""Every stated resource bound of pstiefel, one row each: a CLI argv or
library call, its exit code (for a call, the exception it raises, or 0),
one expected fragment (a refusal's exact message, or a piece of the
answer), the seconds after which it is killed and those it must finish
in, the README's words for it, the `costs` limit it sits at and its peak
RSS in MB, where checked. The cap tests in tests/test_cli.py read the
rows named after them; `python tests/bounds.py` runs every row, "ci"
rows of about a second or more too, against the `pstiefel` script on
PATH and stops at the first that differs. A call prints its value, or
its exception as "Name: message", with its peak RSS on stderr.
"""

import json
import subprocess
import sys
import time
from collections import namedtuple

Row = namedtuple("Row", "test id request code expect timeout seconds readme "
                 "cap rss_mb", defaults=(None, None))

# VmHWM, unlike ru_maxrss, holds no peak of the process that forked it
CALL = """import sys
from pstiefel import *
try:
    print({})
except Exception as exc:
    print(f"{{type(exc).__name__}}: {{exc}}")
with open("/proc/self/status") as status:
    kb = next(line.split()[1] for line in status if line.startswith("VmHWM"))
print(int(kb) // 1024, file=sys.stderr)
"""

# a size past a float, about 10^308
BIG = 10 ** 400
# 4,300 digits, the most argparse reads as an int
HUGE = 10 ** 4299
E18 = 10 ** 18
# each cost cap's reference request, as its refusals name it
CAPS = {"complement": "of h_50000 of weights 1,2,3 (79278 bits)",
        "chern": "of h_5999 of weights 1,2,3 (9532 bits)",
        "lens": "of h_1000000 of weights 1,2 (1000020 bits)"}
SERIES_CAP = "at n = truncation = 3200 with weights 1,8 (15362 bits)"


def ones(count):
    return ",".join(["1"] * count)


def refused(argv, message, readme, cap=None, id=None):
    """Exits 1 in under 1 s, with message alone on stderr."""
    return Row("refused", id or f"{argv}-{message}", argv, 1, message, 5, 1.0,
               readme, cap)


def over(argv, bits, readme, cap=None, id=None):
    """Refused by a cost row at an estimate of bits (None: past a float):
    h_r of its weights, r its --n or --d or one below its --truncation;
    else its Pontrjagin series, to its --truncation or n."""
    command, *words = argv.replace("=", " ").split()
    flag = dict(zip(words[::2], words[1::2]))
    ws = flag["--weights"]
    if command in CAPS:
        r = flag.get("--n") or flag.get("--d")
        r = r or int(flag["--truncation"]) - 1
        ell = [abs(int(w)) for w in ws.split(",")]
        what, unit, cost = (f"{command}: h_{r} of {len(ell)} weights up to "
                            f"{max(ell)} in absolute value", "", CAPS[command])
    else:
        n = int(flag["--n"])
        truncation = flag.get("--truncation") or n
        what, unit, cost = (f"the Pontrjagin series of n = {n} and weights "
                            f"{ws} at truncation {truncation}",
                            " a coefficient", SERIES_CAP)
    estimate = (f"an estimated {bits} bits{unit}" if bits
                else "too large for a float estimate")
    return refused(argv, f"{what} ({estimate}) costs more than the cap "
                   f"allows, the cost {cost}", readme, cap, id)


def answers(test, request, timeout, seconds, expect, readme, cap=None,
            id=None, rss_mb=None):
    """Exits 0 with expect in its stdout (a JSON one that parses); a call
    prints expect."""
    return Row(test, id or request, request, 0, expect, timeout, seconds,
               readme, cap, rss_mb)


# each shape at the largest n its sums cap accepts, the estimate of
# h_{n+1}, which is refused, and the README's words
COMPLEMENT = [
    (38_898, ones(160), 1486, "n = 38,898"),
    (4_590, ones(200), 1189, "and 4,590"),
    (7_130, "1,2,3,4,5,6,7,8,9,10", 23785, "and n = 7,130"),
    (1_325, f"1,{E18}", 79298, "n = 1,325 for `complement`"),
    (79_262, "1,2", 79279, "weights 1,2 (n = 79,262)"),
    (17_592_186_044_413, "1,1,1", None, "1,1,1 reach n = 17,592,186,044,413"),
    (6_438_587_965_023, ones(80), 2973, "80 weights of 1 reach n = 6,438,"),
    (17_592_186_044_338, ones(78), None, "n = 17,592,186,044,338")]
PAST_N = "At weights 1,2,3 the sums cap refuses every n past it"
FLAG = "`chern` truncation (`--n` up to 5,999)"
PACKED = "cohomology needs an estimated packed size <= 4000000 bytes, got "
DIGITS = "a `pontrjagin` `--n` of 400 digits"

REFUSED = [
    over("complement --n 3000000 --weights 1,2,3", 4754930, PAST_N,
         id="complement --n 3000000 --weights 1,2,3-complement sums row"),
    over("complement --n 50001 --weights 1,2,3", 79280, PAST_N,
         "MAX_COMPLEMENT_N"),
    over("complement --n 10000000000000000000 --weights 1,2", None,
         "sum of more than 2^44 terms"),
    *(over(f"complement --n {n + 1} --weights={ws}", bits, readme)
      for n, ws, bits, readme in COMPLEMENT),
    *(refused(f"chern --weights {ws} {flag}",
              f"chern needs truncation <= 6000, got {t}", FLAG, cap)
      for ws, flag, t, cap in (
          ("1,2,3", "--truncation 200000", 200000, None),
          ("1,2,3", "--n 6000", 6001, "MAX_CHERN_TRUNCATION"),
          ("1,2", "--truncation 6001", 6001, None),
          ("1,2", "--n 6000", 6001, None),
          ("1,2", f"--truncation {10 ** 19}", 10 ** 19, None),
          ("1,2", f"--truncation {2 * E18}", 2 * E18, None))),
    refused("cohomology --n 450 --k 225 --weights=" + ones(225) + " --prime 3",
            PACKED + "4556250 (n = 450, k = 225)", "k = 225 is refused"),
    *(refused(f"cohomology --n 10000000 --k 2 --weights 1,2 --prime {p}",
              PACKED + "159999984 (n = 10000000, k = 2)",
              "a `cohomology` presentation's packed Poincare product")
      for p in (3, 2)),
    # k >= 3 takes the packed-size cap alone, whatever the weights
    *(refused(f"cohomology --n 223000 --k 3 --weights {ws} --prime 3",
              PACKED + "4013973 (n = 223000, k = 3)", "refuses n = 223,000",
              cap)
      for ws, cap in (("1,2,3", None), ("1,2,1000", "MAX_COHOMOLOGY_BYTES"))),
    # at or below the reference sizes, but too large for the weights given
    # (several ran for seconds while the complement row priced h_0..h_n)
    over(f"complement --n 8000 --weights 1,{E18}", 478371,
         "`complement --n 8000` with the same weights (1.15 s and 380 MB)"),
    over("complement --n 50000 --weights 1,2,3,4,5,6,7,8,9,10", 166218,
         "1,2,3,4,5,6,7,8,9,10` (4.0 s and 592 MB)"),
    over("complement --n 50000 --weights=" + ones(200), 1869, "and 4,590"),
    over("complement --n 3474 --weights=" + ones(1000), 3421,
         "1,000 weights of 1 at n = 3,474 (13-23 s)"),
    over("complement --n 8553 --weights=" + ones(500), 2780,
         "500 weights of 1 at n = 8,553 (7-11 s)"),
    over(f"complement --n 115 --weights 1,{HUGE}", 1642318,
         "weights 1,10^4299 at n = 115 (6-10 s"),
    over(f"chern --weights 1,{E18} --truncation 3000 --json", 179336,
         "`chern --weights 1,1000000000000000000 --truncation 3000`"),
    # just past the largest sizes weights 1,10^18 are accepted at
    over(f"chern --weights 1,{E18} --truncation 535", 31939,
         "truncation 534 for `chern`"),
    over(f"lens --d 16724 --m 3 --weights 1,{E18}", 1000021,
         "d = 16,723 for `lens`"),
    over("chern --weights 1,2,3,4,5,6,7,8,9,10 --truncation 6000", 20023,
         "with weights 1..10 they are truncation 2,260"),
    over(f"lens --d 100000 --m 3 --weights 1,{E18} --json", 5979487,
         "`lens --d 100000 --m 3 --weights 1,1000000000000000000`"),
    over("lens --d 1000001 --m 3 --weights 1,2", 1000021,
         "At weights 1,2 the sums cap refuses every d past it", "MAX_LENS_D"),
    over("lens --d 17592186044415 --m 3 --weights 1,1", None,
         "up to d = 17,592,186,044,414"),
    refused("span --n 7 --weights 1,2 --prime-bound 1000001",
            "prime bound must be in [0, 1000000], got 1000001",
            "its sieve takes a byte per integer", "MAX_PRIME_BOUND"),
    # the Pontrjagin series, capped whatever command builds it
    over("check-claims --n 999983 --weights 1,2", 2804761,
         "`check-claims --n 999983 --weights 1,2`"),
    over("check-claims --n 999983 --weights 1,8", 4804725,
         "the integer Pontrjagin series, whichever"),
    over("pontrjagin --n 2 --weights 1,8 --truncation 10000000", 30000079,
         "`pontrjagin --n 2 --weights 1,8 "),
    over("span --n 3201 --weights 1,8 --prime-bound 5", 15371,
         "the integer Pontrjagin series, whichever", "MAX_SERIES_N"),
    *(over(f"{kind} --n 3201 --weights 1,8{prime}", 15371,
           "the integer Pontrjagin series, whichever")
      for kind in ("span", "immersion") for prime in ("", " --prime 3")),
    # one prime builds the series a sweep builds, so its cap is checked
    # at truncation n, whatever p: refused before any work, and ahead of
    # any refusal of p, an order the golden grid pins
    over("span --n 1000000000000 --weights 1,2 --prime 3", 2804820237194,
         "check the series cap before the primality test"),
    # a sweep checks the series cap before its prime bound: not the
    # default 4n = 1,200,000 past MAX_PRIME_BOUND, and not a bound that
    # admits no odd prime, which would answer "no certificate"
    over("span --n 300000 --weights 1,2", 841433,
         "a sweep checks the series cap before its prime bound"),
    over("span --n 1000000000000 --weights 1,2 --prime-bound 2",
         2804820237194, "even one that admits no odd prime"),
    # past the cap at truncation n but not at n - 1: one prime is refused
    # as the sweep is, whatever its nilpotency order (n - 1 for 3, n for
    # 41, which divides h_{n-1})
    over("span --n 2965 --weights=-12,-11 --prime 3", 15971,
         "capped as a sweep is, at truncation n"),
    # sizes a float cannot hold take the same cap, not an OverflowError
    over(f"pontrjagin --n {BIG} --weights 1,2 --truncation 5", None, DIGITS),
    over(f"span --n {BIG} --weights 1,2 --prime 3", None, DIGITS),
    over(f"pontrjagin --n 5 --weights 1,2 --truncation {BIG}", None,
         "A size whose estimate passes a float"),
    # past 2^44 terms, where the float estimate loses its precision
    over("pontrjagin --n 100000000000000000000 --weights 1,2 --truncation "
         "3000", None, "at n = 10^20 with weights 1,2"),
]

# the engine checks its own caps: each call raises the ValueError its
# command prints (--json changes no refusal)
MESSAGES = {row.request.replace(" --json", ""): row.expect for row in REFUSED}
LIBRARY = [Row("library", f"{call}-{argv}", call, "ValueError",
               MESSAGES[argv], 5, 1.0, "So library calls are bounded too")
           for call, argv in (
    ("cp_complement_min_rank(8000, WeightTuple((1, 10**18)))",
     f"complement --n 8000 --weights 1,{E18}"),
    ("cp_complement_min_rank(3474, WeightTuple((1,) * 1000))",
     "complement --n 3474 --weights=" + ones(1000)),
    ("cp_complement_min_rank(8553, WeightTuple((1,) * 500))",
     "complement --n 8553 --weights=" + ones(500)),
    ("cp_complement_min_rank(115, WeightTuple((1, 10**4299)))",
     f"complement --n 115 --weights 1,{HUGE}"),
    ("complement_chern(WeightTuple((1, 10**18)), 3000)",
     f"chern --weights 1,{E18} --truncation 3000"),
    ("presentation_odd(StiefelParams(10**7, 2, WeightTuple((1, 2))), 3)",
     "cohomology --n 10000000 --k 2 --weights 1,2 --prime 3"),
    ("presentation_mod2(10**7, WeightTuple((1, 2)))",
     "cohomology --n 10000000 --k 2 --weights 1,2 --prime 2"),
    ("presentation_odd(StiefelParams(223_000, 3, WeightTuple((1, 2, 3))), 3)",
     "cohomology --n 223000 --k 3 --weights 1,2,3 --prime 3"),
    ("LensParams(100_000, 3, 1, 10**18)",
     f"lens --d 100000 --m 3 --weights 1,{E18}"),
    ("tangent_pontrjagin(10**20, WeightTuple((1, 2)), truncation=3000)",
     "pontrjagin --n 100000000000000000000 --weights 1,2 --truncation 3000"))]

PACKED = "at k = 3 it accepts n up to 222,000"
ANSWERED = [
    # positive weights: h_n > 0, so no complement of rank below n
    *(answers("complement", f"complement --n {n} --weights={ws} --json", 5,
              2.0, f'"lower_bound": "{n}"', readme, id=f"{n}-ws{i}")
      for i, (n, ws, _, readme) in enumerate(COMPLEMENT)),
    # weights 1,1 (h_d = d + 1) at the float estimate's 2^44 terms
    answers("lens", "lens --d 17592186044414 --m 3 --weights 1,1 --json", 10,
            2.0, '"value": "17592186044415"', "044,414 in 0.3 s"),
    # the scan's tables are mod p: the packed size alone bounds these
    *(answers("packed", f"{argv} --json", 10, 5.0, '"passed": true', readme,
              cap, id=argv) for argv, readme, cap in (
        ("cohomology --n 50001 --k 3 --weights 1,2,3 --prime 3", PACKED, None),
        ("cohomology --n 50000 --k 3 --weights 1,2,1000 --prime 3", PACKED,
         None),
        ("cohomology --n 222000 --k 3 --weights 1,2,1000 --prime 3",
         "0.5 s, 66 MB and 14.7 MB of JSON", "MAX_COHOMOLOGY_BYTES"),
        ("cohomology --n 45000 --k 10 --weights=" + ones(9) + ",2 --prime 3",
         "It alone bounds every k", None))),
    # one power and one linear pass (repeated squaring took 17.5-20 s)
    answers("bound", "immersion --n 1600 --weights 1,8 --prime-bound 5 --json",
            10, 2.0, '"claimed_dim": "7935"', "the normal at n = 1,600"),
    answers("bound", "span --n 3200 --weights 1,8 --prime-bound 5 --json", 10,
            2.0, '"span_bound": "9717"', "1,8 (3,200)", "MAX_SERIES_N"),
    answers("bound", "complement --n 50000 --weights 1,2,3 --json", 5, 1.0,
            '"lower_bound": "50000"', "0.08 s and 14 MB", "MAX_COMPLEMENT_N"),
    answers("bound", "cp_complement_min_rank(50_000, WeightTuple((1, 2, 3)))"
            ".lower_bound", 5, 1.0, "50000", "0.08 s and 14 MB", rss_mb=64),
    answers("bound", "complement --n 1000000000000 --weights 1,1,1 --json", 5,
            1.0, '"lower_bound": "1000000000000"', "an h_n of 79 bits"),
    answers("bound", f"cohomology --n 250 --k 125 --weights={ones(125)} "
            "--prime 5 --json", 5, 1.0, '"nilpotency_order": "250"',
            "125 steps at n = 250, k = 125 in about 2.5 ms"),
    answers("bound", f"cohomology --n 300 --k 150 --weights={ones(150)} "
            "--prime 3 --json", 20, 5.0, '"nilpotency_order": "243"',
            "a 2.8 MB `cohomology` report"),
    # the series cap's reference request, whole, and the two series alone
    answers("bound", "pontrjagin --n 3200 --weights 1,8 --json", 10, 2.0,
            '"-207951"', "takes 0.84 s and 40 MB"),
    answers("bound", "[s(3200, WeightTuple((1, 8))).coeffs[2] for s in "
            "(tangent_pontrjagin, normal_pontrjagin)]", 5, 1.0,
            "[-207951, 207951]", "takes 0.84 s and 40 MB", rss_mb=40),
    answers("bound", f"cohomology --n 400 --k 200 --weights={ones(200)} "
            "--prime 3 --json", 10, 2.0, '"nilpotency_order": "243"',
            "n = 400, k = 200 is 3.1 MB, 0.64 s and 6.3 MB of JSON"),
    answers("bound", f"chern --weights 1,{E18} --truncation 534 --json", 10,
            2.0, '"truncation": "534"',
            "truncation 534 for `chern` (0.7 s with `--json`)"),
    answers("bound", "total_chern(WeightTuple((1, 2, 3)), 6000).coeffs[:5]",
            10, 5.0, "(1, 6, 11, 6, 0)", FLAG),
    answers("ci", "chern --weights 1,2,3 --truncation 6000 --json", 20, 5.0,
            '"truncation": "6000"', "0.84 s for 8.7 MB of JSON",
            "MAX_CHERN_TRUNCATION"),
    answers("ci", "span --n 7 --weights 1,2 --prime-bound 1000000 --json", 30,
            4.0, '"span_bound": "17"', "78,498 primes", "MAX_PRIME_BOUND"),
    answers("ci", "lens --d 1000000 --m 3 --weights 1,2 --json", 20, 5.0,
            '"lower_bound": "1000000"', "takes about 1.4 s", "MAX_LENS_D"),
    answers("ci", f"lens --d 16700 --m 3 --weights 1,{E18} --json", 20, 5.0,
            '"lower_bound": "16699"', "1.5 s with `--json` at d = 16,700"),
    # the worst accepted sweep: the per-prime scan, which the series cap
    # does not bound, keeps it past the 1 s budget
    answers("ci", "immersion --n 5220 --weights 1,1 --json", 20, 5.0,
            '"claimed_dim": "26093"',
            "`immersion --n 5220 --weights 1,1 --json` at 1.7-1.9 s"),
]

ROWS = REFUSED + LIBRARY + ANSWERED


def run(row, cli=(sys.executable, "-m", "pstiefel")):
    """Run row's argv with the command cli, or its call; return its
    seconds, or raise AssertionError where it differs from the row."""
    call = "(" in row.request.split()[0]  # no argv's command has one
    argv = ([sys.executable, "-c", CALL.format(row.request)] if call
            else [*cli, *row.request.split()])
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=row.timeout)
    seconds = time.perf_counter() - start
    assert seconds < row.seconds, f"took {seconds:.2f} s"
    err = proc.stderr[-1000:]
    if call:
        expect = f"{row.code}: {row.expect}" if row.code else row.expect
        assert (proc.returncode, proc.stdout) == (0, f"{expect}\n"), err
        rss = int(err)
        assert rss < (row.rss_mb or float("inf")), f"peak RSS {rss} MB"
    elif row.code:
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            row.code, "", f"pstiefel: error: {row.expect}\n"), err
    else:
        assert (proc.returncode, proc.stderr) == (0, ""), err
        assert row.expect in proc.stdout, proc.stdout[:1000]
        if "--json" in argv:
            json.loads(proc.stdout)
    return seconds


if __name__ == "__main__":
    if not __debug__:
        sys.exit("run() checks with assert, which -O strips")
    for row in ROWS:
        try:
            seconds = run(row, cli=("pstiefel",))
        except Exception as exc:
            sys.exit(f"{row.test} {row.id[:200]}: {str(exc)[:2000]}")
        print(f"{seconds:5.2f} s  {row.test:10} {row.id[:100]}")
