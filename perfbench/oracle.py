"""Independent recomputation of pstiefel's ``--json`` answers.

Nothing here imports pstiefel. Each checker recomputes the answer of one
subcommand from the request's arguments by a separate route and returns
a list of mismatches (empty when the report is right):

* Pontrjagin coefficients come from the closed product in y = x^2,
  (1 - a y)^n (1 - b y)^n / (1 - c y) with a = l1^2, b = l2^2,
  c = (l2 - l1)^2, expanded once over Z by binomials and then reduced
  mod each prime, instead of dense mod-p power series;
* complete homogeneous sums come from one table up to the largest
  degree needed, instead of one table per degree;
* Poincare polynomials are checked through their invariants and by
  evaluating both sides at a fixed point modulo a large prime.
"""

from __future__ import annotations

import math

EVAL_MODULUS = (1 << 61) - 1
EVAL_POINT = 1234567891


def parse_argv(argv) -> tuple[str, dict]:
    """Subcommand and its --flag values (ints where they parse)."""
    command, opts = argv[0], {}
    i = 1
    while i < len(argv):
        token = argv[i]
        if "=" in token:
            key, value = token[2:].split("=", 1)
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            key, value = token[2:], argv[i + 1]
            i += 1
        else:
            key, value = token[2:], True
        if key == "weights":
            value = [int(w) for w in value.split(",")]
        elif isinstance(value, str):
            value = int(value)
        opts[key.replace("-", "_")] = value
        i += 1
    return command, opts


def _s(value):
    """A value as the report writes it: decimal strings, bools and nulls."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_s(v) for v in value]
    if isinstance(value, dict):
        return {k: _s(v) for k, v in value.items()}
    return value


def _diff(label, got, want) -> list[str]:
    if got == want:
        return []
    text = repr(got)
    if len(text) > 120:
        text = text[:120] + "..."
    return [f"{label}: got {text}, expected {_s(want)!r}"[:300]]


def homogeneous_sums(ws, top: int) -> list[int]:
    """h_0 .. h_top of the weights, as coefficients of prod 1/(1 - w x)."""
    h = [1] + [0] * top
    for w in ws:
        for r in range(1, top + 1):
            h[r] += w * h[r - 1]
    return h


def odd_primes_upto(bound: int) -> list[int]:
    return [p for p in range(3, bound + 1, 2)
            if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


def _odd_prime_divisors(n: int) -> list[int]:
    n = abs(n)
    return [p for p in odd_primes_upto(n) if n % p == 0] if n else []


class PontrjaginSeries:
    """Tangent and normal Pontrjagin coefficients of a two-frame quotient.

    Index i is the coefficient of y^i = x^(2i), exact over Z.
    """

    def __init__(self, n: int, l1: int, l2: int, terms: int):
        a, b, c = l1 * l1, l2 * l2, (l2 - l1) ** 2
        fa = [math.comb(n, s) * (-a) ** s for s in range(terms)]
        fb = [math.comb(n, s) * (-b) ** s for s in range(terms)]
        ga = [math.comb(n + s - 1, s) * a ** s for s in range(terms)]
        gb = [math.comb(n + s - 1, s) * b ** s for s in range(terms)]
        f = [sum(fa[s] * fb[u - s] for s in range(u + 1))
             for u in range(terms)]
        g = [sum(ga[s] * gb[u - s] for s in range(u + 1))
             for u in range(terms)]
        self.tangent = f[:1]
        for u in range(1, terms):
            self.tangent.append(f[u] + c * self.tangent[-1])
        self.normal = g[:1] + [g[u] - c * g[u - 1] for u in range(1, terms)]

    def x_series(self, kind: str, truncation: int, modulus: int) -> list[int]:
        ys = self.tangent if kind == "tangent" else self.normal
        out = [0] * truncation
        for i in range(0, truncation, 2):
            out[i] = ys[i // 2] % modulus if modulus else ys[i // 2]
        return out


def _order(h: list[int], n: int, k: int, p: int) -> int:
    return next(r for r in range(n - k + 1, n + 1) if h[r] % p)


def _certificate(kind, n, series, h, p):
    """The span or immersion certificate mod p, as the report writes it."""
    order = _order(h, n, 2, p)
    if order < 3:
        return None
    coeffs = series.tangent if kind == "span" else series.normal
    for i in range((order - 1) // 2, 0, -1):
        w = coeffs[i] % p
        if w:
            if kind == "span":
                return {"prime": p, "index": i, "witness": w,
                        "bound": 4 * n - 5 - 2 * i, "basis": "direct-series"}
            return {"prime": p, "index": i, "witness": w,
                    "bound": 4 * n - 6 + 2 * i, "claimed": 4 * n - 5 + 2 * i,
                    "basis": "direct-series"}
    return None


def check_certificates(command, o, report) -> list[str]:
    n, (l1, l2) = o["n"], o["weights"]
    series = PontrjaginSeries(n, l1, l2, (n - 1) // 2 + 1)
    h = homogeneous_sums((l1, l2), n)
    if "prime" in o:
        cert = _certificate(command, n, series, h, o["prime"])
        certs = [cert] if cert else []
    else:
        bound = o.get("prime_bound", 4 * n)
        certs = [c for c in (_certificate(command, n, series, h, p)
                             for p in odd_primes_upto(bound)) if c]
    if command == "span":
        best = min(certs, key=lambda c: (c["bound"], c["prime"]), default=None)
        result = {"span_bound": best and best["bound"]}
    else:
        best = min(certs, key=lambda c: (-c["bound"], c["prime"]),
                   default=None)
        result = {"certified_non_immersion_dim": best and best["bound"],
                  "claimed_dim": best and best["claimed"]}
    if "prime" not in o:
        result["best_prime"] = best and best["prime"]
    return (_diff("result", report["result"], _s(result))
            + _diff("certificates", report["certificates"], _s(certs)))


def check_pontrjagin(o, report) -> list[str]:
    n, (l1, l2) = o["n"], o["weights"]
    T, m = o.get("truncation", n), o.get("modulus", 0)
    series = PontrjaginSeries(n, l1, l2, (T + 1) // 2)
    want = {kind: {"coefficients": series.x_series(kind, T, m),
                   "truncation": T, "modulus": m}
            for kind in ("tangent", "normal")}
    return _diff("result", report["result"], _s(want))


def check_chern(o, report) -> list[str]:
    ws = o["weights"]
    T = o["truncation"] if "truncation" in o else o["n"] + 1
    total = [1] + [0] * (T - 1)
    for w in ws:
        for r in range(T - 1, 0, -1):
            total[r] += w * total[r - 1]
    h = homogeneous_sums(ws, T - 1)
    complement = [(-1) ** r * h[r] for r in range(T)]
    want = {"total": {"coefficients": total, "truncation": T, "modulus": 0},
            "complement": {"coefficients": complement, "truncation": T,
                           "modulus": 0}}
    return _diff("result", report["result"], _s(want))


def check_cohomology(o, report) -> list[str]:
    n, k, ws, p = o["n"], o["k"], o["weights"], o["prime"]
    h = homogeneous_sums(ws, n)
    if p == 2:
        order = n if h[n - 1] % 2 == 0 else n - 1
        exterior = [2 * n - 3] if order == n else [2 * n - 1]
    else:
        order = _order(h, n, k, p)
        exterior = [2 * j - 1 for j in range(n - k + 1, n + 1) if j != order]
    dimension = k * (2 * n - k) - 1
    rank = order * 2 ** (k - 1)
    r = report["result"]
    errors = []
    for key, want in (("prime", p), ("nilpotency_order", order),
                      ("relation", f"x^{order}"),
                      ("exterior_degrees", exterior),
                      ("mod2_square_relations", p == 2),
                      ("generator_degree", 2),
                      ("invariants", {"top_degree": dimension,
                                      "expected_top_degree": dimension,
                                      "total_rank": rank,
                                      "expected_rank": rank,
                                      "palindromic": True, "passed": True})):
        errors += _diff(key, r.get(key), _s(want))
    poly = r.get("poincare_coefficients", [])
    if len(poly) != dimension + 1 or poly != poly[::-1]:
        errors.append("poincare_coefficients: wrong length or not palindromic")
    q, t = EVAL_MODULUS, EVAL_POINT
    got = 0
    for c in reversed(poly):
        got = (got * t + int(c)) % q
    want = sum(pow(t, 2 * i, q) for i in range(order)) % q
    for d in exterior:
        want = want * (1 + pow(t, d, q)) % q
    if got != want:
        errors.append("poincare_coefficients: wrong value at the test point")
    if sum(int(c) for c in poly) != rank:
        errors.append("poincare_coefficients: wrong total rank")
    return errors


def _rank_report(space, lower, achievable, kind, index=None, value=None):
    return {"space": space, "lower_bound": lower, "achievable": achievable,
            "reason": {"kind": kind, "index": index, "value": value}}


def check_complement(o, report) -> list[str]:
    n, ws = o["n"], o["weights"]
    h = homogeneous_sums(ws, n)
    lower = max((i for i in range(1, n + 1) if h[i]), default=0)
    achievable = n - 1 if h[n] == 0 else n
    if lower:
        want = _rank_report(f"CP^{n}", lower, achievable, "chern-nonzero",
                            lower, (-1) ** lower * h[lower])
    else:
        want = _rank_report(f"CP^{n}", 0, achievable, "none")
    return _diff("result", report["result"], _s(want))


def _two_adic(v: int) -> int:
    return (v & -v).bit_length() - 1


def check_lens(o, report) -> list[str]:
    d, m, (l1, l2) = o["d"], o["m"], o["weights"]
    value = sum(l1 ** i * l2 ** (d - i) for i in range(d + 1))
    hyps = {"d even": d % 2 == 0, "m even": m % 2 == 0,
            "m divides h_d": value % m == 0,
            "2-adic valuations of m and h_d match":
                value != 0 and m % 2 == 0
                and _two_adic(m) == _two_adic(value)}
    satisfied = all(hyps.values())
    space = f"L^{d}({m})"
    if value % m:
        want = _rank_report(space, d, d, "homogeneous-sum-mod-m", d, value % m)
    elif satisfied:
        want = _rank_report(space, d, d, "steenrod-square", d, value)
    else:
        want = _rank_report(space, d - 1, d, "none")
    want["criterion"] = {"satisfied": satisfied, "hypotheses": hyps,
                         "value": value}
    return _diff("result", report["result"], _s(want))


def check_claims(o, report) -> list[str]:
    n, (l1, l2) = o["n"], o["weights"]
    series = PontrjaginSeries(n, l1, l2, max((n - 1) // 2, 0) + 1)
    h = homogeneous_sums((l1, l2), n)
    want = []
    for p in _odd_prime_divisors(n):
        if (l2 - l1) % p == 0:
            continue
        order = _order(h, n, 2, p)
        i1, i2 = (n - 2) // 2, (n - 1) // 2
        w1 = series.tangent[i1] % p
        adm1 = 2 * i1 <= order - 1
        hyps1 = {"p divides n": True, "p does not divide l2 - l1": True}
        want.append(("span", p, 1, hyps1, i1, adm1, w1,
                     4 * n - 5 - 2 * i1, "AGREE" if w1 and adm1
                     else "DISCREPANT", None))
        pow_gap = (l1 ** n - l2 ** n) % p == 0
        hyps2 = dict(hyps1, **{"n odd": n % 2 == 1,
                               "p divides l1^n - l2^n": pow_gap})
        if n % 2 == 1 and pow_gap:
            w2 = series.tangent[i2] % p
            adm2 = 2 * i2 <= order - 1
            want.append(("span", p, 2, hyps2, i2, adm2, w2, 3 * n - 4,
                         "AGREE" if w2 and adm2 else "DISCREPANT", None))
        else:
            want.append(("span", p, 2, hyps2, None, None, None, None,
                         "NOT_APPLICABLE", None))
    j = (n - 3) // 2
    for p in _odd_prime_divisors(math.gcd(n - 1, l2 - l1)) if j >= 0 else ():
        order = _order(h, n, 2, p)
        w = series.normal[j] % p
        adm = 2 * j <= order - 1
        claimed = 4 * n - 5 + 2 * j
        hyps = {"p divides n - 1": True, "p divides l2 - l1": True}
        want.append(("immersion", p, 1, hyps, j, adm, w, claimed,
                     "AGREE" if w and adm else "DISCREPANT", claimed - 1))
    got = [(e["kind"], int(e["prime"]), int(e["part"]),
            e["hypotheses"],
            None if e["index"] is None else int(e["index"]),
            e["admissible"],
            None if e["coefficient"] is None else int(e["coefficient"]),
            None if e["claimed"] is None else int(e["claimed"]),
            e["verdict"],
            int(e["certified"]) if "certified" in e else None)
           for e in report["claim_checks"]]
    span = [w[8] for w in want if w[0] == "span"]
    imm = [w[8] for w in want if w[0] == "immersion"]
    result = {"span_verdicts": span, "immersion_verdicts": imm,
              "span_vacuous": not span, "immersion_vacuous": not imm}
    return (_diff("claim_checks", got, want)
            + _diff("result", report["result"], result))


def check_verify(o, report) -> list[str]:
    r = report["result"]
    if r.get("passed") is not True or not r.get("suites") or any(
            s["failures"] for s in r["suites"]):
        return [f"verify suites did not all pass: {r}"[:300]]
    return []


CHECKERS = {
    "chern": check_chern,
    "pontrjagin": check_pontrjagin,
    "cohomology": check_cohomology,
    "complement": check_complement,
    "lens": check_lens,
    "check-claims": check_claims,
    "verify": check_verify,
}


def check(argv, report: dict) -> list[str]:
    """Mismatches between ``report`` and the recomputed answer to ``argv``."""
    command, opts = parse_argv(argv)
    errors = _diff("command", report.get("command"), command)
    if command in ("span", "immersion"):
        return errors + check_certificates(command, opts, report)
    return errors + CHECKERS[command](opts, report)
