"""Command-line interface.

Every subcommand prints a human-readable text report, or with --json a
single JSON object with the fixed shape

    {command, params, result, certificates, diagnostics, claim_checks}

where params echoes the request, as main parses it, and every number is
a decimal string so arbitrary precision survives serialization. Output
is deterministic: identical invocations produce identical bytes. One
recursive pass renders the report, byte for byte what
json.dumps(..., indent=2, sort_keys=True) gives for the same report with
ints as decimal strings and Certificates as objects; it appends every
piece to one list, joined once, writes certificates from one indented
template per shape and list and joins int lists in chunks, so a report
of long int lists peaks at about twice its length. The size caps live in
pstiefel.costs and are checked by the engine functions before any work;
a request past one is invalid input like any other ValueError.
Exit codes: 0 for any successfully computed answer (including DISCREPANT
claim checks and absent certificates), 1 for invalid input or a stdout
closed before the report is written, 2 for an internal invariant
violation or a failed verification suite. A plain argv (a known
command, then each of its flags at most once by its full name) is read
straight from COMMANDS by _parse_plain, with no parser built. Anything
else goes to argparse, through the one parser of all nine subcommands,
built only then (in 1-2 ms), so every help, usage and error message is
argparse's.
"""

from __future__ import annotations

import argparse
import contextlib
import operator
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import verify as verify_mod
from .cohomology import (CohomologyPresentation, InvariantViolation,
                         StiefelParams, check_presentation_invariants,
                         presentation_mod2, presentation_odd)
from .geometry import (CERTIFICATE_BASIS, NOT_APPLICABLE, Certificate,
                       LensParams, RankBoundReport, best_immersion_bound,
                       best_span_bound, check_immersion_theorem,
                       check_span_theorem, cp_complement_min_rank,
                       immersion_certificate, lens_rank_bound,
                       normal_pontrjagin, span_certificate,
                       tangent_pontrjagin)
from .weights import WeightTuple, complement_chern, total_chern

NUMBER = {"type": "string", "pattern": "^-?[0-9]+$"}
CERTIFICATE_KEYS = Certificate._fields  # only immersion has a claimed bound


def _certificate_template(fields):
    """A certificate's JSON object at indent "\n", as _emit writes a dict,
    with a "%d" slot per field, and the getter of the fields in order."""
    slots = dict.fromkeys(fields, '"%d"')
    slots["basis"] = _quote(CERTIFICATE_BASIS)
    return ("{\n  " + ",\n  ".join(_quote(key) + ": " + slots[key]
                                   for key in sorted(slots)) + "\n}",
            operator.attrgetter(*sorted(fields)))


CERTIFICATE_TEMPLATES = {True: _certificate_template(CERTIFICATE_KEYS[:-1]),
                         False: _certificate_template(CERTIFICATE_KEYS)}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "result", "certificates",
                 "diagnostics", "claim_checks"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "result": {"type": "object"},
        "certificates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [*CERTIFICATE_KEYS[:-1], "basis"],
                "properties": {**dict.fromkeys(CERTIFICATE_KEYS, NUMBER),
                               "basis": {"const": CERTIFICATE_BASIS}},
                "additionalProperties": False,
            },
        },
        "diagnostics": {"type": "array", "items": {"type": "string"}},
        "claim_checks": {"type": "array", "items": {"type": "object"}},
    },
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_weights(text: str) -> WeightTuple:
    try:
        raw = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"weights must be comma-separated integers, got {text!r}") from None
    return WeightTuple(raw)


def _bind_negative_weights(argv: list[str]) -> list[str]:
    """Join --weights, or an abbreviation of it from --w on, to a value
    such as -3,4, which argparse would otherwise take for an option. No
    other flag starts with --w; joining any other value is harmless."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--w")
                and "--weights".startswith(out[-1]) and token[1:2].isdigit()):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


# A list of plain ints is joined this many entries at a time, so the
# renderer holds only one chunk's decimal strings beside the report.
RENDER_CHUNK = 1024


def _render(obj) -> str:
    """JSON text of a report whose every int prints as a quoted decimal:
    sorted keys, two-space indentation, "," and ": " as separators, ASCII
    strings. Int lists are joined in chunks of RENDER_CHUNK, a Certificate
    fills its CERTIFICATE_TEMPLATES entry, indented once per certificate
    list, bools stay true and false. Keys must be strings; a float or any
    other type raises TypeError. Every piece goes to one list, joined
    once, so a report of long int lists peaks at about twice its length."""
    pieces = []
    _emit(obj, "\n", pieces.append)
    return "".join(pieces)


def _emit(obj, indent: str, put) -> None:
    if isinstance(obj, str):
        put(_quote(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put('"' + str(obj) + '"')
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = indent + "  "
        sep, lead = "," + inner, "{" + inner
        for key in sorted(obj):
            value = obj[key]
            # an int, str or None field is one piece; exact types, so a
            # bool still renders as true or false
            if value.__class__ is int:
                put(lead + _quote(key) + ': "' + str(value) + '"')
            elif value.__class__ is str:
                put(lead + _quote(key) + ": " + _quote(value))
            elif value is None:
                put(lead + _quote(key) + ": null")
            else:
                put(lead + _quote(key) + ": ")
                _emit(value, inner, put)
            lead = sep
        put(indent + "}")
    elif isinstance(obj, Certificate):  # a tuple, so ahead of that branch
        template, fields = CERTIFICATE_TEMPLATES[obj.claimed is None]
        put(template.replace("\n", indent) % fields(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = indent + "  "
        sep, lead = "," + inner, "[" + inner
        kinds = set(map(type, obj))
        if kinds == {Certificate}:
            # one indented template per shape; a certificate is one piece
            shapes = {}
            for span, (template, fields) in CERTIFICATE_TEMPLATES.items():
                shapes[span] = template.replace("\n", inner), fields
            for cert in obj:
                template, fields = shapes[cert.claimed is None]
                put(lead + template % fields(cert))
                lead = sep
        elif kinds == {int}:
            joiner = '",' + inner + '"'
            lead += '"'
            for start in range(0, len(obj), RENDER_CHUNK):
                put(lead)
                put(joiner.join(map(str, obj[start:start + RENDER_CHUNK])))
                lead = joiner
            put('"')
        else:
            for v in obj:
                put(lead)
                _emit(v, inner, put)
                lead = sep
        put(indent + "]")
    else:
        raise TypeError(f"a report holds no {type(obj).__name__}")


def _series_report(args, **series):
    """Lines and report fields of named series: a line per series, its
    repr after its name, padded to the longest name + 2 (none under
    --json), and a {coefficients, truncation, modulus} payload each."""
    width = max(map(len, series)) + 2
    lines = [] if args.json else [f"{name + ':':<{width}}{s!r}"
                                  for name, s in series.items()]
    return lines, {"result": {
        name: {"coefficients": list(s.coeffs), "truncation": s.truncation,
               "modulus": s.modulus} for name, s in series.items()}}


def _rank_report(rep: RankBoundReport):
    """Lines and report fields of a complement rank bound: the bound, the
    secondary criterion when the report carries one, then the notes."""
    reason = rep.reason_kind
    if rep.reason_index is not None:
        reason += f" (index {rep.reason_index}, value {rep.reason_value})"
    result = {
        "space": rep.space,
        "lower_bound": rep.lower_bound,
        "achievable": rep.achievable,
        "reason": {
            "kind": rep.reason_kind,
            "index": rep.reason_index,
            "value": rep.reason_value,
        },
    }
    lines = [f"{rep.space}: complement rank >= {rep.lower_bound} forced "
             f"[{reason}]; rank {rep.achievable} achievable"]
    crit = rep.criterion
    if crit is not None:
        result["criterion"] = {
            "satisfied": crit.satisfied,
            "hypotheses": dict(crit.hypotheses),
            "value": crit.value,
        }
        lines.append(
            f"secondary criterion "
            f"{'satisfied' if crit.satisfied else 'unsatisfied'}: "
            + ", ".join(f"{name}={ok}" for name, ok in crit.hypotheses))
    return lines + list(rep.notes), {"result": result,
                                     "diagnostics": list(rep.notes)}


# Each handler returns (text lines, report fields) for the args main parsed,
# weights too, and writes back any default it resolves, since main echoes
# args as params. Handlers whose lines are long build none under --json.

def _cmd_cohomology(args):
    ell = args.weights
    params = StiefelParams(args.n, args.k, ell)
    if args.prime == 2:
        pres = presentation_mod2(args.n, ell)
    else:
        pres = presentation_odd(params, args.prime)
    check = check_presentation_invariants(pres, params)
    if not check.passed:
        raise InvariantViolation(
            f"presentation invariants failed for {params}: {check}")
    result = {
        "prime": pres.prime,
        "nilpotency_order": pres.nilpotency_order,
        "generator_degree": CohomologyPresentation.generator_degree,
        "relation": f"x^{pres.nilpotency_order}",
        "exterior_degrees": list(pres.exterior_degrees),
        "mod2_square_relations": pres.mod2_square_relations,
        "presentation": pres.describe(),
        "poincare_coefficients": check.poincare,
        # every field of the check but the last, its poincare list
        "invariants": dict(zip(check._fields[:-1], check),
                           passed=check.passed),
    }
    lines = [
        pres.describe(),
        f"nilpotency order {pres.nilpotency_order}; "
        f"exterior degrees {list(pres.exterior_degrees)}",
        f"top degree {check.top_degree}, total rank {check.total_rank}, "
        f"invariants {'ok' if check.passed else 'FAILED'}",
    ]
    return lines, {"result": result}


def _cmd_chern(args):
    if args.truncation is not None and args.n is not None:
        raise ValueError("give --truncation or --n, not both")
    if args.n is not None:
        if args.n < 0:
            raise ValueError(f"need n >= 0, got {args.n}")
        args.truncation, args.n = args.n + 1, None
    elif args.truncation is None:
        raise ValueError("chern needs --truncation or --n")
    ell, T = args.weights, args.truncation
    return _series_report(args, total=total_chern(ell, T),
                          complement=complement_chern(ell, T))


def _cmd_pontrjagin(args):
    if args.truncation is None:
        args.truncation = args.n
    n, ell, modulus, T = args.n, args.weights, args.modulus, args.truncation
    return _series_report(args,
                          tangent=tangent_pontrjagin(n, ell, modulus, T),
                          normal=normal_pontrjagin(n, ell, modulus, T))


def _cmd_certificates(args):
    """span and immersion: one prime, or a sweep of odd primes."""
    ell = args.weights
    kind = args.command
    span = kind == "span"
    letter = "i" if span else "j"

    def claim(c):
        return (f"span <= {c.bound}" if span
                else f"no immersion into R^{c.bound}")

    if args.prime is not None and args.prime_bound is not None:
        raise ValueError("give --prime or --prime-bound, not both")
    diagnostics = []
    # Look the engine functions up at call time: a table built at import
    # would hide them from anything that rebinds module names.
    if args.prime is not None:
        certificate = span_certificate if span else immersion_certificate
        cert = certificate(args.n, ell, args.prime)
        certs = [cert] if cert else []
        if cert:
            sep = (", " if span else " (certified); claimed-form dimension "
                   f"{cert.claimed}; ")
            lines = [f"{claim(cert)}{sep}certificate p={cert.prime} "
                     f"{letter}={cert.index} w={cert.witness}"]
        else:
            diagnostics.append(
                f"no admissible nonzero coefficient mod {args.prime}")
            lines = [f"no {kind} certificate mod {args.prime}"]
    else:
        if args.prime_bound is None:
            args.prime_bound = 4 * args.n
        sweep = (best_span_bound if span else best_immersion_bound)(
            args.n, ell, args.prime_bound)
        certs = list(sweep.certificates)
        cert = sweep.best
        if not cert:
            diagnostics.append("no certificate found in the prime sweep")
        lines = []
        if not args.json:
            lines = [f"p={c.prime}: {claim(c)} ({letter}={c.index}, "
                     f"w={c.witness})" for c in certs]
            lines.append(f"best: {claim(cert)} (p={cert.prime})" if cert
                         else f"no {kind} certificate found")
    result = ({"span_bound": cert and cert.bound} if span
              else {"certified_non_immersion_dim": cert and cert.bound,
                    "claimed_dim": cert and cert.claimed})
    if args.prime is None:
        result["best_prime"] = cert and cert.prime
    return lines, {"result": result, "certificates": certs,
                   "diagnostics": diagnostics}


def _cmd_complement(args):
    return _rank_report(cp_complement_min_rank(args.n, args.weights))


def _cmd_lens(args):
    ell = args.weights
    if len(ell) != 2:
        raise ValueError(
            f"lens spaces take exactly two weights, got {list(ell)}")
    return _rank_report(lens_rank_bound(LensParams(args.d, args.m, *ell)))


def _cmd_check_claims(args):
    checks = (check_span_theorem(args.n, args.weights),
              check_immersion_theorem(args.n, args.weights))
    result, diagnostics, claim_payload, lines = {}, [], [], []
    for check in checks:
        result[f"{check.kind}_verdicts"] = list(check.verdicts)
        result[f"{check.kind}_vacuous"] = check.vacuous
        if check.vacuous:
            diagnostics.append(
                f"{check.kind} claim vacuous: no qualifying prime")
        for inst in check.instances:
            entry = {**inst._asdict(), "kind": check.kind,
                     "hypotheses": dict(inst.hypotheses)}
            if check.kind == "immersion" and inst.claimed is not None:
                entry["certified"] = inst.claimed - 1
            claim_payload.append(entry)
            desc = f"{check.kind} part {inst.part} p={inst.prime}: " \
                   f"{inst.verdict}"
            if inst.verdict != NOT_APPLICABLE:
                desc += (f" (index {inst.index}, "
                         f"coefficient {inst.coefficient}, "
                         f"claimed {inst.claimed})")
            lines.append(desc)
    return lines + diagnostics, {"result": result, "diagnostics": diagnostics,
                                 "claim_checks": claim_payload}


def _cmd_verify(args):
    results = verify_mod.run_all(quick=args.quick)
    lines = []
    for r in results:
        status = "ok" if r.passed else f"FAIL ({r.failures[0]})"
        lines.append(f"{r.name}: {r.checked} checks, {status}")
    return lines, {"result": {"suites": [r._asdict() for r in results],
                              "passed": all(r.passed for r in results)}}


_JSON = ("--json", {"action": "store_true",
                   "help": "emit a JSON report on stdout"})
_N = ("--n", {"type": int, "required": True})
_WEIGHTS = ("--weights", {"required": True})
_CERTIFICATE_ARGS = (_N, _WEIGHTS, ("--prime", {"type": int}),
                     ("--prime-bound", {
                         "type": int,
                         "help": "sweep odd primes up to this bound "
                                 "(default 4n)"}))

# One row per subcommand: name -> (handler, help text, arguments after
# --json, each a flag and its add_argument options). build_parser adds
# every row, in this order; _parse_plain reads a plain argv from the
# same row, so an option may use only type=int, required, default, help
# and action="store_true".
COMMANDS = {
    "cohomology": (_cmd_cohomology,
                   "mod-p cohomology presentation of a quotient", (
                       _N, ("--k", {"type": int, "required": True}),
                       ("--weights", {
                           "required": True,
                           "help": "comma-separated integer weights, "
                                   "e.g. 1,2"}),
                       ("--prime", {"type": int, "required": True}))),
    "chern": (_cmd_chern,
              "total and complement Chern series of a weighted line bundle "
              "sum", (
                  _WEIGHTS, ("--truncation", {"type": int}),
                  ("--n", {"type": int,
                           "help": "projective space dimension "
                                   "(truncation n+1)"}))),
    "pontrjagin": (_cmd_pontrjagin,
                   "tangent and normal Pontrjagin series (two weights)", (
                       _N, _WEIGHTS,
                       ("--modulus", {"type": int, "default": 0}),
                       ("--truncation", {"type": int}))),
    "span": (_cmd_certificates, "span upper-bound certificates",
             _CERTIFICATE_ARGS),
    "immersion": (_cmd_certificates, "non-immersion certificates",
                  _CERTIFICATE_ARGS),
    "complement": (_cmd_complement,
                   "complement rank bound over complex projective space",
                   (_N, _WEIGHTS)),
    "lens": (_cmd_lens, "complement rank bound over a lens space", (
        ("--d", {"type": int, "required": True}),
        ("--m", {"type": int, "required": True}),
        ("--weights", {"required": True, "help": "two coprime weights"}))),
    "check-claims": (_cmd_check_claims,
                     "closed-form span/immersion claims vs direct "
                     "computation", (_N, _WEIGHTS)),
    "verify": (_cmd_verify, "run the self-verification suites", (
        ("--quick", {"action": "store_true",
                     "help": "smaller grids for a fast smoke run"}),)),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = _Parser(
        prog="pstiefel",
        description="Exact mod-p topology of circle quotients of complex "
                    "Stiefel manifolds: presentations, certificates, bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag, options in (_JSON, *arguments):
            p.add_argument(flag, **options)
    return parser


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace build_parser().parse_args(argv) returns, read straight
    from the command's COMMANDS row, for a plain argv: a known command, then
    each of its flags at most once by its full name, as --flag value (a value
    not starting with -) or --flag=value, with --json and store_true flags
    bare and every required flag given. None for anything else, which argparse
    then parses, so help, usage and every error still come from argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    row = dict((_JSON, *arguments))
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        options = row.get(flag)
        if options is None or flag in given:
            return None
        if "action" in options:  # store_true, which takes no value
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, "-")  # a missing value declines too
            if value.startswith("-"):
                return None
        if "type" in options:
            try:
                value = options["type"](value)
            except ValueError:
                return None
        given[flag] = value
    values = {"command": argv[0], "func": func}
    for flag, options in row.items():
        if flag not in given and options.get("required"):
            return None
        values[flag[2:].replace("-", "_")] = given.get(
            flag, options.get("default", False if "action" in options
                              else None))
    return argparse.Namespace(**values)


@contextlib.contextmanager
def _any_int_digits():
    """Lift the interpreter's limit on int-to-decimal conversion (4,300
    digits by default) for the duration, so answers of any length print.
    Interpreters without the limit (before 3.10.7) have no setter."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    argv = _bind_negative_weights(sys.argv[1:] if argv is None else argv)
    # parsed under the limit, so huge integer flags are still refused;
    # argparse reads whatever the plain path declines
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    with _any_int_digits():
        try:
            if "weights" in vars(args):
                args.weights = _parse_weights(args.weights)
            lines, fields = args.func(args)
        except ValueError as exc:
            print(f"pstiefel: error: {exc}", file=sys.stderr)
            return 1
        except (MemoryError, OverflowError) as exc:
            # a size this machine cannot hold, such as --truncation 10**19
            print(f"pstiefel: error: input too large ({type(exc).__name__}"
                  f"{': ' if str(exc) else ''}{exc})", file=sys.stderr)
            return 1
        except InvariantViolation as exc:
            print(f"pstiefel: internal invariant violation: {exc}",
                  file=sys.stderr)
            return 2
        try:
            if args.json:
                # the request, every flag given or defaulted but --json
                params = {key: value for key, value in vars(args).items()
                          if value is not None
                          and key not in ("command", "func", "json")}
                print(_render({"command": args.command, "params": params,
                               "certificates": [], "diagnostics": [],
                               "claim_checks": [], **fields}))
            else:
                for line in lines:
                    print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            # stdout closed early: fd 1 to devnull so the exit flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    # only verify reports a verdict; a failed suite exits 2
    if fields["result"].get("passed") is False:
        failure = next(f for suite in fields["result"]["suites"]
                       for f in suite["failures"])
        print(f"verification failed: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
