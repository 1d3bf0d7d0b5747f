import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pstiefel.weights as weights
from pstiefel import cli, costs
from pstiefel.cli import REPORT_SCHEMA, main
from pstiefel.geometry import CERTIFICATE_BASIS, Certificate

from bounds import ROWS, run


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    return rc, doc, out


def assert_numbers_are_strings(node):
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    assert not isinstance(node, (int, float)), f"raw number leaked: {node!r}"
    if isinstance(node, dict):
        for v in node.values():
            assert_numbers_are_strings(v)
    else:
        for v in node:
            assert_numbers_are_strings(v)


class TestCohomologyCommand:
    def test_json_pinned_case(self, capsys):
        rc, doc, _ = run_json(
            capsys,
            ["cohomology", "--n", "4", "--k", "2", "--weights", "1,1",
             "--prime", "3"])
        assert rc == 0
        assert doc["command"] == "cohomology"
        assert doc["result"]["nilpotency_order"] == "3"
        assert doc["result"]["relation"] == "x^3"
        assert doc["result"]["exterior_degrees"] == ["7"]
        assert doc["result"]["invariants"]["passed"] is True
        assert_numbers_are_strings(doc)

    def test_mod2_route(self, capsys):
        rc = main(["cohomology", "--n", "4", "--k", "2", "--weights", "1,2",
                   "--prime", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x^3" in out

    def test_mod2_wrong_k_is_invalid_input(self, capsys):
        rc = main(["cohomology", "--n", "4", "--k", "3", "--weights", "1,1,2",
                   "--prime", "2"])
        assert rc == 1
        assert "two-frame" in capsys.readouterr().err

    def test_non_primitive_weights_exit_1(self, capsys):
        rc = main(["cohomology", "--n", "4", "--k", "2", "--weights", "2,4",
                   "--prime", "3"])
        assert rc == 1
        assert "not primitive" in capsys.readouterr().err


class TestSpanCommand:
    def test_text_pinned_line(self, capsys):
        rc = main(["span", "--n", "7", "--weights", "1,2", "--prime", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span <= 19" in out
        assert "p=7 i=2 w=1" in out

    def test_json_certificate_shape(self, capsys):
        rc, doc, _ = run_json(
            capsys, ["span", "--n", "7", "--weights", "1,2", "--prime", "7"])
        assert rc == 0
        cert = doc["certificates"][0]
        assert cert == {"prime": "7", "index": "2", "witness": "1",
                        "bound": "19", "basis": "direct-series"}

    def test_sweep_default_bound_is_4n(self, capsys):
        rc, doc, _ = run_json(capsys, ["span", "--n", "7", "--weights", "1,2"])
        assert rc == 0
        assert doc["params"]["prime_bound"] == "28"
        assert doc["result"]["best_prime"] == "5"
        assert doc["result"]["span_bound"] == "19"

    def test_no_certificate_is_still_success(self, capsys):
        rc, doc, _ = run_json(
            capsys, ["span", "--n", "3", "--weights", "1,-1"])
        assert rc == 0
        assert doc["result"]["span_bound"] is None
        assert doc["certificates"] == []
        assert doc["diagnostics"]


class TestImmersionCommand:
    def test_json_includes_claimed_dimension(self, capsys):
        rc, doc, _ = run_json(
            capsys,
            ["immersion", "--n", "8", "--weights", "1,8", "--prime", "7"])
        assert rc == 0
        cert = doc["certificates"][0]
        assert cert["bound"] == "32"
        assert cert["claimed"] == "33"
        assert doc["result"]["certified_non_immersion_dim"] == "32"

    def test_sweep_best(self, capsys):
        rc, doc, _ = run_json(
            capsys,
            ["immersion", "--n", "8", "--weights", "1,8",
             "--prime-bound", "50"])
        assert rc == 0
        assert doc["result"]["best_prime"] == "3"
        assert doc["result"]["certified_non_immersion_dim"] == "32"


class TestOtherCommands:
    def test_chern(self, capsys):
        rc, doc, _ = run_json(capsys, ["chern", "--weights", "1,-1", "--n", "5"])
        assert rc == 0
        assert doc["result"]["complement"]["coefficients"] == \
            ["1", "0", "1", "0", "1", "0"]

    def test_chern_needs_some_truncation(self, capsys):
        rc = main(["chern", "--weights", "1,2"])
        assert rc == 1

    def test_pontrjagin(self, capsys):
        rc, doc, _ = run_json(
            capsys,
            ["pontrjagin", "--n", "8", "--weights", "1,8",
             "--modulus", "7", "--truncation", "8"])
        assert rc == 0
        assert doc["result"]["normal"]["coefficients"] == \
            ["1", "0", "2", "0", "3", "0", "4", "0"]

    def test_complement(self, capsys):
        rc, doc, _ = run_json(
            capsys, ["complement", "--n", "4", "--weights", "1,-1"])
        assert rc == 0
        assert doc["result"]["lower_bound"] == "4"
        assert doc["result"]["reason"]["kind"] == "chern-nonzero"

    def test_lens(self, capsys):
        rc, doc, _ = run_json(
            capsys, ["lens", "--d", "3", "--m", "7", "--weights", "1,2"])
        assert rc == 0
        assert doc["result"]["lower_bound"] == "3"
        assert doc["result"]["criterion"]["satisfied"] is False
        assert_numbers_are_strings(doc)

    def test_lens_weight_count(self, capsys):
        rc = main(["lens", "--d", "3", "--m", "7", "--weights", "1,2,3"])
        assert rc == 1
        assert "exactly two" in capsys.readouterr().err

    def test_check_claims(self, capsys):
        rc, doc, _ = run_json(
            capsys, ["check-claims", "--n", "21", "--weights", "2,1"])
        assert rc == 0
        assert doc["result"]["span_verdicts"] == [
            "AGREE", "NOT_APPLICABLE", "DISCREPANT", "DISCREPANT"]
        assert doc["result"]["immersion_vacuous"] is True
        part2 = doc["claim_checks"][3]
        assert part2["verdict"] == "DISCREPANT"
        assert part2["index"] == "10"
        assert part2["coefficient"] == "0"

    def test_check_claims_immersion_certified_field(self, capsys):
        rc, doc, _ = run_json(
            capsys, ["check-claims", "--n", "8", "--weights", "1,8"])
        assert rc == 0
        imm = [c for c in doc["claim_checks"] if c["kind"] == "immersion"]
        assert imm[0]["claimed"] == "31"
        assert imm[0]["certified"] == "30"


SUBCOMMANDS = ("{cohomology,chern,pontrjagin,span,immersion,complement,lens,"
               "check-claims,verify}")


class TestErrorPaths:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1

    def test_stray_argument_exits_1_with_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["span", "--n", "7", "--weights", "1,2", "extra"])
        assert exc.value.code == 1
        assert SUBCOMMANDS in capsys.readouterr().err

    @pytest.mark.parametrize("argv,names", [
        (["--help"], SUBCOMMANDS), (["span", "--help"], "--prime-bound")])
    def test_help_exits_0_at_both_levels(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert names in capsys.readouterr().out

    def test_a_flag_that_takes_no_value_refuses_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quick=1"])
        assert exc.value.code == 1
        assert "ignored explicit argument '1'" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["span", "--n", "7"])
        assert exc.value.code == 1

    def test_malformed_weights_exit_1(self, capsys):
        rc = main(["span", "--n", "7", "--weights", "1,two"])
        assert rc == 1
        assert "comma-separated integers" in capsys.readouterr().err

    def test_invariant_violation_exits_2(self, capsys, monkeypatch):
        import pstiefel.cohomology as cohomology
        monkeypatch.setattr(cohomology, "homogeneous_sum",
                            lambda ell, r, modulus=None: 0)
        rc = main(["cohomology", "--n", "4", "--k", "2", "--weights", "1,1",
                   "--prime", "3"])
        assert rc == 2
        assert "invariant violation" in capsys.readouterr().err


# flags after a subcommand's name: help, its absence, the error paths of
# argparse, an abbreviation and the two-token negative weights
PARSER_VARIANTS = (["-h"], [], ["--bogus"], ["--n", "x"], ["--wei", "1,2"],
                   ["--weights", "-3,4"], ["extra"])


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_argparse_gets_the_full_parser_for_what_the_plain_path_declines(
        monkeypatch):
    # verify with no flags would run every suite; only the parsers count
    monkeypatch.setattr(cli.verify_mod, "run_all", lambda quick: [])
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(build()) or built[-1])
    # the plain path reads two variants: verify alone, and chern, whose
    # one required flag is --weights; every other builds one parser, of
    # all nine subcommands
    for name in cli.COMMANDS:
        for flags in PARSER_VARIANTS:
            argv = [name, *flags]
            built.clear()
            with contextlib.suppress(SystemExit):
                main(argv)
            if " ".join(argv) in {"verify", "chern --weights -3,4"}:
                assert built == [], argv
            else:
                assert [_subcommands(p) for p in built] == [
                    list(cli.COMMANDS)], argv


# One plain argv per command; span also with negative weights in both
# forms, and verify with the flag it reads
PLAIN_ARGV = [
    ["cohomology", "--n", "6", "--k", "2", "--weights", "1,2", "--prime", "3"],
    ["chern", "--weights=1,-2,3", "--truncation", "5", "--json"],
    ["pontrjagin", "--n", "7", "--weights", "1,2", "--modulus=5"],
    ["span", "--n=7", "--weights=-3,4", "--prime", "7", "--json"],
    ["span", "--n", "7", "--weights", "-3,4", "--prime", "7", "--json"],
    ["immersion", "--weights", "1,2", "--n", "9", "--prime-bound=40"],
    ["complement", "--n", "6", "--weights", "1,2,3", "--json"],
    ["lens", "--d", "4", "--m", "6", "--weights", "1,3"],
    ["check-claims", "--n", "6", "--weights", "1,2", "--json"],
    ["verify", "--quick", "--json"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGV, ids=" ".join)
def test_plain_argv_needs_no_parser(capsys, monkeypatch, argv):
    # the bytes argparse's namespace gives, with no parser built at all
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_parse_plain", lambda argv: None)
        assert main(list(argv)) == 0
        want = capsys.readouterr()

    def no_parser():
        raise AssertionError(f"parser built for {argv}")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert main(list(argv)) == 0
    assert capsys.readouterr() == want


def test_every_option_is_of_a_kind_the_plain_path_reads():
    # _parse_plain knows these option kinds and no other; a new kind must
    # fail here rather than parse differently from argparse
    for _, _, arguments in cli.COMMANDS.values():
        for flag, options in (cli._JSON, *arguments):
            assert flag.startswith("--") and "=" not in flag
            assert set(options) <= {"type", "required", "default", "help",
                                    "action"}
            assert options.get("type", int) is int
            assert options.get("action", "store_true") == "store_true"
            # argparse would convert a string default by its type
            assert not isinstance(options.get("default"), str)


_ALL_FLAGS = sorted({flag for _, _, arguments in cli.COMMANDS.values()
                     for flag, _ in (cli._JSON, *arguments)})
_ABBREVIATIONS = sorted({flag[:i] for flag in _ALL_FLAGS
                         for i in range(3, len(flag))} - set(_ALL_FLAGS))
_VALUES = ["7", "3", "0", "1,2", "1,8", "-3", "-3,4", "", "x", "+5",
           "1_000", " 5", "5" * 5000]
_STRAYS = ["-h", "--help", "--", "extra", "span", "-n", "--bogus"]


def _one_in(draw, n):
    return draw(st.sampled_from(range(n))) == n - 1


def _groups(draw, flag, options):
    """The tokens of one flag: bare, --flag=value or --flag value, with a
    value that mostly fits."""
    fits = ["7", "3"] if "type" in options else ["1,2", "7"]
    value = draw(st.sampled_from(_VALUES if _one_in(draw, 8) else fits))
    form = "bare" if ("action" in options) != _one_in(draw, 10) else \
        draw(st.sampled_from(["=", "two"]))
    return {"bare": [flag], "=": [f"{flag}={value}"],
            "two": [flag, value]}[form]


@st.composite
def _argvs(draw):
    """A command's argv, mostly plain: its own flags, each required one
    nearly always, in any order and form, sometimes abbreviated or given
    twice, and sometimes a stray flag or token from any command."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus"]))
    row = (cli._JSON, *cli.COMMANDS.get(command, (0, 0, ()))[2])
    groups = []
    for flag, options in row:
        if _one_in(draw, 12 if options.get("required") else 2):
            continue
        if _one_in(draw, 12):
            flag = flag[:draw(st.sampled_from(range(3, len(flag) + 1)))]
        groups.append(_groups(draw, flag, options))
        if _one_in(draw, 20):
            groups.append(groups[-1])
    while _one_in(draw, 4):
        if draw(st.booleans()):
            groups.append([draw(st.sampled_from(_STRAYS))])
        else:
            flag = draw(st.sampled_from(_ALL_FLAGS + _ABBREVIATIONS))
            groups.append(_groups(draw, flag, {}))
    groups = draw(st.permutations(groups))
    return [command] + [token for g in groups for token in g]


def _argparse_namespace(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(argv=_argvs())
@example(argv=["verify", "--quick=7"])
@example(argv=["verify", "--quick", "--json"])
@example(argv=["span", "--n=7", "--weights", "-3,4", "--prime", "7"])
@example(argv=["span", "--n", "7", "--wei=-3,4", "--prime", "7"])
@example(argv=["pontrjagin", "--n", "5", "--weights", "1,2"])
def test_plain_path_answers_as_argparse(argv):
    # as main parses it, and as given, where --weights -3,4 stays two tokens
    for tokens in (cli._bind_negative_weights(argv), argv):
        plain = cli._parse_plain(list(tokens))
        want = _argparse_namespace(list(tokens))
        if plain is not None:
            assert vars(plain) == want


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["span", "--n", "-3", "--weights", "1,2"],
        ["immersion", "--n", "0", "--weights", "1,2"],
        ["span", "--n", "7", "--weights", "1,2", "--prime-bound", "-5"],
        ["immersion", "--n", "7", "--weights", "1,2",
         "--prime-bound", "100000000000"],
        ["span", "--n", "5", "--weights", "1,2",
         "--prime", "3317044064679887385961983"],
    ])
    def test_exits_1_with_a_message(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pstiefel: error: ")

    @pytest.mark.parametrize("n,weights", [("0", "1,2"), ("1", "1,1"),
                                           ("1", "1,2")])
    def test_claim_checks_need_n_at_least_two(self, capsys, n, weights):
        assert main(["check-claims", "--n", n, "--weights", weights]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n >= 2" in captured.err

    def test_claim_checks_refuse_large_n_at_once(self, capsys, monkeypatch):
        import pstiefel.geometry as geometry
        argv = ["check-claims", "--n", "1000000000000000003",
                "--weights", "1,2"]
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n <= 1000000, got 1000000000000000003" in captured.err

        # the bound is checked before n is factored
        def no_factoring(n):
            raise AssertionError(f"factoring {n}")

        monkeypatch.setattr(geometry, "_odd_prime_divisors", no_factoring)
        assert main(argv) == 1
        assert "n <= 1000000, got" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["span", "immersion"])
    def test_prime_with_prime_bound_exits_1(self, capsys, kind):
        # a single prime and a sweep bound are two different requests
        assert main([kind, "--n", "7", "--weights", "1,2", "--prime", "3",
                     "--prime-bound", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--prime-bound" in captured.err

    def test_truncation_with_n_exits_1(self, capsys):
        # chern's two ways of giving the truncation, like --prime and
        # --prime-bound, are one or the other
        assert main(["chern", "--weights", "1,2", "--truncation", "3",
                     "--n", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "give --truncation or --n, not both" in captured.err

    def test_large_prime_is_decided(self, capsys):
        rc = main(["span", "--n", "5", "--weights", "1,2",
                   "--prime", "1000000000000000003"])
        assert rc == 0
        assert "certificate" in capsys.readouterr().out

    # an abbreviation of --weights goes to argparse, bound to its value
    # like the full name
    @pytest.mark.parametrize("argv,flag,weights", [
        (["span", "--n", "5"], "--weights", "-3,4"),
        (["lens", "--d", "3", "--m", "7"], "--weights", "-1,2"),
        (["span", "--n", "5", "--prime", "3"], "--wei", "-3,4"),
        (["span", "--n", "5", "--prime", "3"], "--weight", "-3,4"),
        (["immersion", "--n", "9"], "--weight", "-3,4"),
        (["lens", "--d", "3", "--m", "7"], "--w", "-1,2"),
    ])
    def test_negative_weights_as_separate_token(self, capsys, argv, flag,
                                                weights):
        assert main(argv + [f"--weights={weights}", "--json"]) == 0
        joined = capsys.readouterr()
        assert main(argv + [flag, weights, "--json"]) == 0
        assert capsys.readouterr() == joined


def decimal(value):
    # str() of an answer longer than the interpreter's digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="no limit on int-to-str conversion in force")
class TestLongAnswers:
    """Answers past the interpreter's int-to-str digit limit print in full,
    the limit is in force again when main returns, and integer flags past
    it are still refused."""

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_complement(self, capsys, flags):
        limit = sys.get_int_max_str_digits()
        assert main(["complement", "--n", "10000", "--weights=1,-2,3",
                     *flags]) == 0
        assert sys.get_int_max_str_digits() == limit
        h = weights.homogeneous_sum(weights.WeightTuple((1, -2, 3)), 10000)
        want = decimal((-1) ** 10000 * h)
        assert len(want) == 4772
        out = capsys.readouterr().out
        if flags:
            assert json.loads(out)["result"]["reason"]["value"] == want
        else:
            assert want in out

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_lens(self, capsys, flags):
        limit = sys.get_int_max_str_digits()
        assert main(["lens", "--d", "20000", "--m", "7", "--weights", "1,2",
                     *flags]) == 0
        assert sys.get_int_max_str_digits() == limit
        want = decimal(2 ** 20001 - 1)  # h_20000(1, 2)
        out = capsys.readouterr().out
        if flags:
            assert json.loads(out)["result"]["criterion"]["value"] == want
        # the note names h_d's parity, not its digits
        assert "h_20000(1,2) is odd" in out
        assert (want in out) == bool(flags)

    def test_weights_past_the_limit_are_read(self, capsys):
        w = 7 * 10 ** 5000 + 3  # 5,001 digits
        text = decimal(w)
        assert main(["chern", "--weights", f"{text},1", "--truncation", "3",
                     "--json"]) == 0
        total = json.loads(capsys.readouterr().out)["result"]["total"]
        assert total["coefficients"] == ["1", decimal(w + 1), text]

    def test_integer_flags_past_the_limit_are_refused(self, capsys):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(SystemExit) as exc:
            main(["complement", "--n", digits, "--weights", "1,2"])
        assert exc.value.code == 1
        assert "invalid int value" in capsys.readouterr().err


def test_interpreters_without_the_digit_limit_answer_alike(capsys,
                                                           monkeypatch):
    # before 3.10.7 there is no limit, and neither its getter nor setter
    argv = ["chern", "--weights", "1,-2,3", "--truncation", "6", "--json"]
    assert main(list(argv)) == 0
    want = capsys.readouterr()
    for name in ("set_int_max_str_digits", "get_int_max_str_digits"):
        monkeypatch.delattr(sys, name, raising=False)
    assert main(list(argv)) == 0
    assert capsys.readouterr() == want


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        rc = main(["verify", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 5

    def test_injected_fault_exits_2(self, capsys, monkeypatch):
        def broken(ell, r):
            hs = [1] + [0] * r
            for w in ell.weights:
                for i in range(1, r + 1):
                    hs[i] -= w * hs[i - 1]
            return hs[r]

        monkeypatch.setattr(weights, "homogeneous_sum", broken)
        rc = main(["verify", "--quick"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "verification failed" in captured.err
        assert "oracle says" in captured.err

    def test_json_report(self, capsys):
        rc, doc, _ = run_json(capsys, ["verify", "--quick"])
        assert rc == 0
        assert doc["result"]["passed"] is True
        names = [s["name"] for s in doc["result"]["suites"]]
        assert "nilpotency-vs-lucas" in names


def test_cohomology_computes_the_poincare_polynomial_once(capsys,
                                                           monkeypatch):
    import pstiefel.cohomology as cohomology
    calls = []
    original = cohomology.poincare_polynomial
    monkeypatch.setattr(cohomology, "poincare_polynomial",
                        lambda pres: calls.append(pres) or original(pres))
    assert main(["cohomology", "--n", "6", "--k", "3", "--weights", "1,1,2",
                 "--prime", "3", "--json"]) == 0
    assert len(calls) == 1


# h_3(1, 2) = 15: 0 mod 5, where the rank bound reads the criterion too,
# and 1 mod 7, where it does not
@pytest.mark.parametrize("m", ["5", "7"])
def test_lens_computes_the_criterion_once(capsys, monkeypatch, m):
    import pstiefel.geometry as geometry
    calls = []
    original = geometry.lens_sq2_criterion

    def counted(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(geometry, "lens_sq2_criterion", counted)
    assert main(["lens", "--d", "3", "--m", m, "--weights", "1,2",
                 "--json"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("m", ["5", "7"])
def test_lens_computes_h_d_once(capsys, monkeypatch, m):
    import pstiefel.geometry as geometry
    calls = []
    original = geometry.homogeneous_sum
    monkeypatch.setattr(geometry, "homogeneous_sum",
                        lambda *args: calls.append(args) or original(*args))
    assert main(["lens", "--d", "3", "--m", m, "--weights", "1,2",
                 "--json"]) == 0
    assert calls == [(weights.WeightTuple((1, 2)), 3)]


def test_chern_builds_the_total_series_once_and_inverts_none(capsys,
                                                             monkeypatch):
    from pstiefel.series import TruncatedSeries
    calls = []
    original = weights.total_chern

    def counted(*args):
        calls.append(args)
        return original(*args)

    def no_inverse(self):
        raise AssertionError("inverted a series")

    # complement_chern reads the table of sums, not the total series
    monkeypatch.setattr(cli, "total_chern", counted)
    monkeypatch.setattr(weights, "total_chern", counted)
    monkeypatch.setattr(TruncatedSeries, "inv", no_inverse)
    assert main(["chern", "--weights", "1,2,3", "--truncation", "40",
                 "--json"]) == 0
    assert calls == [(weights.WeightTuple((1, 2, 3)), 40)]


class TestDeterminism:
    def test_json_output_is_bit_identical(self, capsys):
        argv = ["check-claims", "--n", "21", "--weights", "2,1", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_sweep_json_is_bit_identical(self, capsys):
        argv = ["immersion", "--n", "8", "--weights", "1,8", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_keys_are_sorted(self, capsys):
        for argv in (
                ["span", "--n", "7", "--weights", "1,2", "--prime", "7"],
                # booleans and lists of dicts
                ["verify", "--quick"],
                # long lists of ints
                ["cohomology", "--n", "30", "--k", "15",
                 "--weights=" + ",".join(["1"] * 14 + ["2"]), "--prime", "3"]):
            _, _, out = run_json(capsys, argv)
            doc = json.loads(out)
            assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def certificate_payload(cert):
    """The dict of a certificate's JSON object, keyed by its fields and
    basis, without claimed for span: the oracle of the templates."""
    payload = dict(zip(cli.CERTIFICATE_KEYS, cert), basis=CERTIFICATE_BASIS)
    if cert.claimed is None:
        del payload["claimed"]
    return payload


def stringify(obj):
    """Numbers to decimal strings, recursively; booleans stay booleans and
    certificates become their payload dicts."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, Certificate):
        return stringify(certificate_payload(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {k: stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [stringify(v) for v in obj]
    return obj


def two_pass(obj):
    """The renderer's oracle: a copy with decimal strings for ints, then
    the standard library's encoder."""
    return json.dumps(stringify(obj), indent=2, sort_keys=True)


# strings that need escaping: quotes, backslashes, control characters,
# non-ASCII, astral and lone surrogate code points
TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | \
    st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é", "\U0001d11e", "\ud800"])
INTS = st.integers() | st.integers(-10 ** 5000, 10 ** 5000)
# span certificates (claimed None) and immersion ones (claimed = bound + 1);
# a nonzero witness by map, since a filter's retry event takes the repr
# of INTS, whose 5,001-digit bound no int-to-str conversion allows
CERTIFICATES = st.builds(
    lambda prime, index, witness, bound, immersion: Certificate(
        prime, index, witness, bound, bound + 1 if immersion else None),
    st.integers(), st.integers(min_value=1), INTS.map(lambda w: w or 1), INTS,
    st.booleans())
LEAVES = (TEXT | INTS | st.booleans() | st.none() | CERTIFICATES
          | st.lists(INTS, max_size=6)
          | st.lists(INTS | st.booleans(), max_size=6)
          | st.lists(CERTIFICATES, min_size=1, max_size=6)
          | st.lists(CERTIFICATES, min_size=1, max_size=6).map(tuple))
REPORTS = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=20)


def chunk_edge(length):
    """Ints of 1 to 397 digits and both signs, for int lists that end on
    either side of a multiple of the renderer's chunk of 1,024."""
    return [(-1) ** i * 7 ** (i % 470) for i in range(length)]


def render_peak(report):
    """The rendered report and the renderer's peak traced memory."""
    tracemalloc.start()
    try:
        return cli._render(report), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def any_int_digits():
    # Hypothesis prints each example by its repr, and a record's repr
    # writes its ints in decimal: the limit is lifted for the whole test,
    # so a failure reports the mismatch, and restored afterwards
    with cli._any_int_digits():
        yield


class TestRender:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(report=REPORTS)
    @example(report={"b": [1, True], "a": {}, "c": [], "d": (-7, None)})
    @example(report=[10 ** 4999, -(10 ** 4999)])
    @example(report={"a": chunk_edge(1023), "b": tuple(chunk_edge(1024))})
    @example(report=[chunk_edge(1025), [chunk_edge(2049)]])
    # a long list that ends in a bool still renders element by element
    @example(report={"c": chunk_edge(2048) + [True]})
    # a sweep's list of both shapes, and a record nested deeper
    @example(report={"certificates": [Certificate(3, 1, -2, 21),
                                      Certificate(7, 2, 6, 24, 25)],
                     "d": [[Certificate(5, 10 ** 400, 1, -(10 ** 4999))]]})
    # a certificate list two levels deep, a list of one certificate, and
    # a list that mixes a certificate with a dict and an int, which still
    # renders element by element
    @example(report={"a": {"b": (Certificate(3, 1, -2, 21),
                                 Certificate(7, 2, 6, 24, 25))}})
    @example(report=[Certificate(7, 2, 6, 24, 25)])
    @example(report=[Certificate(3, 1, -2, 21), {"a": None}, 5])
    def test_matches_the_two_pass_encoder(self, any_int_digits, report):
        assert cli._render(report) == two_pass(report)

    @pytest.mark.parametrize("report", [
        1.5, {"a": [1, 2.5]}, object(), [object()], {1: "1"}])
    def test_other_types_raise(self, report):
        with pytest.raises(TypeError):
            cli._render(report)

    @pytest.mark.parametrize("claimed,shapes", [
        (lambda i, p: None if i % 2 else p + 1, 2),
        (lambda i, p: None, 1),
        (lambda i, p: p + 1, 1)], ids=["mixed", "span", "immersion"])
    def test_a_certificate_list_indents_each_template_once(
            self, monkeypatch, claimed, shapes):
        indented = []

        class Template(str):
            def replace(self, *args):
                indented.append(str(self))
                return str.replace(self, *args)

        monkeypatch.setattr(cli, "CERTIFICATE_TEMPLATES", {
            span: (Template(template), fields) for span, (template, fields)
            in cli.CERTIFICATE_TEMPLATES.items()})
        report = {"certificates": [
            Certificate(p, 1, 1, p, claimed(i, p))
            for i, p in enumerate(range(3, 103, 2))]}
        assert len(report["certificates"]) == 50
        assert cli._render(report) == two_pass(report)
        # one call per shape the list holds, none for a shape it lacks
        assert len(indented) == len(set(indented)) == shapes
        # and one for a list of one certificate
        indented.clear()
        assert cli._render(report["certificates"][1:2]) == two_pass(
            report["certificates"][1:2])
        assert len(indented) == 1

    def test_peak_memory_is_about_twice_the_report(self):
        report = {"result": {"coefficients": list(range(100_000)),
                             "truncation": 100_000}}
        out, peak = render_peak(report)
        assert peak <= 2.2 * len(out)

    def test_sweep_report_peaks_under_three_times_its_length(
            self, monkeypatch, capsys):
        # the default sweep, 195 certificates of about 130 bytes each, as
        # main hands it to the renderer
        reports, render = [], cli._render

        def capture(report):
            reports.append(report)
            return render(report)

        monkeypatch.setattr(cli, "_render", capture)
        assert cli.main(["span", "--n", "300", "--weights", "1,2",
                         "--json"]) == 0
        capsys.readouterr()
        monkeypatch.undo()
        [report] = reports
        out, peak = render_peak(report)
        assert len(report["certificates"]) > 100
        assert peak <= 2.8 * len(out)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pstiefel", "span", "--n", "7",
         "--weights", "1,2", "--prime", "7"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "span <= 19" in proc.stdout
    assert proc.stderr == ""


# the first list the build allocates has ceil(T/2) entries, so T = 2 *
# 10^19 passes sys.maxsize, where a list size overflows, and T = 2 * 10^18
# stays below it, where it runs out of memory
@pytest.mark.parametrize("argv,error", [
    ("pontrjagin --n 5 --weights 1,2 --truncation 20000000000000000000",
     "OverflowError"),
    ("pontrjagin --n 5 --weights 1,2 --truncation 2000000000000000000",
     "MemoryError"),
])
def test_sizes_past_memory_exit_1_without_a_traceback(argv, error):
    # with the series check lifted, these sizes reach the interpreter's
    # own size errors; with it, they are refused first (see below)
    lifted = ("import sys, pstiefel.costs as c; "
              "c.require_small_series = lambda n, ell, T: None; "
              "from pstiefel.cli import main; sys.exit(main())")
    proc = subprocess.run([sys.executable, "-c", lifted, *argv.split()],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        f"pstiefel: error: input too large ({error}")
    assert "Traceback" not in proc.stderr


def rows(test):
    # the rows of tests/bounds.py that test reads, each under its own id
    return [pytest.param(row, id=row.id) for row in ROWS if row.test == test]


@pytest.mark.parametrize("row", rows("refused"))
def test_oversized_inputs_are_refused(row):
    run(row)


@pytest.mark.parametrize("row", rows("library"))
def test_library_calls_past_a_cap_raise_at_once(row):
    run(row)


def test_readme_states_every_cap():
    # each limit and each set of cap weights, as the README's table
    # writes it: name, then value; and every row of the bounds table in
    # the README's own words
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = [name for name in vars(costs)
             if name.startswith("MAX_") or name.endswith("CAP_WEIGHTS")]
    assert len(names) == 9
    for name in names:
        value = getattr(costs, name)
        text = (f"{value:,}" if isinstance(value, int)
                else ",".join(map(str, value)))
        assert f"| `{name}` | {text} |" in readme, name
    words = " ".join(readme.split())
    for row in ROWS:
        assert row.readme in words, row.id


def test_the_bounds_table_has_a_row_each_side_of_every_limit():
    assert len({row.id for row in ROWS}) == len(ROWS)
    assert {row.test for row in ROWS} == {
        "refused", "library", "complement", "lens", "packed", "bound", "ci"}
    assert [row.id for row in ROWS if row.seconds >= row.timeout] == []
    # one row answered at each limit's reference request, one refused
    # just past it
    for name in (name for name in vars(costs) if name.startswith("MAX_")):
        codes = sorted(row.code for row in ROWS if row.cap == name)
        assert codes == [0, 1], name


@pytest.mark.parametrize("row", rows("bound"))
def test_stated_bounds_hold(row):
    run(row)


def test_caps_are_checked_before_any_table_or_series(capsys, monkeypatch):
    import pstiefel.cohomology as cohomology
    import pstiefel.geometry as geometry
    from pstiefel.series import TruncatedSeries

    def no_work(*args):
        raise AssertionError(f"built for {args!r}")

    # a sweep's prime bound refuses before its sieve, but after its series,
    # whose build checks the series cap first
    refusals = [row for row in ROWS if row.test == "refused"]
    bound_rows = [row for row in refusals
                  if row.expect.startswith("prime bound")]
    assert bound_rows
    monkeypatch.setattr(geometry, "primes_upto", no_work)
    for row in bound_rows:
        assert main(row.request.split()) == 1, row.id

    monkeypatch.setattr(TruncatedSeries, "int_pow", no_work)
    monkeypatch.setattr(geometry, "TruncatedSeries", no_work)
    monkeypatch.setattr(geometry, "nilpotency_order", no_work)
    monkeypatch.setattr(geometry, "require_prime", no_work)

    # the kernels behind each engine entry point, which checks its caps
    # before it calls any of them
    monkeypatch.setattr(geometry, "homogeneous_top", no_work)
    monkeypatch.setattr(geometry, "homogeneous_sum", no_work)
    monkeypatch.setattr(weights, "TruncatedSeries", no_work)
    monkeypatch.setattr(cohomology, "require_prime", no_work)
    monkeypatch.setattr(cohomology, "homogeneous_sum", no_work)
    monkeypatch.setattr(cohomology, "nilpotency_order", no_work)
    # every other refusal of the bounds table
    for row in refusals:
        if row not in bound_rows:
            assert main(row.request.split()) == 1, row.id
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("pstiefel: error: ") == len(refusals)


@settings(max_examples=300, deadline=None)
@given(small=st.integers(0, 40), large=st.integers(0, 2 ** 44))
@example(small=0, large=0)
@example(small=39, large=2 ** 44)
def test_bits_is_within_a_quarter_bit_wherever_it_answers(small, large):
    # log2 C(L + s, s) from lgamma, with either side as the degree, against
    # the exact binomial: the guard at 2^44 terms keeps the float's loss
    # under 0.25 bits (at most about 0.21 below 2^44, 20 near 2^50)
    large = min(large, 2 ** 44 - small - 1)
    exact = math.log2(math.comb(large + small, small))
    assert abs(costs.bits(small + 1, large, 1) - exact) <= 0.25
    assert abs(costs.bits(large + 1, small, 1) - exact) <= 0.25


def test_bits_refuses_past_2_to_the_44_terms():
    costs.bits(2 ** 44 - 1, 1, 1)
    for count, r in ((2 ** 44, 1), (1, 2 ** 44), (2, 10 ** 400)):
        with pytest.raises(OverflowError):
            costs.bits(count, r, 1)


@pytest.mark.parametrize("ws", [
    (1, 2, 3), (3, -2, 1), (-1, -2, -3), (1, 2), (2, 3), (1, 1, 1), (1, -1)])
def test_weight_caps_accept_every_size_the_flag_caps_accept(ws):
    # checked at the largest r each command accepts; the estimate grows
    # with r, so every smaller size passes too
    ell = weights.WeightTuple(ws)
    costs.require_small_sums("complement", ell, costs.MAX_COMPLEMENT_N)
    costs.require_small_sums("chern", ell, costs.MAX_CHERN_TRUNCATION - 1)
    if len(ws) == 2 and max(map(abs, ws)) <= 2:
        costs.require_small_sums("lens", ell, costs.MAX_LENS_D)


@pytest.mark.parametrize("row", rows("complement"))
def test_complement_answers_the_largest_n_its_weights_allow(row):
    run(row)


def test_lens_answers_the_largest_d_its_weights_allow():
    [row] = rows("lens")
    run(row.values[0])


@pytest.mark.parametrize("row", rows("packed"))
def test_k_at_least_3_is_bounded_by_the_packed_size_alone(row):
    run(row)


def test_k_at_least_3_library_call_with_large_weights_answers():
    from pstiefel import (StiefelParams, check_presentation_invariants,
                          presentation_odd)

    params = StiefelParams(50_000, 3, weights.WeightTuple((1, 2, 1000)))
    pres = presentation_odd(params, 3)
    assert pres == (3, 49_998, (99_997, 99_999))
    assert check_presentation_invariants(pres, params).passed


def test_closed_stdout_exits_1_without_a_traceback():
    # about 360 KB of JSON, far more than a pipe buffer holds, into a
    # pipe whose reader is gone before the first byte
    weights = ",".join(["1"] * 69 + ["2"])
    with subprocess.Popen(
            [sys.executable, "-m", "pstiefel", "cohomology", "--n", "140",
             "--k", "70", f"--weights={weights}", "--prime", "3", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    # no traceback, no "Exception ignored", nothing at all
    assert err == ""


@pytest.mark.parametrize("ws,n", [((1, 8), 3200), ((1, 8), 1600),
                                  ((1, 2), 4000), ((1, -1), 4000)])
def test_series_cap_admits_the_sizes_ci_runs(ws, n):
    # two rows of tests/bounds.py, and n = 4000 for small weights; the
    # estimate grows with n and the truncation, so smaller sizes pass too
    costs.require_small_series(n, weights.WeightTuple(ws), n)


@pytest.mark.parametrize("argv", [
    ["chern", "--weights", "1,2,3", "--truncation", "40"],
    ["pontrjagin", "--n", "40", "--weights", "1,8", "--modulus", "7"]])
def test_json_reports_format_no_series_text(capsys, monkeypatch, argv):
    from pstiefel.series import TruncatedSeries

    def no_text(self):
        raise AssertionError("text of a series built")

    monkeypatch.setattr(TruncatedSeries, "__repr__", no_text)
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]
