"""pstiefel benchmark: seeded CLI workloads driven in-process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

One client sends the workload's requests to ``pstiefel.cli.main(argv)``
one after another (a closed loop, one process, one thread). The whole
list runs MIN_PASSES times, then again while another pass still fits in
``--seconds``. Every request and every set-up is timed between two
probes of the machine's speed (speed.py) and counts in seconds at
reference speed; a request counts at its median over the passes. Every
answer is checked: exit code, the shape of ``cli.REPORT_SCHEMA``, an
independent recomputation (oracle.py), the recorded reference digest
when one exists for the seed (refs/), and byte-identical output on every
repeat.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones from a traced run (tracing.py).
The line above it summarises the run in words. Exit code 0 when every
answer is right, 1 when one is wrong, 2 when the program cannot be set
up (for instance when ``src/pstiefel`` is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import jsonschema

import oracle
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFS = HERE / "refs"
OUT = HERE / "out"

# Each request's latency is its median over the passes. A fixed least
# number of passes keeps the number of samples behind it alike from run
# to run.
MIN_PASSES = 4
# Set-ups timed after each end-to-end pass; setup_s is their median.
SETUPS_PER_PASS = 3
ANSWER_KEYS = ("command", "params", "result", "certificates", "claim_checks")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_s": "s",
                    "latency_tail_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def fresh_import():
    """Import pstiefel.cli from src/ anew, dropping any earlier import."""
    if not (SRC / "pstiefel" / "__init__.py").is_file():
        raise SetupError(f"no pstiefel package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in _imported():
        del sys.modules[name]
    cli = importlib.import_module("pstiefel.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"pstiefel imported from {cli.__file__}, not {SRC}")
    return cli


def _imported() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "pstiefel" or name.startswith("pstiefel.")}


def setup(workload: str, seed: int):
    """Import, parser construction and input generation, timed once.

    Returns the freshly imported cli module, the request list and the
    time taken, in seconds at reference speed.
    """
    before = speed.factor()
    start = perf_counter()
    cli = fresh_import()
    cli.build_parser()
    requests = workloads.generate(workload, seed)
    elapsed = perf_counter() - start
    return cli, requests, elapsed / ((before + speed.factor()) / 2)


def retime_setup(workload: str, seed: int) -> float:
    """Time one more set-up, then put back the modules in use."""
    in_use = _imported()
    elapsed = setup(workload, seed)[2]
    for name in _imported():
        del sys.modules[name]
    sys.modules.update(in_use)
    return elapsed


def inputs_digest(requests) -> str:
    text = json.dumps([[list(r.argv), r.expect_exit] for r in requests])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answer_digest(code: int, doc: dict | None) -> str:
    """Digest of an answer; diagnostics are left out on purpose."""
    payload = {"exit": code}
    if doc is not None:
        payload.update({key: doc.get(key) for key in ANSWER_KEYS})
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ref_path(workload: str, seed: int) -> Path:
    return REFS / f"{workload}-{seed}.json"


class Runner:
    """Sends a request list through cli.main and checks every answer."""

    def __init__(self, cli, requests, refs: dict | None):
        self.cli = cli
        self.requests = requests
        self.refs = None
        self.validator = jsonschema.validators.validator_for(
            cli.REPORT_SCHEMA)(cli.REPORT_SCHEMA)
        self.first = [None] * len(requests)
        self.digests = [None] * len(requests)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None
        # Scale latencies to reference speed; traced runs time raw.
        self.normalise = True
        if refs and refs["inputs"] != inputs_digest(requests):
            self.problems.append(
                "reference was recorded for other inputs; re-record it")
        elif refs:
            self.refs = refs["digests"]

    def call(self, argv) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            elapsed = perf_counter() - start
        return elapsed, code, out.getvalue()

    def run_pass(self) -> tuple[list[float], int]:
        """One pass over the list: per-request latencies and stdout bytes.

        With ``normalise`` each latency is divided by the mean speed
        factor of the probes just before and just after the request.
        """
        latencies, nbytes = [], 0
        factor = speed.factor() if self.normalise else 1.0
        for i, request in enumerate(self.requests):
            if self.tracer is not None:
                self.tracer.request = i
            elapsed, code, out = self.call(request.argv)
            if self.normalise:
                after = speed.factor()
                elapsed /= (factor + after) / 2
                factor = after
            latencies.append(elapsed)
            nbytes += len(out.encode())
            self.attempted += 1
            if self.first[i] is None:
                problems = self._check_first(i, request, code, out)
                self.first[i] = (code, hash(out))
            elif self.first[i] != (code, hash(out)):
                problems = ["output differs from the first pass"]
            else:
                problems = []
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(request.argv)}: "
                                     f"{'; '.join(problems)}"[:400])
        return latencies, nbytes

    def _check_first(self, i, request, code, out) -> list[str]:
        problems = []
        if code != request.expect_exit:
            problems.append(f"exit {code}, expected {request.expect_exit}")
        doc = None
        if code == 0 == request.expect_exit:
            try:
                doc = json.loads(out)
            except ValueError:
                problems.append("stdout is not one JSON object")
            else:
                error = jsonschema.exceptions.best_match(
                    self.validator.iter_errors(doc))
                if error is not None:
                    problems.append(f"breaks REPORT_SCHEMA: {error.message}")
                else:
                    try:
                        problems += oracle.check(request.argv, doc)
                    except (KeyError, TypeError, ValueError, IndexError,
                            StopIteration) as exc:
                        problems.append(f"unreadable answer: {exc!r}")
        elif code == request.expect_exit and out:
            problems.append("invalid input wrote to stdout")
        self.digests[i] = answer_digest(code, doc)
        if self.refs is not None and self.refs[i] != self.digests[i]:
            problems.append("answer differs from the recorded reference")
        return problems


def run_passes(runner: Runner, seconds: float, min_passes: int = 1,
               between=None):
    """At least ``min_passes`` passes, then more while another fits.

    A further pass starts only when one more of the last pass's length
    still ends within ``seconds``. Returns the latency lists of the
    passes and their stdout bytes; ``between`` is called after each pass.
    """
    passes, nbytes = [], []
    deadline = perf_counter() + seconds
    last = 0.0
    while len(passes) < min_passes or perf_counter() + last <= deadline:
        start = perf_counter()
        latencies, size = runner.run_pass()
        passes.append(latencies)
        nbytes.append(size)
        if between is not None:
            between()
        last = perf_counter() - start
    return passes, nbytes


def best_latencies(passes) -> list[float]:
    """Each request's lowest latency over the passes."""
    return [min(column) for column in zip(*passes)]


def median_latencies(passes) -> list[float]:
    """Each request's median latency over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The 11th-largest latency and its percentile, 100 (n - 10) / n.

    That is the highest percentile with at least ten requests beyond it;
    lists shorter than 11 fall back to the median.
    """
    n = len(latencies)
    if n < 11:
        return 50.0, statistics.median(latencies)
    return 100 * (n - 10) / n, sorted(latencies)[n - 11]


def end_to_end(runner, workload, seed, setup_times, seconds):
    def more_setup():
        for _ in range(SETUPS_PER_PASS):
            setup_times.append(retime_setup(workload, seed))

    more_setup()
    passes, _ = run_passes(runner, seconds, MIN_PASSES, more_setup)
    typical = median_latencies(passes)
    q, tail = tail_latency(typical)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(typical),
        "latency_p50_s": statistics.median(typical),
        "latency_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    note = (f"{len(passes)} passes of {len(typical)} requests, each request "
            f"at its median pass, in seconds at reference speed; "
            f"latency_p50_s over {len(typical)} samples; "
            f"latency_tail_s is p{q:.4g}; setup_s is the median of "
            f"{len(setup_times)} set-ups")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, note


def per_layer(runner, workload, seed, seconds):
    """Untraced passes for half the time, traced passes for the rest.

    Times here are raw wall time, without the speed probes.
    """
    runner.normalise = False
    plain, _ = run_passes(runner, seconds / 2)
    tracer = tracing.Tracer()
    runner.tracer = tracer
    summaries, kept = [], {}

    def collect():
        summaries.append(tracer.summary())
        if not kept:
            kept["spans"] = tracer.spans
            kept["reached"] = {span[0] for span in tracer.spans}
        tracer.reset()

    tracer.install()
    try:
        traced, nbytes = run_passes(runner, seconds / 2, 1, collect)
    finally:
        tracer.uninstall()
        runner.tracer = None
    for summary, size in zip(summaries, nbytes):
        summary["cli.report_bytes"] = size
    first = summaries[0]
    values = {}
    for name, unit, _, computed in tracing.PER_LAYER:
        if name == "tracing.overhead_s":
            value = (sum(best_latencies(traced))
                     - sum(best_latencies(plain)))
        elif computed:
            value = first[name]
            if any(s[name] != value for s in summaries):
                runner.problems.append(f"{name} differs between passes")
        else:
            value = float(statistics.median(s[name] for s in summaries))
        values[name] = (value, unit)
    missing = [name for name in workloads.REACHES[workload]
               if name not in kept["reached"]]
    if missing:
        runner.problems.append(f"traced run never reached {missing}")
    write_trace(workload, seed, runner.requests, kept["spans"])
    note = (f"{len(plain)} untraced and {len(traced)} traced passes of "
            f"{len(runner.requests)} requests; counts from the first traced "
            f"pass; computed: {', '.join(tracing.COMPUTED)}")
    return values, note


def write_trace(workload, seed, requests, spans) -> None:
    """Write the first traced pass's spans, times relative to its start."""
    OUT.mkdir(exist_ok=True)
    t0 = min((span[1] for span in spans), default=0.0)
    doc = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "request"],
        "computed_metrics": tracing.COMPUTED,
        "requests": [list(r.argv) for r in requests],
        "spans": [[name, round(start - t0, 7), round(end - t0, 7), parent,
                   request] for name, start, end, parent, request in spans],
    }
    path = OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))


def load_refs(workload: str, seed: int) -> dict | None:
    path = ref_path(workload, seed)
    return json.loads(path.read_text()) if path.is_file() else None


def benchmark(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns (result dict, summary line, problems)."""
    cli, requests, setup_s = setup(workload, seed)
    refs = load_refs(workload, seed)
    runner = Runner(cli, requests, refs)
    if trace:
        values, note = per_layer(runner, workload, seed, seconds)
    else:
        values, note = end_to_end(runner, workload, seed, [setup_s], seconds)
    failed = runner.failed
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    summary = (f"# {workload} seed={seed}: {note}; fail_ratio "
               f"{failed}/{runner.attempted} = {failed / runner.attempted:g}; "
               f"reference digests "
               f"{'checked' if runner.refs else 'not used for this seed'}")
    return result, summary, runner.problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, summary, problems = benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in problems[:20]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(summary)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
