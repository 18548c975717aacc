"""Verdict-time benchmark for ucc.

Runs one workload's ``ucc`` verbs in this single process through
``ucc.cli.run_cli``, checks every verdict against an independent oracle,
and prints every metric by name and unit.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run record (seed, input digests, environment, sample
counts), also written to ``bench/out/``.

    python3 bench/run.py --workload families --seed 7 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off; ``--trace 1`` reports the per-layer metrics,
from passes with the span wrappers of ``spans.py`` installed.  Either way a
run makes at least one untraced and one traced pass, and the stdout digest
of every verb must agree across all passes of the run.  The package is
imported from ``src/`` next to this directory and nowhere else.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import PAIR_WALKS, Tracer, layer_metrics
from workloads import WORKLOADS, Verb, Workload, parse_report

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPS = 5            # set-ups before the first pass
SETUP_REPS_BETWEEN = 2    # set-ups after every pass
TRACED_ALLOWANCE = 1.15   # a traced pass is assumed this much slower than untraced
PARTS = ("part1_s", "part2_s", "part3_s")

# The reference for set-up: a fixed module body, compiled and run, plus the
# kind of string building that writes a .uc file.  It shares no code with
# ucc.  setup_s is the median of (set-up time / reference time), times
# REF_UNIT_S: the set-up time on a machine where the reference takes 12.5
# ms, about what it takes on the box that defined this benchmark.  On that
# box the raw set-up time drifted by 59% across 15 s windows of a 150 s
# loop, and this ratio by 5%.
REF_UNIT_S = 0.0125
_REF_SOURCE = "from dataclasses import dataclass\nimport math\n" + "".join(
    f"@dataclass(frozen=True)\nclass C{i}:\n    a: int\n    b: float = 0.0\n"
    f"    c: tuple = ()\n    def m(self, x):\n        return math.log2(x + 1) * self.b\n"
    f"def f{i}(xs):\n    return sum(x | 3 for x in xs)\n" for i in range(12))


def reference_seconds() -> float:
    """Time of one run of the set-up reference (see ``REF_UNIT_S``)."""
    t0 = perf_counter()
    exec(compile(_REF_SOURCE, "<bench reference>", "exec"), {})
    "".join("".join("1" if m >> j & 1 else "0" for j in range(11)) + "\n" for m in range(512))
    return perf_counter() - t0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, bad arguments)."""


def import_cli():
    """Import ``ucc.cli`` afresh from ``src/``; returns the module."""
    for name in [m for m in sys.modules if m == "ucc" or m.startswith("ucc.")]:
        del sys.modules[name]
    if not (SRC / "ucc" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'ucc'}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ucc.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"ucc.cli imported from {cli.__file__}, not from {SRC}")
    return cli


class SetUp:
    """Import plus input generation, timed every time it is done.

    It is done ``SETUP_REPS`` times before the first pass and
    ``SETUP_REPS_BETWEEN`` times after every pass.  Each time, the
    reference runs just before it, so both see the machine in one state.
    """

    def __init__(self, workload: Workload, seed: int, in_dir: Path) -> None:
        self.workload, self.seed, self.in_dir = workload, seed, in_dir
        self.samples: list[float] = []
        self.reference: list[float] = []
        self.inputs = None
        self.repeat(SETUP_REPS)

    def repeat(self, times: int) -> None:
        for _ in range(times):
            self()

    @property
    def calibrated(self) -> list[float]:
        """Set-up times in seconds at the reference speed (see ``REF_UNIT_S``)."""
        return [s / r * REF_UNIT_S for s, r in zip(self.samples, self.reference)]

    def __call__(self):
        gc.collect()
        self.reference.append(reference_seconds())
        t0 = perf_counter()
        cli = import_cli()
        inputs = self.workload.make_inputs(self.seed, self.in_dir)
        self.samples.append(perf_counter() - t0)
        if self.inputs is not None and inputs.sha256 != self.inputs.sha256:
            raise BenchError("input generation is not deterministic")
        self.inputs = inputs
        self.cli = cli
        return cli


@dataclass
class VerbRun:
    verb: Verb
    rc: int
    seconds: float
    stdout: str
    stderr: str
    notes: list
    pair_passes: int

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    traced: bool
    wall: float
    verbs: list[VerbRun]
    layers: dict[str, tuple[float, str]] | None = None

    def part(self, name: str) -> float:
        return sum(v.seconds for v in self.verbs if v.verb.part == name)


def run_pass(cli, verbs: list[Verb], tracer: Tracer | None) -> Pass:
    run_cli = cli.run_cli
    guard = contextlib.nullcontext()
    if tracer is not None:
        guard = tracer.installed()
        run_cli = tracer.span("cli.run_cli", run_cli)
    runs = []
    gc.collect()
    with guard:
        t_pass = perf_counter()
        for verb in verbs:
            n_notes = len(tracer.notes) if tracer else 0
            n_spans = len(tracer.spans) if tracer else 0
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = run_cli(list(verb.argv))
                except Exception:  # a crash is a failed verdict, not a failed run
                    traceback.print_exc()
                    rc = -1
            seconds = perf_counter() - t0
            notes = tracer.notes[n_notes:] if tracer else []
            walks = sum(1 for rec in tracer.spans[n_spans:] if rec[0] in PAIR_WALKS) \
                if tracer else 0
            runs.append(VerbRun(verb, rc, seconds, out.getvalue(), err.getvalue(),
                                notes, walks))
        wall = perf_counter() - t_pass
    done = Pass(tracer is not None, wall, runs)
    if tracer is not None:
        done.layers = layer_metrics(tracer)
        done.layers["trace.wall_s"] = (wall, "s")
    return done


def judge(passes: list[Pass]) -> tuple[int, list[str], list[str]]:
    """Verdict errors and determinism mismatches over every verb run."""
    verdict_errors, mismatches = [], []
    first = {v.verb.label: v.digest for v in passes[0].verbs}
    for i, p in enumerate(passes):
        for v in p.verbs:
            try:
                errs = v.verb.check(v.rc, parse_report(v.stdout), v.notes)
            except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                errs = [f"malformed report ({type(exc).__name__}: {exc})"]
            if v.rc != 0 and v.stderr.strip():
                errs.append(f"stderr: {v.stderr.strip().splitlines()[-1][:200]}")
            tag = f"pass {i} ({'traced' if p.traced else 'untraced'}) {v.verb.label}"
            verdict_errors.extend(f"{tag}: {e}" for e in errs)
            if v.digest != first[v.verb.label]:
                mismatches.append(f"{tag}: stdout sha256 {v.digest[:16]} differs")
    attempted = sum(len(p.verbs) for p in passes)
    return attempted, verdict_errors, mismatches


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def measure(setup: SetUp, verbs: list[Verb], seconds: float, trace: int):
    """Run passes until ``seconds`` are spent; returns (untraced, traced, tracer, rss).

    Untraced passes come first and take the whole budget (trace 0) or half
    of it (trace 1), leaving room for at least one traced pass.  With
    trace 0 that one traced pass only checks that tracing changes no
    verb's output; with trace 1 traced passes fill the rest of the budget.
    """
    start = perf_counter()
    untraced_budget = seconds / 2 if trace else seconds
    reserve = 0.0 if trace else TRACED_ALLOWANCE  # room for the one traced pass
    untraced, traced = [], []
    while True:
        untraced.append(run_pass(setup.cli, verbs, None))
        setup.repeat(SETUP_REPS_BETWEEN)
        last = untraced[-1].wall
        if perf_counter() - start + last * (1.0 + reserve) > untraced_budget:
            break
    rss = peak_rss_mb()
    tracer = Tracer()
    while True:
        traced.append(run_pass(setup.cli, verbs, tracer))
        if not trace or perf_counter() - start + traced[-1].wall > seconds:
            break
        setup.repeat(SETUP_REPS_BETWEEN)
    return untraced, traced, tracer, rss


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]

    in_dir = OUT / "inputs" / f"{workload.name}-seed{args.seed}"
    try:
        in_dir.mkdir(parents=True, exist_ok=True)
        setup = SetUp(workload, args.seed, in_dir)
    except (BenchError, ImportError, OSError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    inputs = setup.inputs
    if workload.make_oracle is not None:
        workload.make_oracle(args.seed, inputs)
    verbs = workload.make_verbs(args.seed, inputs)

    untraced, traced, tracer, rss = measure(setup, verbs, args.seconds, args.trace)
    passes = untraced + traced
    attempted, verdict_errors, mismatches = judge(passes)
    failed_runs = {e.split(":", 1)[0] for e in verdict_errors + mismatches}

    # one pass of all verbs and each part of it, untraced: in the record
    # always, and among the per-layer metrics of a traced run
    timings = {"pass.wall_s": [p.wall for p in untraced]}
    timings.update({f"pass.{part}": [p.part(part) for p in untraced] for part in PARTS})
    if args.trace == 0:
        samples = {"setup_s": setup.calibrated, "peak_rss_mb": [rss]}
        units = {"setup_s": "s", "peak_rss_mb": "MB"}
    else:
        names = traced[0].layers.keys()
        samples = {k: [p.layers[k][0] for p in traced] for k in names}
        units = {k: traced[0].layers[k][1] for k in names}
        untraced_wall = statistics.median(timings["pass.wall_s"])
        samples["trace.overhead_s"] = [p.wall - untraced_wall for p in traced]
        units["trace.overhead_s"] = "s"
        samples.update(timings)
        units.update({k: "s" for k in timings})
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs_sha256": inputs.sha256,
        "environment": environment(),
        "samples": {k: len(v) for k, v in samples.items()},
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_raw_s": setup.samples,
        "setup_reference_s": setup.reference,
        "timings": timings,
        "parts": {workload.parts[p]: statistics.median(timings[f"pass.{p}"]) for p in PARTS},
        "verb_seconds": {v.verb.label: statistics.median(
            q.verbs[i].seconds for q in untraced) for i, v in enumerate(untraced[0].verbs)},
        "pair_passes_per_verb": {v.verb.label: v.pair_passes for v in traced[-1].verbs},
        "stdout_sha256": {v.verb.label: v.digest for v in untraced[0].verbs},
        "verdict_errors": len(verdict_errors),
        "errors": (verdict_errors + mismatches)[:50],
        "missing_sites": tracer.missing,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    (OUT / f"{workload.name}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    for line in record["errors"]:
        print(f"bench: {line}", file=sys.stderr)
    shown = dict(samples)
    shown.update(timings)  # pass timings are per-layer, but always worth a look
    for name, values in shown.items():
        alias = workload.parts.get(name.removeprefix("pass."))
        label = f"{name} ({alias})" if alias else name
        unit = units.get(name, "s")
        print(f"{label:48s} {statistics.median(values):.6g} {unit}  [n={len(values)}]")
    print(json.dumps(record, sort_keys=True, default=str))
    result = {
        "correct": not verdict_errors and not mismatches,
        "attempted": attempted,
        "failed": len(failed_runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
