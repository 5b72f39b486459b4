"""Seeded end-to-end and per-layer benchmark of dgbp: solve -> analyze -> verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  Set-up writes the workload's seeded inputs under
``.perfbench_work/`` (removed afterwards).  The run then repeats whole passes
over the inputs, one operation at a time, until another pass would overrun
``--seconds``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.  The
last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import SPECTRUM_Q, codes_digest, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("full_tree", "deep_sparse", "symmetry_tree", "corpus")
STEPS = ("solve", "analyze", "verify")
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.5
STEP_TIMEOUT_S = 90
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}
REFLECTION_TOL = 1e-6


@dataclass
class Op:
    """One solve -> analyze -> verify on one input."""

    name: str
    steps: dict = field(default_factory=dict)  # step -> wall seconds
    rss_mb: float | None = None  # peak resident memory of the solve step
    failure: str | None = None
    incorrect: bool = False  # an output the program reported as good was wrong
    body_sha: str | None = None
    dumps: list = field(default_factory=list)  # span dumps of a traced op
    import_times: list = field(default_factory=list)

    def fail(self, reason: str, incorrect: bool = False) -> "Op":
        self.failure, self.incorrect = reason, incorrect
        return self


def spawn(argv, cwd: Path, env: dict):
    """Run one child to completion: (start, wall s, exit code, peak RSS MB, stderr)."""
    with open(cwd / "stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return start, wall, proc.returncode, usage.ru_maxrss / 1024, err.read()


def crashed(code: int, stderr: str) -> bool:
    return code not in DOCUMENTED_EXITS or "Traceback (most recent call last)" in stderr


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def body_digest(text: str) -> str:
    """sha256 of an output file without its manifest and trailer lines."""
    lines = [ln for ln in text.splitlines(keepends=True) if not ln.startswith("# manifest ")]
    end = next((i for i, ln in enumerate(lines) if ln.startswith("# sha256: ")), len(lines))
    return hashlib.sha256("".join(lines[:end]).encode()).hexdigest()


def fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not key.startswith("#"):
            out.setdefault(key, value.strip())
    return out


class Bench:
    def __init__(self, workload: str, inputs: list, work: Path):
        self.inputs = inputs
        self.work = work
        self.library = workload == "symmetry_tree"
        self.oracle = workload == "corpus"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run_pass(self, trace: bool) -> list:
        run = self.library_op if self.library else self.cli_op
        return [run(inp, trace) for inp in self.inputs]

    def _spans(self, op: Op, start: float) -> None:
        path = self.work / "spans.json"
        if path.exists():
            dump = json.loads(path.read_text())
            path.unlink()
            op.dumps.append(dump)
            op.import_times.append(dump["imported"] - start)

    def check_result(self, inp, op: Op, path: Path) -> str | None:
        text = path.read_text(encoding="utf-8")
        op.body_sha = body_digest(text)
        codes = [ln[5:] for ln in text.splitlines() if ln.startswith("code ")]
        if len(codes) != inp.count or fields(text).get("solution_count") != str(inp.count):
            return f"{len(codes)} solutions, expected {inp.count}"
        if codes_digest(codes) != inp.codes_sha:
            return "branch codes differ from the expected list"
        return None

    @staticmethod
    def check_report(inp, path: Path) -> str | None:
        got = fields(path.read_text(encoding="utf-8"))
        want = {"solution_count": str(inp.count), "degenerate": str(not inp.generic).lower()}
        if inp.generic:
            want.update(orbit_verified="true", power_of_two="true")
        bad = [f"{k}={got.get(k)}" for k, v in want.items() if got.get(k) != v]
        return "report has " + ", ".join(bad) if bad else None

    def cli_op(self, inp, trace: bool) -> Op:
        op = Op(inp.name)
        inst, result, report = (f"{inp.name}.txt", f"{inp.name}.result.txt",
                                f"{inp.name}.symmetry.txt")
        argvs = {
            "solve": ["solve", inst, "--out", result],
            "analyze": ["analyze", result, "--out", report],
            "verify": ["verify", inst, result] + (["--oracle"] if self.oracle else []),
        }
        expected = {"solve": 0, "analyze": 0 if inp.generic else 5, "verify": 0}
        for step in STEPS:
            if trace:
                cmd = [sys.executable, str(HERE / "child.py"), "cli", "spans.json", "--"]
            else:
                cmd = [sys.executable, "-m", "dgbp.cli"]
            start, wall, code, rss, err = spawn(cmd + argvs[step], self.work, self.env)
            if trace:
                self._spans(op, start)
            if crashed(code, err):
                return op.fail(f"{step} crashed (exit {code}): {last_line(err)}")
            if code != expected[step]:
                return op.fail(f"{step} exit {code}, expected {expected[step]}", incorrect=True)
            op.steps[step] = wall
            if step == "solve":
                op.rss_mb = rss
                problem = self.check_result(inp, op, self.work / result)
            elif step == "analyze":
                problem = self.check_report(inp, self.work / report)
            else:
                problem = None
            if problem:
                return op.fail(f"{step}: {problem}", incorrect=True)
        return op

    def library_op(self, inp, trace: bool) -> Op:
        op = Op(inp.name)
        for stale in ("op.json", "spans.json"):
            (self.work / stale).unlink(missing_ok=True)
        u, v = inp.spectrum
        cmd = [sys.executable, str(HERE / "child.py"), "library",
               "spans.json" if trace else "-", f"{inp.name}.txt", str(u), str(v)]
        start, _, code, _, err = spawn(cmd, self.work, self.env)
        if trace:
            self._spans(op, start)
        if code != 0:
            return op.fail(f"library operation crashed (exit {code}): {last_line(err)}")
        out = json.loads((self.work / "op.json").read_text())
        t = out["t"]
        op.steps = {"solve": t["solve"] - start, "analyze": t["analyze"] - t["solve"],
                    "verify": t["verify"] - t["analyze"]}
        op.rss_mb = out["rss_mb"]
        want_checks = inp.count * (inp.n - inp.K)  # every level of a full tree branches
        result_problem = self.check_result(inp, op, self.work / "result.txt")
        problems = [
            msg for bad, msg in (
                (result_problem, result_problem),
                (not (out["orbit_verified"] and out["power_of_two"]), "orbit not verified"),
                (out["degenerate"], "flagged degenerate"),
                (out["reflection_checks"] != want_checks,
                 f"{out['reflection_checks']} reflection checks, expected {want_checks}"),
                (out["reflection_mismatches"], "reflection lands on the wrong code"),
                (out["reflection_max_residual"] > REFLECTION_TOL, "reflection residual"),
                (out["spectrum_size"] != 2**SPECTRUM_Q, "wrong spectrum size"),
                (out["edge_failures"], "edge violations"),
                (not out["oracle_matches"], "oracle disagrees"),
            ) if bad
        ]
        if problems:
            return op.fail("; ".join(problems), incorrect=True)
        return op


def median_slowest(values, fallback: float) -> float:
    """Median in which a failed operation (None) ranks as the slowest."""
    finite = [v for v in values if v is not None]
    cap = max(finite, default=fallback)
    return statistics.median([cap if v is None else v for v in values])


def end_to_end(ops: list, elapsed: float) -> dict:
    def step(op, name):
        return None if op.failure else op.steps[name]

    out = {f"{s}_s": median_slowest([step(op, s) for op in ops], elapsed) for s in STEPS}
    out["pipeline_s"] = median_slowest(
        [None if op.failure else sum(op.steps.values()) for op in ops], elapsed)
    seen_rss = [op.rss_mb for op in ops if op.rss_mb is not None]
    out["peak_rss_mb"] = median_slowest(
        [None if op.failure else op.rss_mb for op in ops], max(seen_rss, default=0.0))
    return out


UNITS = {"solve_s": "s", "analyze_s": "s", "verify_s": "s", "pipeline_s": "s",
         "peak_rss_mb": "MB", "fail_frac": "ratio", "setup_s": "s"}


def traced_metrics(untraced: list, traced: list, elapsed: float) -> dict:
    per_pass = []
    for ops in traced:
        dumps = [d for op in ops for d in op.dumps]
        imports = [t for op in ops for t in op.import_times]
        per_pass.append(tracing.layer_metrics(tracing.aggregate(dumps), imports))
    first = per_pass[0]
    for other in per_pass[1:]:
        moved = [k for k in tracing.COUNT_METRICS if other[k] != first[k]]
        if moved:
            print(f"perfbench: counts differ between traced passes: {moved}", file=sys.stderr)
    out = {k: first[k] if k in tracing.COUNT_METRICS
           else statistics.median(p[k] for p in per_pass) for k in first}
    pipe = end_to_end([op for ops in traced for op in ops], elapsed)["pipeline_s"]
    base = end_to_end([op for ops in untraced for op in ops], elapsed)["pipeline_s"]
    out["trace_overhead_frac"] = pipe / base - 1.0
    return out


def setup(workload: str, seed: int, work: Path):
    """Generate and write the inputs at least SETUP_MIN_REPS times and for at
    least SETUP_MIN_S seconds; return the median time and the inputs."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        inputs = make_inputs(workload, seed)
        for inp in inputs:
            (work / f"{inp.name}.txt").write_text(inp.text, encoding="utf-8")
        times.append(time.perf_counter() - start)
    return statistics.median(times), inputs


def program_ready(env: dict) -> bool:
    """Import the program once (compiling its bytecode); it must come from src/."""
    probe = subprocess.run(
        [sys.executable, "-c", "import dgbp.cli; print(dgbp.cli.__file__)"],
        env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    return probe.returncode == 0 and Path(probe.stdout.strip()).is_relative_to(SRC)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # The JSON line carries the metrics BENCHMARK.json lists; the summary has all.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    if not (SRC / "dgbp" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'dgbp'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, inputs = setup(args.workload, args.seed, work)
        bench = Bench(args.workload, inputs, work)
        if not program_ready(bench.env):
            print("perfbench: cannot import dgbp from src/", file=sys.stderr)
            return 2
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced.append(bench.run_pass(trace=False))
            if args.trace:
                traced.append(bench.run_pass(trace=True))
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    ops = [op for ops in untraced + traced for op in ops]
    failed = [op for op in ops if op.failure]
    correct = not any(op.incorrect for op in ops)
    if args.trace:
        values = traced_metrics(untraced, traced, elapsed)
        units = tracing.UNITS
    else:
        values = {**end_to_end(ops, elapsed), "fail_frac": len(failed) / len(ops),
                  "setup_s": setup_s}
        units = UNITS

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} pass(es) of {len(inputs)} input(s) in {elapsed:.1f} s, "
          f"{len(ops)} operations, {len(failed)} failed, correct={correct}")
    for name, value in values.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    for op in failed:
        print(f"  FAILED {op.name}: {op.failure}")
    for op in {op.name: op for op in ops if op.body_sha}.values():
        print(f"  result body sha256 {op.name} {op.body_sha}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
