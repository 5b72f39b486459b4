"""Command-line workflows: generate, validate, solve, analyze, verify.

Machine-readable output goes to files, human summaries to stderr.  Every
output file embeds a manifest (tool version, exact command, inputs) in its
comment header and ends with a sha256 of the deterministic region followed by
the wall time; reruns of the same command are byte-identical except for the
wall-time trailer.

Exit codes: 0 success / orbit verified; 2 infeasible instance; 3 invalid
input or usage error; 4 node budget exceeded; 5 degenerate instance flagged
by analyze; 6 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import shlex
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DgbpError, InvalidInstance, NodeBudgetExceeded, ParseError
from .instance import (
    counterexample,
    parse_instance,
    random_instance,
    serialize_instance,
    stacked_edge_violations,
    validate,
)
from .solver import (
    SolverOptions,
    brute_force,
    parse_result,
    recompute_codes,
    serialize_result,
    solve,
)
from .symmetry import serialize_report, verify_orbit

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4
EXIT_DEGENERATE = 5
EXIT_VERIFY_FAILED = 6


@dataclass
class RunManifest:
    """Provenance block embedded in every output file."""

    command: str
    inputs: tuple
    outputs: tuple

    def lines(self) -> list[str]:
        out = [
            f"# manifest tool: dgbp {__version__}",
            f"# manifest command: {self.command}",
        ]
        for path in self.inputs:
            out.append(f"# manifest input: {path}")
        for path in self.outputs:
            out.append(f"# manifest output: {path}")
        return out


def write_output(path: str, manifest: RunManifest, body: str, started: float) -> None:
    """Write manifest + body, then a sha of that region and the wall time."""
    region = "\n".join(manifest.lines()) + "\n" + body
    digest = hashlib.sha256(region.encode()).hexdigest()
    wall = time.perf_counter() - started
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(region)
        fh.write(f"# sha256: {digest}\n")
        fh.write(f"# wall_time_s: {wall:.6f}\n")


def split_trailer(text: str):
    """Split a written file into (deterministic region, sha hex, wall time)."""
    lines = text.splitlines(keepends=True)
    sha = wall = None
    end = len(lines)
    for i, line in enumerate(lines):
        if line.startswith("# sha256: "):
            sha = line.split(": ", 1)[1].strip()
            end = i
        elif line.startswith("# wall_time_s: "):
            wall = float(line.split(": ", 1)[1])
    return "".join(lines[:end]), sha, wall


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dgbp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="write an instance file")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--counterexample", action="store_true",
                      help="unit-distance family with six embeddings")
    kind.add_argument("--random", action="store_true",
                      help="seeded feasible instance with witness")
    p.add_argument("--k", type=int, required=True, help="dimension K")
    p.add_argument("--n", type=int, help="vertex count (random only)")
    p.add_argument("--prune", type=float, default=0.0,
                   help="long-edge probability (random only)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (random only)")
    p.add_argument("--out", help="instance file path")
    p.add_argument("--witness-out", help="witness file path (random only)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="enumerate all embeddings")
    p.add_argument("instance")
    p.add_argument("--out", help="result file path")
    p.add_argument("--atol", type=float, default=1e-9)
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--plot", help="also write a flat coordinate table here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="symmetry report for a solve result")
    p.add_argument("result")
    p.add_argument("--out", help="report file path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="recheck a result against its instance")
    p.add_argument("instance")
    p.add_argument("result")
    p.add_argument("--atol", type=float, default=1e-9)
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--oracle", action="store_true",
                   help="also compare against the exhaustive oracle")
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_generate(args, command: str) -> int:
    started = time.perf_counter()
    if args.k < 1:
        _say(f"dimension must be >= 1, got {args.k}")
        return EXIT_INVALID
    if args.counterexample:
        inst = counterexample(args.k)
        witness = None
        default_out = f"counterexample_k{args.k}.txt"
    else:
        if args.n is None:
            _say("--random needs --n")
            return EXIT_INVALID
        try:
            inst, witness = random_instance(args.k, args.n, args.prune, args.seed)
        except (ValueError, DgbpError) as exc:
            _say(str(exc))
            return EXIT_INVALID
        default_out = f"random_k{args.k}_n{args.n}_p{args.prune:g}_s{args.seed}.txt"
    out = args.out or default_out
    outputs = [out]
    witness_out = None
    if witness is not None:
        witness_out = args.witness_out or out.rsplit(".", 1)[0] + ".witness.txt"
        outputs.append(witness_out)
    manifest = RunManifest(command, inputs=(), outputs=tuple(outputs))
    write_output(out, manifest, serialize_instance(inst), started)
    if witness is not None:
        body = [
            "format: dgp-witness 1",
            f"dimension: {inst.dimension}",
            f"n: {inst.n}",
            "coords:",
        ]
        body += [" ".join("%.17g" % c for c in row) for row in witness]
        write_output(witness_out, manifest, "\n".join(body) + "\n", started)
    _say(f"wrote {out}" + (f" and {witness_out}" if witness is not None else ""))
    return EXIT_OK


def cmd_validate(args, command: str) -> int:
    inst = parse_instance(_read(args.instance))
    report = validate(inst)
    if report.ok:
        _say(f"{args.instance}: valid (K={inst.dimension}, n={inst.n}, "
             f"{len(inst.edges)} edges)")
        return EXIT_OK
    for violation in report.violations:
        _say(f"{violation.code.value}: vertex={violation.vertex} {violation.detail}")
    return EXIT_INVALID


def cmd_solve(args, command: str) -> int:
    started = time.perf_counter()
    inst = parse_instance(_read(args.instance))
    opts = SolverOptions(atol=args.atol, rtol=args.rtol, max_nodes=args.max_nodes)
    budget_hit = False
    try:
        result = solve(inst, opts)
    except InvalidInstance as exc:
        _say(f"invalid instance: {exc.report.summary()}")
        return EXIT_INVALID
    except NodeBudgetExceeded as exc:
        result = exc.result
        budget_hit = True
    out = args.out or _stem(args.instance) + ".result.txt"
    outputs = (out, args.plot) if args.plot else (out,)
    manifest = RunManifest(command, inputs=(args.instance,), outputs=outputs)
    write_output(out, manifest, serialize_result(result), started)
    if args.plot:
        rows = ["solution\tvertex\t" + "\t".join(f"x{j + 1}" for j in range(inst.dimension))]
        for i, emb in enumerate(result.solutions):
            for vtx, point in enumerate(emb, start=1):
                rows.append(f"{i}\t{vtx}\t" + "\t".join("%.17g" % c for c in point))
        write_output(args.plot, manifest, "\n".join(rows) + "\n", started)
    _say(f"{args.instance}: {result.solution_count} solutions -> {out}")
    if budget_hit:
        return EXIT_BUDGET
    return EXIT_OK if result.solutions else EXIT_INFEASIBLE


def cmd_analyze(args, command: str) -> int:
    started = time.perf_counter()
    result = parse_result(_read(args.result))
    if not result.solutions:
        _say("nothing to analyze: result has no solutions")
        return EXIT_INVALID
    report = verify_orbit(result)
    out = args.out or _stem(args.result) + ".symmetry.txt"
    manifest = RunManifest(command, inputs=(args.result,), outputs=(out,))
    write_output(out, manifest, serialize_report(report), started)
    _say(f"{args.result}: |X|={report.solution_count} group_order={report.group_order} "
         f"orbit_verified={report.orbit_verified} power_of_two={report.power_of_two} "
         f"degenerate={report.degenerate}")
    if report.degenerate:
        return EXIT_DEGENERATE
    if report.orbit_verified and report.power_of_two:
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def cmd_verify(args, command: str) -> int:
    inst = parse_instance(_read(args.instance))
    result = parse_result(_read(args.result))
    failures = 0
    # parse_result gives every solution the same shape.
    if result.solutions and result.solutions[0].shape != (inst.n, inst.dimension):
        for i in range(result.solution_count):
            _say(f"solution {i}: shape mismatch with instance")
        failures += result.solution_count
    elif result.solutions:
        stack = np.asarray(result.solutions)
        for i, bad in enumerate(stacked_edge_violations(inst, stack, args.atol, args.rtol)):
            for (u, v), res in bad:
                _say(f"solution {i}: edge {{{u}, {v}}} off by {res:.3e}")
            failures += len(bad)
    if len(set(result.branch_codes)) != len(result.branch_codes):
        _say("duplicate branch codes in result")
        failures += 1
    if args.oracle:
        if inst.n - inst.dimension > 24:
            _say("oracle comparison beyond the exhaustive budget")
            return EXIT_BUDGET
        oracle = np.reshape(brute_force(inst, args.atol, args.rtol),
                            (-1, inst.n, inst.dimension))
        oracle_codes = set(recompute_codes(inst, oracle))
        if oracle_codes != set(result.branch_codes):
            _say(f"oracle found {len(oracle_codes)} codes, result has "
                 f"{len(set(result.branch_codes))}")
            failures += 1
    if failures:
        _say(f"verification FAILED ({failures} problem(s))")
        return EXIT_VERIFY_FAILED
    _say("verification passed")
    return EXIT_OK


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _stem(path: str) -> str:
    return path.rsplit(".", 1)[0] if "." in path.rsplit("/", 1)[-1] else path


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = shlex.join(argv)
    try:
        return args.func(args, command)
    except ParseError as exc:
        _say(f"parse error: {exc}")
        return EXIT_INVALID
    except FileNotFoundError as exc:
        _say(f"cannot read {exc.filename}")
        return EXIT_INVALID
    except DgbpError as exc:
        _say(f"error: {exc}")
        return EXIT_INVALID


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
