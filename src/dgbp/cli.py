"""Command-line workflows: generate, validate, solve, analyze, verify.

Machine-readable output goes to files, human summaries to stderr.  Every
output file embeds a manifest (tool version, exact command, inputs) in its
comment header and ends with a sha256 of the deterministic region followed by
the wall time; reruns of the same command are byte-identical except for the
wall-time trailer.

Exit codes: 0 success / orbit verified; 2 infeasible instance; 3 invalid
input, usage error or out of memory; 4 node budget exceeded, by solve or in
the result that analyze or verify reads; 5 degenerate instance flagged by
analyze; 6 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import shlex
import stat
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import BudgetExceeded, DgbpError, InvalidInstance, NodeBudgetExceeded, ParseError
from .instance import (
    counterexample,
    parse_instance,
    random_instance,
    serialize_instance,
    _size_report,
    stacked_edge_violations,
    validate,
)
from .solver import (
    SolverOptions,
    _row_texts,
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
    """Write manifest + body, then a sha of that region and the wall time.

    The file is overwritten in place: written from offset 0 without first
    truncating it, then cut to the new length.  A symlink or hard link to it
    keeps pointing at the new bytes.  Truncating to zero or renaming over
    the old file would make ext4 (``auto_da_alloc``) flush it on every write.
    Non-regular files (``/dev/null``, pipes, terminals) are only written.  If
    the write raises, a regular file is emptied before the error propagates,
    so it never holds new text followed by old.
    """
    region = ("\n".join(manifest.lines()) + "\n" + body).encode()
    digest = hashlib.sha256(region).hexdigest()
    wall = time.perf_counter() - started
    data = region + f"# sha256: {digest}\n# wall_time_s: {wall:.6f}\n".encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
    _write(out, manifest, serialize_instance(inst), started)
    if witness is not None:
        body = [
            "format: dgp-witness 1",
            f"dimension: {inst.dimension}",
            f"n: {inst.n}",
            "coords:",
        ]
        body += [" ".join("%.17g" % c for c in row) for row in witness]
        _write(witness_out, manifest, "\n".join(body) + "\n", started)
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
    _write(out, manifest, serialize_result(result), started)
    if args.plot:
        _write(args.plot, manifest, _plot_table(result.solutions), started)
    _say(f"{args.instance}: {result.solution_count} solutions -> {out}")
    if budget_hit:
        return EXIT_BUDGET
    return EXIT_OK if result.solution_count else EXIT_INFEASIBLE


def cmd_analyze(args, command: str) -> int:
    started = time.perf_counter()
    result = parse_result(_read(args.result))
    if not result.solution_count:
        _say("nothing to analyze: result has no solutions")
        return EXIT_INVALID
    report = verify_orbit(result)
    out = args.out or _stem(args.result) + ".symmetry.txt"
    manifest = RunManifest(command, inputs=(args.result,), outputs=(out,))
    _write(out, manifest, serialize_report(report), started)
    _say(f"{args.result}: |X|={report.solution_count} group_order={report.group_order} "
         f"orbit_verified={report.orbit_verified} power_of_two={report.power_of_two} "
         f"degenerate={report.degenerate}")
    if result.stats.budget_exceeded:
        _say("status: budget-exceeded; the report covers only the solutions found")
        return EXIT_BUDGET
    if report.degenerate:
        return EXIT_DEGENERATE
    if report.orbit_verified and report.power_of_two:
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def cmd_verify(args, command: str) -> int:
    inst = parse_instance(_read(args.instance))
    result = parse_result(_read(args.result))
    _, n, K = result.solutions.shape
    if (n, K) != (inst.n, inst.dimension):
        _say(f"result is for n={n}, K={K}; instance has n={inst.n}, K={inst.dimension}")
        return EXIT_VERIFY_FAILED
    report = _size_report(inst)
    if not report.ok:
        _say(f"invalid instance: {report.summary()}")
        return EXIT_INVALID
    failures = 0
    bad_edges = stacked_edge_violations(inst, result.solutions, args.atol, args.rtol)
    for i, bad in enumerate(bad_edges):
        for (u, v), res in bad:
            _say(f"solution {i}: edge {{{u}, {v}}} off by {res:.3e}")
        failures += len(bad)
    codes = set(result.branch_codes)
    if len(codes) != len(result.branch_codes):
        _say("duplicate branch codes in result")
        failures += 1
    budget_hit = result.stats.budget_exceeded
    if args.oracle and not budget_hit:
        try:
            oracle = brute_force(inst, args.atol, args.rtol)
        except BudgetExceeded:
            _say("oracle comparison beyond the exhaustive budget")
            return EXIT_BUDGET
        oracle_codes = set(recompute_codes(inst, oracle))
        if oracle_codes != codes:
            _say(f"oracle found {len(oracle_codes)} codes, result has {len(codes)}")
            failures += 1
    if failures:
        _say(f"verification FAILED ({failures} problem(s))")
        return EXIT_VERIFY_FAILED
    if budget_hit:
        _say("status: budget-exceeded; the solutions listed pass, but the search found only some")
        return EXIT_BUDGET
    _say("verification passed")
    return EXIT_OK


def _plot_table(stack: np.ndarray) -> str:
    """Tab-separated table with one row per (solution, vertex): indices, then coordinates.

    The coordinates come from ``solver._row_texts``, so a row repeated from
    the solution before is formatted once, as in a result file.
    """
    S, n, K = stack.shape
    header = "solution\tvertex\t" + "\t".join(f"x{j + 1}" for j in range(K))
    rows = (np.array([f"{s}\t" for s in range(S)], dtype=object)[:, None]
            + np.array([f"{v}\t" for v in range(1, n + 1)], dtype=object)
            + _row_texts(stack, "\t"))
    return "\n".join([header, *rows.ravel().tolist()]) + "\n"


class _FileError(Exception):
    """An input could not be read or an output written (exit 3)."""

    def __init__(self, verb: str, path: str, exc: OSError):
        super().__init__(f"cannot {verb} {path}: {exc.strerror or exc}")


def _read(path: str) -> bytes:
    """The bytes of the file at ``path``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _FileError("read", path, exc) from exc


def _write(path: str, manifest: RunManifest, body: str, started: float) -> None:
    try:
        write_output(path, manifest, body, started)
    except OSError as exc:
        raise _FileError("write", path, exc) from exc


def _stem(path: str) -> str:
    return path.rsplit(".", 1)[0] if "." in path.rsplit("/", 1)[-1] else path


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag in ("atol", "rtol", "max_nodes"):  # a NaN band turns pruning off
        value = getattr(args, flag, None)
        if value is not None and not 0 <= value < math.inf:
            _say(f"--{flag.replace('_', '-')} must be finite and >= 0, got {value}")
            return EXIT_INVALID
    command = shlex.join(argv)
    try:
        return args.func(args, command)
    except ParseError as exc:
        _say(f"parse error: {exc}")
        return EXIT_INVALID
    except _FileError as exc:
        _say(str(exc))
        return EXIT_INVALID
    except DgbpError as exc:
        _say(f"error: {exc}")
        return EXIT_INVALID
    except MemoryError as exc:
        _say(f"out of memory: {exc}" if str(exc) else "out of memory")
        return EXIT_INVALID


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
