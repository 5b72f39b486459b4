"""The line-by-line result reader the package's ``parse_result`` is checked against.

``parse_result_by_line`` applies the result grammar one line at a time to
the whole file, header and solution block alike, and names the line of
every error it finds.  It reads the package's line model on its own terms
(``split_lines``): the text is bytes, a ``str`` taken as its UTF-8
encoding; lines split at LF, CRLF or CR and are stripped of ASCII
whitespace.  Every line stays bytes: fields and rows are split on ASCII
whitespace and their numbers read from bytes, and only a field key or a
line quoted in an error is decoded.  It is slow on large results, but easy
to trust.
"""

import itertools
import re

import numpy as np

from dgbp.errors import ParseError
from dgbp.solver import SolveResult, SolveStats

LINE_END = re.compile(rb"\r\n|\r|\n")


def split_lines(data: bytes) -> list:
    """The stripped lines of ``data``: cut at every LF, CRLF or CR, none after the last end."""
    lines = [line.strip() for line in LINE_END.split(data)]
    return lines[:-1] if data[-1:] in (b"", b"\n", b"\r") else lines


def parse_result_by_line(text) -> SolveResult:
    """``parse_result`` by the line loop alone, from ``str`` or ``bytes``."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(LINE_END.split(data[: exc.start]))
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})", line) from None
    reader = _LineReader()
    lines = split_lines(data)
    reader.read(lines)
    return reader.result(lines)


_INT_FIELDS = frozenset({
    "solution_count", "nodes_feasible", "nodes_infeasible",
    "candidates_pruned", "empty_extensions", "tangent_events",
})


class _LineReader:
    """The grammar of a result file, applied one line at a time."""

    def __init__(self):
        self.stats = SolveStats()
        self.K = self.n = self.count = None
        self.mode = None
        self.solutions: list = []
        self.codes: list = []
        self.code_lines: list = []
        self.current: list | None = None

    def read(self, lines: list) -> None:
        """Feed the stripped byte lines of a file, skipping blank and comment lines."""
        for lineno, line in enumerate(lines, 1):
            if not line or line.startswith(b"#"):
                continue
            if self.mode == "solutions":
                self.row(line, lineno)
            else:
                self.feed(line, lineno)

    def feed(self, line: bytes, lineno: int) -> None:
        """A header line: a ``key: value`` field or a histogram row."""
        if line.startswith(b"code "):
            raise ParseError("'code' line outside solutions block", lineno)
        if b":" in line:
            key, _, rest = line.partition(b":")
            self.field(key.strip().decode(), rest.strip(), lineno)
        elif self.mode == "hist":
            try:
                lvl, c0, c1, c2 = map(int, line.split())  # ValueError unless 4 ints
            except ValueError:
                raise ParseError(f"bad histogram line {line.decode()!r}", lineno) from None
            self.stats.child_hist[lvl] = [c0, c1, c2]
        else:
            raise ParseError(f"unexpected line {line.decode()!r}", lineno)

    def row(self, line: bytes, lineno: int) -> None:
        """A line of the solution block: a ``code`` line or a coordinate row."""
        if line.startswith(b"code "):
            bits = line[5:].strip().decode()
            if not bits or set(bits) - {"0", "1"}:
                raise ParseError(f"bad code {bits!r}", lineno)
            if self.n is None or len(bits) != self.n:
                raise ParseError(f"code of length {len(bits)}, expected n = {self.n}", lineno)
            self.codes.append(tuple(int(b) for b in bits))
            self.code_lines.append(lineno)
            self.current = []
            self.solutions.append(self.current)
            return
        if self.current is None:
            raise ParseError("coordinate row before any 'code' line", lineno)
        parts = line.split()
        if self.K is None or len(parts) != self.K:
            raise ParseError(f"expected {self.K} coordinates, got {len(parts)}", lineno)
        try:
            self.current.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(f"bad coordinate in {line.decode()!r}", lineno) from None

    def field(self, key: str, rest: bytes, lineno: int) -> None:
        if key == "format":
            if not rest.startswith(b"dgp-result"):
                raise ParseError(f"not a result file (format {rest.decode()!r})", lineno)
        elif key == "status":
            self.stats.budget_exceeded = rest == b"budget-exceeded"
        elif key in ("child_hist", "solutions"):
            self.mode = "hist" if key == "child_hist" else "solutions"
        elif key in ("dimension", "n", "max_window_residual") or key in _INT_FIELDS:
            try:
                value = float(rest) if key == "max_window_residual" else int(rest)
            except ValueError:
                raise ParseError(f"bad value {rest.decode()!r} for {key!r}", lineno) from None
            if key in ("dimension", "n"):
                if value < 1:
                    raise ParseError(f"{key} must be >= 1, got {value}", lineno)
                # n * K float64 values must fit one array's byte count
                other = (self.n if key == "dimension" else self.K) or 1
                limit = np.iinfo(np.intp).max // 8 // other
                if value > limit:
                    raise ParseError(f"{key} must be <= {limit}, got {value}", lineno)
            if key == "dimension":
                self.K = value
            elif key == "n":
                self.n = value
            elif key == "solution_count":
                self.count = value
            else:
                setattr(self.stats, key, value)
        else:
            raise ParseError(f"unknown field {key!r}", lineno)

    def result(self, lines: list) -> SolveResult:
        K, n, count, solutions = self.K, self.n, self.count, self.solutions
        if K is None or n is None or count is None:
            raise ParseError("missing required result fields")
        if len(solutions) != count:
            raise ParseError(f"solution_count says {count}, file has {len(solutions)}")
        for rows in solutions:
            if len(rows) != n:
                raise ParseError(f"solution has {len(rows)} rows, expected {n}")
        # (S, n, K): every shape was checked
        stack = np.asarray(solutions, dtype=float).reshape(count, n, K)
        if not np.isfinite(stack).all():
            index, row = np.argwhere(~np.isfinite(stack).all(-1))[0].tolist()
            raise ParseError("non-finite coordinate",
                             _row_line(lines, self.code_lines[index], row))
        return SolveResult(None, stack, self.codes, self.stats)


def _row_line(lines: list, code_line: int, row: int) -> int:
    """Line number of coordinate row ``row`` of the solution coded on ``code_line``.

    As in :func:`parse_result`, every line after a code line that is not
    blank or a comment is a coordinate row of that solution.
    """
    rows = (lineno for lineno, line in enumerate(lines[code_line:], code_line + 1)
            if line and not line.startswith(b"#"))
    return next(itertools.islice(rows, row, None))
