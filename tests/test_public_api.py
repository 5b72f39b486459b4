"""The public surface: ``dgbp.__all__`` and the README's *Library* example."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import dgbp

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    # errors
    "AmbiguousSpectrum", "BudgetExceeded", "DegenerateSpan", "DgbpError", "DimensionMismatch",
    "GenericityFailure", "InvalidInstance", "NegativeDeterminant", "NodeBudgetExceeded",
    "NoSiblingBranch", "ParseError", "SubtreeNotFull",
    # geometry
    "ExtensionStack", "cayley_menger_volume", "extend_stack", "level_table", "reflect_stack",
    # instances
    "Instance", "ValidationReport", "Violation", "ViolationCode", "counterexample",
    "edge_violations", "parse_instance", "random_instance", "regular_simplex",
    "serialize_instance", "stacked_edge_violations", "validate",
    # search and results
    "SolveResult", "SolveStats", "SolverOptions", "brute_force", "parse_result",
    "recompute_code", "recompute_codes", "serialize_result", "solve",
    # symmetry
    "ReflectionCheck", "SymmetryReport", "branch_levels", "branches_both_ways",
    "distance_spectrum", "partial_reflection", "serialize_report", "suffix_flip", "verify_orbit",
}


def library_example() -> str:
    """The first ``python`` block of the README's *Library* section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_pinned():
    assert len(dgbp.__all__) == len(PUBLIC)
    assert set(dgbp.__all__) == PUBLIC
    assert all(hasattr(dgbp, name) for name in dgbp.__all__)


def test_star_import_yields_no_module():
    namespace: dict = {}
    exec("from dgbp import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]


def test_readme_library_example_runs():
    code = library_example()
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "dgbp"
                for alias in node.names}
    assert imported and imported <= PUBLIC
    # What the example's comments claim.
    checks = ("\nfrom dgbp import branches_both_ways\n"
              "assert report.reflection_checks\n"
              "assert branches_both_ways(result, 0, 3)\n"
              "assert codes == result.branch_codes\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code + checks], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
