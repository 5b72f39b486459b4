"""The benchmark's library operation, run the way perfbench/run.py runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

from dgbp.instance import random_instance, serialize_instance

ROOT = Path(__file__).resolve().parent.parent


def test_library_operation_contract(tmp_path):
    inst, _ = random_instance(2, 8, 0.0, 8)
    (tmp_path / "inst.txt").write_text(serialize_instance(inst), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "library", "-",
         "inst.txt", "4", "8"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "op.json").read_text(encoding="utf-8"))
    assert out["reflection_checks"] == 64 * 6  # every level of a full tree branches
    assert out["reflection_mismatches"] == 0
    assert out["reflection_max_residual"] <= 1e-9
    assert out["spectrum_size"] == 4
    assert out["oracle_matches"] is True
    assert out["orbit_verified"] and out["power_of_two"] and not out["degenerate"]
