"""One benchmark step in a fresh interpreter, optionally traced.

    python3 child.py cli SPANS -- DGBP-ARGS...
        Run ``dgbp.cli.main(DGBP-ARGS)`` like the ``dgbp`` console script,
        with timing wrappers installed; spans go to SPANS.

    python3 child.py library SPANS INSTANCE U V
        The symmetry_tree operation through the library, in the current
        directory: solve with the tree kept, then verify_orbit and
        distance_spectrum(U, V), then the brute-force oracle compared through
        recompute_code.  Outputs are written with the CLI's write_output.
        Step timestamps and check data go to op.json.  SPANS may be ``-``
        for an untraced run.

Timestamps are ``time.perf_counter`` values, which share one monotonic clock
with the parent process.
"""

import json
import resource
import sys
import time

import tracing


def run_library(inst_path, u, v):
    from dgbp import cli, instance, solver, symmetry

    t = {}
    started = time.perf_counter()
    with open(inst_path, encoding="utf-8") as fh:
        inst = instance.parse_instance(fh.read())
    result = solver.solve(inst, solver.SolverOptions(keep_tree=True))
    manifest = cli.RunManifest(f"library {inst_path}", (inst_path,), ("result.txt",))
    cli.write_output("result.txt", manifest, solver.serialize_result(result), started)
    t["solve"] = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = symmetry.verify_orbit(result)
    spectrum = symmetry.distance_spectrum(result, u, v)
    manifest = cli.RunManifest(f"library {inst_path}", ("result.txt",), ("symmetry.txt",))
    cli.write_output("symmetry.txt", manifest, symmetry.serialize_report(report), started)
    t["analyze"] = time.perf_counter()

    edge_failures = sum(len(instance.edge_violations(inst, emb)) for emb in result.solutions)
    oracle = solver.brute_force(inst)
    oracle_codes = {solver.recompute_code(inst, emb) for emb in oracle}
    t["verify"] = time.perf_counter()

    checks = report.reflection_checks
    out = {
        "t": t,
        "rss_mb": rss_mb,
        "orbit_verified": report.orbit_verified,
        "power_of_two": report.power_of_two,
        "degenerate": report.degenerate,
        "reflection_checks": len(checks),
        "reflection_mismatches": sum(not c.code_matches for c in checks),
        "reflection_max_residual": max((c.residual for c in checks), default=0.0),
        "spectrum_size": len(spectrum),
        "edge_failures": edge_failures,
        "oracle_matches": oracle_codes == set(result.branch_codes),
    }
    with open("op.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def main():
    mode, spans = sys.argv[1], sys.argv[2]
    import dgbp.cli  # cli.import_s runs from the spawn to the end of this import

    imported = time.perf_counter()
    recorder = None if spans == "-" else tracing.Recorder()
    if recorder is not None:
        recorder.install()
    try:
        if mode == "cli":
            with recorder.span("cli.main"):
                return dgbp.cli.main(sys.argv[4:])
        return run_library(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
    finally:
        if recorder is not None:
            recorder.dump(spans, imported=imported)


if __name__ == "__main__":
    sys.exit(main())
