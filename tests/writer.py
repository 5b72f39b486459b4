"""The writers the package's bulk formatters are checked against.

``serialize_result_by_solution`` formats every coordinate of every solution
with one ``%.17g`` template per solution, whether or not the row repeats a
row of the solution before; ``plot_table_by_row`` formats the ``solve --plot``
table one coordinate at a time.  Both are slow on large trees, but easy to
trust.
"""


def serialize_result_by_solution(result) -> str:
    """Plain-text form of a solve result, one solution at a time."""
    stats = result.stats
    if stats.budget_exceeded:
        status = "budget-exceeded"
    elif result.solution_count:
        status = "solved"
    else:
        status = "infeasible"
    n, K = result.solutions.shape[1:]
    lines = [
        "format: dgp-result 1",
        f"status: {status}",
        f"dimension: {K}",
        f"n: {n}",
        f"solution_count: {len(result.solutions)}",
        f"nodes_feasible: {stats.nodes_feasible}",
        f"nodes_infeasible: {stats.nodes_infeasible}",
        f"candidates_pruned: {stats.candidates_pruned}",
        f"empty_extensions: {stats.empty_extensions}",
        f"tangent_events: {stats.tangent_events}",
        f"max_window_residual: {stats.max_window_residual:.17g}",
        "child_hist:",
    ]
    for lvl in sorted(stats.child_hist):
        c0, c1, c2 = stats.child_hist[lvl]
        lines.append(f"{lvl} {c0} {c1} {c2}")
    lines.append("solutions:")
    block = "\n".join([" ".join(["%.17g"] * K)] * n)
    for code, emb in zip(result.branch_codes, result.solutions):
        lines.append("code " + "".join(map(str, code)))
        lines.append(block % tuple(emb.ravel().tolist()))
    return "\n".join(lines) + "\n"


def plot_table_by_row(solutions, K: int) -> str:
    """The ``solve --plot`` table, one row per (solution, vertex)."""
    rows = ["solution\tvertex\t" + "\t".join(f"x{j + 1}" for j in range(K))]
    for i, emb in enumerate(solutions):
        for vtx, point in enumerate(emb, start=1):
            rows.append(f"{i}\t{vtx}\t" + "\t".join("%.17g" % c for c in point))
    return "\n".join(rows) + "\n"
