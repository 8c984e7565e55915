"""Linear-programming formulation of Maxflow (scipy ``linprog``).

The paper cites [27] (Kosyfaki et al.) as solving temporal Maxflow with an
LP and reports that the LP "cannot handle temporal networks with more than
10K edges".  This module reproduces that baseline so the benchmark suite
can demonstrate the same scaling cliff against Dinic.

Formulation: one variable per edge, ``0 <= x_e <= c_e`` (infinite
capacities replaced by a finite surrogate exceeding the total finite
capacity); conservation equality at every node except source and sink;
objective: maximise net flow out of the source.

numpy and scipy are imported on the first call, so importing the solver
registry does not load them.
"""

from __future__ import annotations

import math

from repro.exceptions import SolverError
from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.network import FlowNetwork


def lp_maxflow(network: FlowNetwork, source: int, sink: int) -> MaxflowRun:
    """Solve Maxflow as a linear program.  Does not mutate the network.

    Raises:
        SolverError: if scipy is not installed, or if the LP solver fails
            to converge.
    """
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:
        raise SolverError(
            "maxflow solver 'lp' requires the optional scipy package"
        ) from None
    if source == sink:
        return MaxflowRun(value=0.0)
    edges: list[tuple[int, int]] = []  # (tail, head)
    upper: list[float] = []
    finite_total = 0.0
    for tail, arc in network.iter_edges():
        if network.is_retired(tail) or network.is_retired(arc.head):
            continue
        reverse_cap = network._adj[arc.head][arc.rev].cap  # noqa: SLF001
        capacity = arc.cap if math.isinf(arc.cap) else arc.cap + reverse_cap
        edges.append((tail, arc.head))
        upper.append(capacity)
        if math.isfinite(capacity):
            finite_total += capacity
    if not edges:
        return MaxflowRun(value=0.0)
    surrogate = finite_total + 1.0
    upper = [u if math.isfinite(u) else surrogate for u in upper]

    num_edges = len(edges)
    # Objective: maximise sum(out of source) - sum(into source).
    cost = np.zeros(num_edges)
    for j, (tail, head) in enumerate(edges):
        if tail == source:
            cost[j] -= 1.0
        if head == source:
            cost[j] += 1.0

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    node_row: dict[int, int] = {}
    for j, (tail, head) in enumerate(edges):
        for node, sign in ((tail, -1.0), (head, 1.0)):
            if node in (source, sink):
                continue
            row = node_row.setdefault(node, len(node_row))
            rows.append(row)
            cols.append(j)
            data.append(sign)
    if node_row:
        a_eq = csr_matrix(
            (data, (rows, cols)), shape=(len(node_row), num_edges)
        )
        b_eq = np.zeros(len(node_row))
    else:
        a_eq = None
        b_eq = None

    result = linprog(
        c=cost,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=list(zip([0.0] * num_edges, upper)),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"LP maxflow failed: {result.message}")
    return MaxflowRun(value=-float(result.fun), augmenting_paths=0, phases=0)
