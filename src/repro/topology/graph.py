"""Connectivity graphs from positions and transmission range.

networkx is imported by the functions that build or test a graph, so
that importing the simulator does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["connectivity_graph", "ensure_connected_positions", "mean_degree"]


def connectivity_graph(positions: np.ndarray, range_m: float) -> nx.Graph:
    """Unit-disk connectivity graph: edge iff distance ≤ ``range_m``.

    Node ids are row indices of ``positions``.
    """
    if range_m <= 0:
        raise ValueError(f"range must be positive, got {range_m!r}")
    import networkx as nx

    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    if n > 1:
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        ii, jj = np.nonzero(np.triu(d <= range_m, k=1))
        g.add_edges_from(zip(ii.tolist(), jj.tolist()))
    for i in range(n):
        g.nodes[i]["pos"] = (float(pos[i, 0]), float(pos[i, 1]))
    return g


def ensure_connected_positions(
    generator,
    range_m: float,
    max_tries: int = 200,
) -> np.ndarray:
    """Draw placements from ``generator()`` until the unit-disk graph at
    ``range_m`` is connected.

    Raises
    ------
    RuntimeError
        If no connected placement appears within ``max_tries`` draws
        (density too low for the range).
    """
    import networkx as nx

    for _ in range(max_tries):
        pos = generator()
        if nx.is_connected(connectivity_graph(pos, range_m)):
            return pos
    raise RuntimeError(
        f"no connected placement within {max_tries} tries at range {range_m} m"
    )


def mean_degree(graph: nx.Graph) -> float:
    """Average node degree (network density proxy)."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    return 2.0 * graph.number_of_edges() / n
