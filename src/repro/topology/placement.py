"""Node placement generators.

All generators return an ``(n, 2)`` float array of positions in metres.
Mesh-router evaluations use grids (the canonical WMN backbone layout in
this group's papers: n×n routers at 200 m spacing); random uniform
placement covers the irregular-deployment scenarios.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grid_positions", "random_positions"]


def grid_positions(
    nx: int, ny: int, spacing_m: float = 200.0, origin: tuple[float, float] = (0.0, 0.0)
) -> np.ndarray:
    """Rectangular nx × ny grid with ``spacing_m`` between neighbours.

    >>> grid_positions(2, 2, 100.0).tolist()
    [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]]
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid dimensions must be ≥ 1, got {nx}×{ny}")
    if spacing_m <= 0:
        raise ValueError(f"spacing must be positive, got {spacing_m!r}")
    xs, ys = np.meshgrid(
        origin[0] + spacing_m * np.arange(nx),
        origin[1] + spacing_m * np.arange(ny),
    )
    return np.column_stack([xs.ravel(), ys.ravel()]).astype(float)


def random_positions(
    n: int,
    area_m: tuple[float, float],
    rng: np.random.Generator,
    min_separation_m: float = 0.0,
    max_attempts: int = 10_000,
) -> np.ndarray:
    """``n`` points uniform in ``[0, w] × [0, h]``.

    With ``min_separation_m > 0``, rejection-samples so no two nodes are
    closer than the separation (physically co-located radios distort both
    the PHY and the load metric).

    Raises
    ------
    RuntimeError
        If the separation constraint cannot be met within ``max_attempts``
        draws (area too dense).
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    w, h = area_m
    if w <= 0 or h <= 0:
        raise ValueError(f"area must be positive, got {area_m!r}")
    if min_separation_m <= 0:
        pts = rng.uniform([0.0, 0.0], [w, h], size=(n, 2))
        return pts.astype(float)
    placed: list[np.ndarray] = []
    attempts = 0
    while len(placed) < n:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not place {n} nodes with separation "
                f"{min_separation_m} m in {area_m} after {max_attempts} draws"
            )
        p = rng.uniform([0.0, 0.0], [w, h])
        if all(np.hypot(*(p - q)) >= min_separation_m for q in placed):
            placed.append(p)
    return np.array(placed, dtype=float)
