"""Builders of small Λ-ultrametric spaces for the tests."""

import itertools

from permlat.lattice import FiniteLattice
from permlat.spaces import LambdaSpace, validate_space


def space_from_distances(lattice: FiniteLattice, points, distances: dict) -> LambdaSpace:
    """``distances`` maps unordered point pairs to element names; pairs it
    leaves out are at the lattice bottom."""
    points = tuple(points)
    idx = {p: i for i, p in enumerate(points)}
    n = len(points)
    bot = lattice.bottom_idx
    dist = [[bot] * n for _ in range(n)]
    for (x, y), lam in distances.items():
        i, j = idx[x], idx[y]
        e = lattice.index[lam]
        dist[i][j] = e
        dist[j][i] = e
    return LambdaSpace(lattice, points, tuple(map(tuple, dist)))


def all_spaces(lat: FiniteLattice, n_points: int):
    """Every valid space on n_points named points."""
    names = tuple(f"p{i}" for i in range(n_points))
    pairs = list(itertools.combinations(range(n_points), 2))
    for values in itertools.product(lat.nonzero_idx(), repeat=len(pairs)):
        dist = [[lat.bottom_idx] * n_points for _ in range(n_points)]
        for (i, j), v in zip(pairs, values):
            dist[i][j] = dist[j][i] = v
        s = LambdaSpace(lat, names, tuple(map(tuple, dist)))
        if validate_space(s).ok:
            yield s
