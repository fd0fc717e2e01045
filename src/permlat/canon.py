"""Canonical forms for small relational structures.

Works on any structure presented as a square cell matrix whose entries are
mutually comparable hashable labels (the diagonal carries vertex labels).
Canonicalization is iterative color refinement followed by backtracking over
color-respecting permutations (McKay 1998; McKay & Piperno 2014). The labels
are ranked once, so refinement signatures and search profiles are ints, or
tuples of ints, that sort exactly like the labels they stand for; the key is
read off the matrix at the end.

The search skips twins: vertices whose transposition is an automorphism
(equal diagonal, symmetric cells between them, equal rows and columns against
every other vertex). A twin is tried only after every smaller member of its
class is placed; the swap fixes every vertex already placed, so this prunes
no encoding. When every color class is a single vertex or a single class of
twins (a fully symmetric antichain, the atoms of M_k), there is one listing
and no search. Automorphisms that transpositions do not generate (the atoms
of a Boolean lattice, the rotations of a cycle) are not pruned; structures
here, at most 16 elements, can afford that.
"""

from __future__ import annotations


def _ranked(signatures: list) -> list[int]:
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def canonical_key(matrix) -> tuple:
    """Canonical form of a square cell matrix: two matrices get equal keys
    iff they are isomorphic.

    The key is the lexicographically minimal staircase encoding of the matrix
    over all permutations that list refined color classes in ascending order:
    row k of the key is the diagonal cell of the k-th listed vertex, then its
    cells from and to each earlier listed vertex.
    """
    n = len(matrix)
    if n == 0:
        return ()
    rank = {v: r for r, v in enumerate(sorted({v for row in matrix for v in row}))}
    m = len(rank)
    cells = [[rank[v] for v in row] for row in matrix]
    # pair[i][j] stands for (cell(i, j), cell(j, i))
    pair = [[a * m + b for a, b in zip(row, col)] for row, col in zip(cells, zip(*cells))]
    mm = m * m

    colors = _ranked([(cells[i][i], tuple(sorted([p for j, p in enumerate(pair[i]) if j != i])))
                      for i in range(n)])
    while max(colors) < n - 1:
        new = _ranked([(colors[i], tuple(sorted([colors[j] * mm + p
                                                 for j, p in enumerate(pair[i]) if j != i])))
                       for i in range(n)])
        if new == colors:
            break
        colors = new

    classes: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for i, c in enumerate(colors):
        classes[c].append(i)
    # prev[v]: the largest smaller twin of v, or -1. One color implies an
    # equal diagonal and symmetric cells between the two (their pair
    # multisets agree), so only the rows against the rest are compared.
    prev = [-1] * n
    for members in classes:
        for idx, v in enumerate(members):
            pv = pair[v]
            for u in reversed(members[:idx]):
                pu = pair[u]
                if all(pu[w] == pv[w] for w in range(n) if w != u and w != v):
                    prev[v] = u
                    break
    if all(prev[v] >= 0 for members in classes for v in members[1:]):
        # every class is discrete or one twin class: a single listing
        best_perm = [v for members in classes for v in members]
    else:
        level = [members for members in classes for _ in members]
        best: list[int] = []
        best_perm = []
        used = [False] * n
        perm: list[int] = []
        acc: list[int] = []

        def dfs(k: int, codes: list[int], tied: bool) -> bool:
            """Extend ``perm`` from level k; ``codes[i]`` encodes vertex i's
            profile against ``perm``, and ``tied`` says ``acc`` equals
            ``best``'s prefix. Returns whether ``best`` was replaced."""
            nonlocal best, best_perm
            if k == n:
                if tied:
                    return False
                best, best_perm = acc[:], perm[:]
                return True
            replaced = False
            cands = sorted((codes[i], i) for i in level[k]
                           if not used[i] and (prev[i] < 0 or used[prev[i]]))
            for code, i in cands:
                if tied:
                    if code > best[k]:
                        break
                    child_tied = code == best[k]
                else:
                    child_tied = False
                acc.append(code)
                used[i] = True
                perm.append(i)
                pi = pair[i]
                if dfs(k + 1, [c * mm + p for c, p in zip(codes, pi)], child_tied):
                    replaced = tied = True
                perm.pop()
                used[i] = False
                acc.pop()
            return replaced

        dfs(0, [cells[i][i] for i in range(n)], False)

    return tuple((matrix[i][i], *[c for q in best_perm[:k] for c in (matrix[q][i], matrix[i][q])])
                 for k, i in enumerate(best_perm))
