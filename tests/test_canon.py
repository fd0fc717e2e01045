import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlat.canon import canonical_key
from permlat.lattice import (FiniteLattice, boolean2, b2_plus_top, chain_lattice,
                             enumerate_distributive_lattices, enumerate_lattices,
                             lattices_isomorphic, m3, n5, vertical_sum)
from permlat.spaces import _base_spaces


def _reference_key(matrix) -> tuple:
    """The kernel as first written: refinement and search read cells through
    a callable, profiles are tuples of labels, and no twin is skipped."""
    n = len(matrix)
    if n == 0:
        return ()

    def cell(i, j):
        return matrix[i][j]

    def ranked(signatures):
        order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        return [order[sig] for sig in signatures]

    sigs = [(cell(i, i), tuple(sorted((cell(i, j), cell(j, i)) for j in range(n) if j != i)))
            for i in range(n)]
    colors = ranked(sigs)
    while True:
        sigs = [(colors[i], tuple(sorted((colors[j], cell(i, j), cell(j, i))
                                         for j in range(n) if j != i)))
                for i in range(n)]
        new = ranked(sigs)
        if new == colors:
            break
        colors = new
    target = sorted(colors)
    best = None
    used = [False] * n
    perm = []

    def dfs(k, acc):
        nonlocal best
        if k == n:
            if best is None or acc < best:
                best = list(acc)
            return
        cands = []
        for i in range(n):
            if used[i] or colors[i] != target[k]:
                continue
            prof = [cell(i, i)]
            for q in perm:
                prof.append(cell(q, i))
                prof.append(cell(i, q))
            cands.append((tuple(prof), i))
        cands.sort()
        for prof, i in cands:
            acc.append(prof)
            if best is not None and acc > best[: len(acc)]:
                acc.pop()
                continue
            used[i] = True
            perm.append(i)
            dfs(k + 1, acc)
            perm.pop()
            used[i] = False
            acc.pop()

    dfs(0, [])
    return tuple(best)


def _poset_matrix(p):
    return [[(i == j, p.leq_idx(i, j), p.leq_idx(j, i)) for j in range(p.n)] for i in range(p.n)]


def permuted(matrix, perm):
    n = len(matrix)
    return [[matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def m_lattice(k):
    atoms = [f"a{i}" for i in range(k)]
    return FiniteLattice.from_cover_relations(
        ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


@st.composite
def matrices(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    labels = draw(st.integers(min_value=1, max_value=3))
    symmetric = draw(st.booleans())
    cells = st.integers(min_value=0, max_value=labels - 1)
    matrix = [[draw(cells) for _ in range(n)] for _ in range(n)]
    if symmetric:
        matrix = [[matrix[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return matrix


@st.composite
def blown_up(draw):
    """A matrix on at most 4 vertices with each vertex copied up to 3 times:
    copies of one vertex are twins, so the search must skip them exactly."""
    base = draw(matrices(max_n=4))
    copies = [draw(st.integers(min_value=1, max_value=3)) for _ in base]
    inner = [draw(st.integers(min_value=0, max_value=2)) for _ in base]
    owner = [a for a, c in enumerate(copies) for _ in range(c)][:7]
    return [[base[a][b] if a != b or i == j else inner[a] for j, b in enumerate(owner)]
            for i, a in enumerate(owner)]


@st.composite
def circulants(draw):
    """A relabelled circulant matrix: vertex-transitive, so refinement keeps
    one color and the search alone, with its ties, decides the key."""
    n = draw(st.integers(min_value=3, max_value=8))
    labels = draw(st.integers(min_value=2, max_value=3))
    offsets = [0] + [draw(st.integers(min_value=0, max_value=labels - 1)) for _ in range(n - 1)]
    if draw(st.booleans()):
        offsets = [offsets[min(d, n - d)] for d in range(n)]
    perm = draw(st.permutations(range(n)))
    return [[offsets[(perm[j] - perm[i]) % n] for j in range(n)] for i in range(n)]


@given(st.one_of(matrices(), blown_up(), circulants()))
@settings(max_examples=250, deadline=None)
def test_key_equals_the_reference_key(matrix):
    assert canonical_key(matrix) == _reference_key(matrix)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_key_is_permutation_invariant(seed, n):
    rng = random.Random(seed)
    matrix = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_key(matrix) == canonical_key(permuted(matrix, perm))


def test_lattice_keys_equal_the_reference_keys():
    for lat in [*enumerate_lattices(7), *enumerate_distributive_lattices(8)]:
        assert lat.key() == _reference_key(_poset_matrix(lat.poset))


def test_census_key_order_is_pinned():
    keys = [lat.key() for lat in enumerate_lattices(7)]
    assert len(keys) == 77
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "9afac8819930933e33a29b630d87076bbc4fa52ce154dd0206601098f05ca3ca")


@pytest.mark.parametrize("lat", [chain_lattice(2), chain_lattice(3), chain_lattice(4), boolean2(),
                                 chain_lattice(5), b2_plus_top(),
                                 vertical_sum(chain_lattice(1, ["s"]), boolean2())],
                         ids=["chain2", "chain3", "chain4", "b2", "chain5", "b2_top", "b2_bottom"])
def test_base_space_keys_equal_the_reference_keys(lat):
    for s in _base_spaces(lat, 3):
        assert canonical_key(s.dist) == _reference_key(s.dist)


def test_twin_atoms_keep_the_reference_key_and_stay_cheap():
    for k in range(3, 8):
        lat = m_lattice(k)
        assert lat.key() == _reference_key(_poset_matrix(lat.poset))
    start = time.perf_counter()
    atoms = [f"b{i}" for i in range(14)]
    relabelled = FiniteLattice.from_cover_relations(
        ["1", *reversed(atoms), "0"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])
    assert lattices_isomorphic(m_lattice(14), relabelled)
    assert time.perf_counter() - start < 1.0


def test_key_separates_non_isomorphic_small_graphs():
    path = [[1 if abs(i - j) == 1 else 0 for j in range(4)] for i in range(4)]
    cycle = [[1 if abs(i - j) in (1, 3) else 0 for j in range(4)] for i in range(4)]
    assert canonical_key(path) != canonical_key(cycle)


def test_lattice_isomorphism_ignores_labels():
    a = chain_lattice(4, ["w", "x", "y", "z"])
    b = chain_lattice(4, ["p", "q", "r", "s"])
    assert lattices_isomorphic(a, b)
    assert not lattices_isomorphic(a, boolean2())
    assert not lattices_isomorphic(m3(), n5())


def test_empty_structure_key():
    assert canonical_key([]) == ()
