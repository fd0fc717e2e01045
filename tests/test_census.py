"""An independent census of the age, against the subset index's pattern
totals and per-class type lists.

The enumerator below counts with no ``permlat`` code. It grows the finite
structures of the age one point at a time: each representative is extended
by every distance row over the non-bottom elements that keeps every
join-triangle, checked directly, and per order the new point joins the
bottom class of a point within the order's bottom of it, or else takes each
rank slot among the bottom classes within its top. A structure is its
matrix of pair codes, ``(distance, per-order codes)`` with the library's
order codes (0 same bottom class, 3 other top class, 1 below, 2 above), and
is keyed by the least matrix over all labellings, with the new point last
when it is marked.

A pattern at depth k is a base of at most k points with one consistent
1-type, up to isomorphism: a structure of at most k + 1 points with one
marked point. So on a sample that meets every class, ``check ext``'s
pattern total at depth k is the number of marked structures of 1 to k + 1
points.
"""

import itertools
import math

import pytest

from permlat.generic import (GenerationConfig, _CheckContext, extension_property_check,
                             generate_generic)
from permlat.lattice import boolean2, chain_lattice


class Age:
    """The age of the generic structure over a lattice given by its elements
    and order (``leq``), with orders given as (bottom, top) elements."""

    def __init__(self, elements, leq, orders):
        self.elements, self.leq, self.orders = list(elements), leq, orders
        self.bottom = next(e for e in elements if all(leq(e, f) for f in elements))
        self.nonzero = [e for e in elements if e != self.bottom]

    def join(self, x, y):
        upper = [e for e in self.elements if self.leq(x, e) and self.leq(y, e)]
        return next(e for e in upper if all(self.leq(e, f) for f in upper))

    def extensions(self, codes):
        """Every code matrix of ``codes`` (an n x n matrix, None on the
        diagonal) with one new point appended last."""
        n, leq = len(codes), self.leq
        for row in itertools.product(self.nonzero, repeat=n):
            if not all(leq(codes[i][k][0], self.join(row[i], row[k]))
                       and leq(row[k], self.join(row[i], codes[i][k][0]))
                       for i in range(n) for k in range(n) if i != k):
                continue
            for fields in itertools.product(*(self._placements(codes, row, t)
                                              for t in range(len(self.orders)))):
                out = [(row[i], tuple(f[i] for f in fields)) for i in range(n)]
                yield [codes[i] + [(row[i], tuple(3 - c if c in (1, 2) else c for c in out[i][1]))]
                       for i in range(n)] + [out + [None]]

    def _placements(self, codes, row, t):
        """The new point's codes to the old points for order t: one list
        when it joins an old bottom class, else one per rank slot."""
        bot, top = self.orders[t]
        n = len(codes)
        same = next((i for i in range(n) if self.leq(row[i], bot)), None)
        if same is not None:
            return [[0 if i == same else codes[same][i][1][t] for i in range(n)]]
        inside = [i for i in range(n) if self.leq(row[i], top)]
        # each old point within the top by its bottom class's least point,
        # and by the number of bottom classes below it in the scale
        rep = {i: min(j for j in inside if j == i or codes[j][i][1][t] == 0) for i in inside}
        place = {i: len({rep[j] for j in inside if j != i and codes[j][i][1][t] == 1})
                 for i in inside}
        return [[3 if i not in place else 2 if place[i] < slot else 1 for i in range(n)]
                for slot in range(len(set(rep.values())) + 1)]

    def census(self, size):
        """Per j = 1..size: (structures, marked structures), up to isomorphism."""
        layer, counts = {(): []}, []
        for j in range(1, size + 1):
            plain, marked = {}, set()
            for codes in layer.values():
                for grown in self.extensions(codes):
                    marked.add(_least(grown, itertools.permutations(range(j - 1)), last=j - 1))
                    plain.setdefault(_least(grown, itertools.permutations(range(j))), grown)
            layer = plain
            counts.append((len(plain), len(marked)))
        return counts


def _least(codes, perms, last=None):
    # the least flattened code matrix over the labellings, the marked point
    # kept last; the diagonal's None cells meet only each other
    n = len(codes)
    flat = [c for row in codes for c in row]
    best = None
    for perm in perms:
        perm = perm if last is None else perm + (last,)
        key = tuple([flat[perm[u] * n + perm[v]] for u in range(n) for v in range(n)])
        if best is None or key < best:
            best = key
    return best


# the lattices as the census numbers their elements, with the library's
# lattice and orders for each
CHAIN3 = Age([0, 1, 2], int.__le__, [(0, 1), (1, 2)])      # 0 < E < 1, orders 0:E,E:1
CHAIN2 = Age([0, 1], int.__le__, [(0, 1), (0, 1)])         # 0 < 1, orders 0:1,0:1
# B2 as subsets of {a, b}: 0, a, b, 1 = 0b00, 0b01, 0b10, 0b11; orders a:1,b:1
B2 = Age([0, 1, 2, 3], lambda x, y: x & ~y == 0, [(1, 3), (2, 3)])
LIBRARY = {   # name: (census, library lattice, its elements in census order, orders)
    "chain3": (CHAIN3, lambda: chain_lattice(3, ["0", "E", "1"]), ("0", "E", "1"),
               [("0", "E"), ("E", "1")]),
    "chain2": (CHAIN2, lambda: chain_lattice(2, ["0", "1"]), ("0", "1"), [("0", "1"), ("0", "1")]),
    "b2": (B2, boolean2, ("0", "a", "b", "1"), [("a", "1"), ("b", "1")]),
}


@pytest.fixture(scope="module")
def censuses():
    return {"chain3": CHAIN3.census(5), "chain2": CHAIN2.census(5), "b2": B2.census(3)}


def test_the_census_gives_the_closed_forms(censuses):
    # the 3-chain's structures are the compositions of j, the 2-chain's with
    # two orders the permutations of j (Cameron, "Homogeneous permutations")
    assert [plain for plain, _ in censuses["chain3"]] == [2 ** (j - 1) for j in range(1, 6)]
    assert [plain for plain, _ in censuses["chain2"]] == [math.factorial(j) for j in range(1, 6)]
    assert [plain for plain, _ in censuses["b2"]] == [1, 4, 24]


def _patterns(census, k):
    return sum(marked for _, marked in census[:k + 1])


def test_the_census_totals_as_measured(censuses):
    assert _patterns(censuses["chain3"], 3) == 49
    assert _patterns(censuses["chain2"], 3) == 119
    assert (_patterns(censuses["b2"], 1), _patterns(censuses["b2"], 2)) == (9, 81)


# samples that meet every class of at most k points, with the depths k
# read: the sixteen pipeline benchmark structures (the 3-chain at N=20,
# depth 3, pool seeds 0-15), and one each of chain2 and B2; chain2's two
# orders share bottom and top, which generation warns of
_SAMPLES = [pytest.param("chain3", 20, 3, seed, (3,), id=f"chain3-seed{seed}")
            for seed in range(16)] + [
    pytest.param("chain2", 12, 3, 0, (3,), id="chain2",
                 marks=pytest.mark.filterwarnings("ignore:two subquotient orders share")),
    pytest.param("b2", 16, 3, 3, (1, 2), id="b2"),
]


@pytest.mark.parametrize("name, size, depth, seed, ks", _SAMPLES)
def test_a_sample_meeting_every_class_has_the_census_patterns(censuses, name, size, depth, seed,
                                                              ks):
    # check ext's pattern total is the census's marked structures of at most
    # k + 1 points; every class of at most k points is met, and its types are
    # the one-point extensions of its base listed in class order, told apart
    # by the new point's row of codes
    age, make, elements, sig = LIBRARY[name]
    census, lat = censuses[name], make()
    assert lat.elements == elements
    cfg = GenerationConfig(seed=seed, target_size=size, saturation_depth=depth)
    s = generate_generic(lat, sig, cfg, with_saturation_report=False).structure
    for k in ks:
        assert extension_property_check(s, k).pattern_total == _patterns(census, k)
    ctx = _CheckContext(s)
    list(ctx.sweep(ks[-1]))
    assert len(ctx._classes) == 1 + sum(plain for plain, _ in census[:ks[-1]])
    for cls in ctx._classes.values():
        codes = [[None if u == v else c for v, c in enumerate(row)]
                 for u, row in enumerate(cls.matrix)]
        assert len(cls.types) == len({tuple(grown[-1][:-1]) for grown in age.extensions(codes)})
