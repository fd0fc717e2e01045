import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permlat.errors import MissingMeetIrreducibleError, SizeCapError
from permlat.generic import GenerationConfig, generate_generic
from permlat.lattice import (b2_plus_top, dimension_bounds, enumerate_distributive_lattices,
                             lambda0_poset, lattices_isomorphic, meet_irreducibles)
from permlat.permstruct import (PermStructure, cameron_enumeration, decode_relations,
                                encode_orders, profile, two_order_catalog_parameters,
                                _composition, _convex_in_order,
                                _partition_from_types)
from permlat.sqorders import OrderedLambdaStructure, SubquotientOrder
from space_helpers import space_from_distances


def gen(lat, sig, seed=11, size=40, depth=2):
    cfg = GenerationConfig(seed=seed, target_size=size, saturation_depth=depth)
    return generate_generic(lat, sig, cfg, with_saturation_report=False).structure


@pytest.fixture
def block8(chain3):
    # hand-built 8-point 3-chain structure: 4 E-blocks of 2, within-order and
    # between-order explicit
    dd = {}
    for i, j in itertools.combinations(range(8), 2):
        dd[(f"x{i}", f"x{j}")] = "E" if i // 2 == j // 2 else "1"
    space = space_from_distances(chain3, [f"x{i}" for i in range(8)], dd)
    within = SubquotientOrder.from_ranks(space, "0", "E",
                                         {f"x{i}": i % 2 for i in range(8)})
    between = SubquotientOrder.from_ranks(space, "E", "1",
                                          {f"x{i}": i // 2 for i in range(0, 8, 2)})
    return OrderedLambdaStructure(space, (within, between))


def test_encode_three_chain_worked_example(block8, chain3):
    # two emitted orders; same E-block iff the orders disagree
    enc = encode_orders(block8, seed=4)
    assert enc.emitted == 2
    p = enc.perm
    for x, y in itertools.permutations(p.points, 2):
        same_block = block8.space.d(x, y) == "E"
        disagree = p.less(0, x, y) == p.less(1, y, x)
        assert same_block == disagree
    # codebook recovers both input orders exactly
    for idx, o in enumerate(block8.orders):
        vs = enc.codebook.order_vectors[idx]
        for x, y in itertools.permutations(p.points, 2):
            assert o.less(x, y) == (p.vector(x, y) in vs)


def test_encode_requires_all_meet_irreducibles(chain3):
    s = gen(chain3, [("E", "1")], size=8)  # bottom 0 has no order
    with pytest.raises(MissingMeetIrreducibleError):
        encode_orders(s)


def test_two_generic_orders_encode_as_themselves(chain2):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = gen(chain2, [("0", "1"), ("0", "1")], size=20)
    enc = encode_orders(s, seed=1)
    assert enc.emitted == 2
    assert enc.codebook.relation_vectors["1"] == frozenset(
        {(0, 0), (0, 1), (1, 0), (1, 1)})
    dec = decode_relations(enc.perm)
    assert len(dec.relations) == 2  # only equality and the trivial relation


def test_auto_cover_meets_the_upper_dimension_bound():
    # the cheapest chain cover of Lambda0, not any with the fewest chains:
    # on two of these lattices a fewest-chains cover costs more orders
    for lat in enumerate_distributive_lattices(8):
        if not lambda0_poset(lat).n:
            continue
        mi = meet_irreducibles(lat)
        enc = encode_orders(gen(lat, [(e, mi.cover[e]) for e in mi.elements], size=6, depth=1))
        assert enc.bound == dimension_bounds(lat).upper == enc.emitted == enc.perm.n


def test_b2_plus_point_round_trip():
    lat = b2_plus_top()
    mi = meet_irreducibles(lat)
    sig = [(e, mi.cover[e]) for e in mi.elements]
    s = gen(lat, sig, size=50, depth=3, seed=5)
    enc = encode_orders(s, seed=5)
    assert enc.emitted <= enc.bound
    dec = decode_relations(enc.perm)
    assert lattices_isomorphic(dec.lattice, lat)
    assert dec.distributive


def test_decode_identity_structure():
    ranks = tuple(range(20))
    p = PermStructure(tuple(f"v{i}" for i in range(20)), (ranks, ranks))
    dec = decode_relations(p)
    assert len(dec.relations) == 2
    assert dec.relations[0].partition == tuple((x,) for x in p.points)
    assert len(dec.relations[1].partition) == 1


def random_perm(seed: int, N: int, n: int) -> PermStructure:
    """One shuffled rank column per order, drawn from ``random.Random(seed)``;
    point p{i} takes the i-th entry of each column."""
    rng = random.Random(seed)
    columns = []
    for _ in range(n):
        column = list(range(N))
        rng.shuffle(column)
        columns.append(tuple(column))
    return PermStructure(tuple(f"p{i}" for i in range(N)), tuple(columns))


def test_decode_stops_once_the_closed_sets_pass_the_lattice_cap():
    # a random 12-point, 8-order sample has far more closed unions of
    # orientation types than the 16 a lattice may have: the search stops at
    # the 17th instead of enumerating them all
    with pytest.raises(SizeCapError, match="got more than 16 closed unions of orientation types"):
        decode_relations(random_perm(4, 12, 8))


def test_decoded_meet_irreducibles_are_convex_somewhere(block8):
    enc = encode_orders(block8, seed=2)
    dec = decode_relations(enc.perm)
    for r in dec.relations:
        if r.meet_irreducible:
            assert len(r.convex_in_orders) >= 1


def test_recovered_lattice_distributive_on_catalog_samples(chain4):
    mi = meet_irreducibles(chain4)
    sig = [(e, mi.cover[e]) for e in mi.elements]
    s = gen(chain4, sig, size=40, depth=2, seed=9)
    dec = decode_relations(encode_orders(s, seed=9).perm)
    assert dec.distributive


# -- profiles -----------------------------------------------------------------


def test_profile_identity_structure_two_types():
    ranks = tuple(range(10))
    p = PermStructure(tuple(f"v{i}" for i in range(10)), (ranks, ranks))
    assert len(profile(p, 2)) == 2


def test_profile_of_too_few_points_has_no_type():
    # no zero counts: a k-subset of fewer than k points does not exist
    for N in range(3):
        p = PermStructure(tuple(f"v{i}" for i in range(N)), (tuple(range(N)),))
        for k in range(5):
            assert dict(profile(p, k)) == ({(): 1} if k == 0 else {} if N < k else
                                           {(): N} if k == 1 else {(0, 1): 1, (1, 0): 1})


def test_profile_refuses_k_above_4():
    # the count is exhaustive over k-subsets, so sizes past 4 are capped
    p = PermStructure(("v0", "v1"), ((0, 1),))
    with pytest.raises(SizeCapError):
        profile(p, 5)


def test_profile_generic_two_orders_four_types(chain2):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = gen(chain2, [("0", "1"), ("0", "1")], size=30, depth=3)
    p = PermStructure(s.space.points, tuple(o.point_ranks for o in s.orders))
    assert len(profile(p, 2)) == 4


def test_reversal_and_identity_profiles_differ():
    ranks = tuple(range(10))
    rev = tuple(9 - r for r in ranks)
    ident = PermStructure(tuple(f"v{i}" for i in range(10)), (ranks, ranks))
    reversal = PermStructure(tuple(f"v{i}" for i in range(10)), (ranks, rev))
    assert set(profile(ident, 2)) != set(profile(reversal, 2))


# -- the two-order catalog ----------------------------------------------------


def test_cameron_five_distinct_profiles():
    result = cameron_enumeration(30, seed=3)
    assert result.distinct == len(two_order_catalog_parameters()) == 5


def test_cameron_profiles_are_pinned():
    result = cameron_enumeration(40, seed=0)
    digest = hashlib.sha256(repr(sorted(result.profiles.items())).encode()).hexdigest()
    assert digest == "8fe4564664cefa3199215995c61112ae1a4c631707a62286d11647812475918d"


def test_three_chain_block_instances_are_mutually_reverse():
    result = cameron_enumeration(30, seed=3)
    a = dict(result.profiles[("3chain", "within-reversed")])
    b = dict(result.profiles[("3chain", "between-reversed")])

    def flip_second_order(key):
        # reverse order 2 in every pair vector of the type key
        return tuple(v ^ 0b10 for v in key)

    assert {flip_second_order(k): c for k, c in a.items()} == b


def test_equal_orders_profile_is_doubled_linear_order():
    result = cameron_enumeration(30, seed=3)
    prof = dict(result.profiles[("2chain", "equal")])
    # both orders agree on every pair: vectors 0b11 and 0b00 only
    for key in prof:
        assert set(key) <= {0b00, 0b11}


# -- the kernels against the plain loops ------------------------------------------


def _vector(p, i, j):
    return sum(1 << t for t in range(p.n) if p.ranks[t][i] < p.ranks[t][j])


def reference_vectors(p):
    """The orientation table by one comprehension over the points per point
    and order."""
    rows = []
    for i in range(p.N):
        row = [0] * p.N
        for t, r in enumerate(p.ranks):
            bit, ri = 1 << t, r[i]
            row = [v | bit if ri < rj else v for v, rj in zip(row, r)]
        rows.append(tuple(row))
    return tuple(rows)


def reference_realized(p):
    """The vectors of the N(N-1)/2 pairs below the diagonal and their
    complements, ascending."""
    below = {_vector(p, i, j) for i, j in itertools.combinations(range(p.N), 2)}
    return tuple(sorted(below | {v ^ (1 << p.n) - 1 for v in below}))


def reference_composition(p):
    """The composition table over every triple of distinct points."""
    vec = [[_vector(p, i, j) for j in range(p.N)] for i in range(p.N)]
    comp = {}
    for i, j, k in itertools.permutations(range(p.N), 3):
        comp.setdefault((vec[i][j], vec[j][k]), set()).add(vec[i][k])
    return comp


def reference_partition(p, sset):
    """Blocks by a union-find over every pair whose vector is in ``sset``."""
    parent = list(range(p.N))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(p.N), 2):
        if _vector(p, i, j) in sset:
            ri, rj = find(i), find(j)
            parent[max(ri, rj)] = min(ri, rj)
    blocks = {}
    for i in range(p.N):
        blocks.setdefault(find(i), []).append(i)
    return [blocks[k] for k in sorted(blocks)]


def reference_convex(p, blocks, order):
    """Scan the points by rank: no block may come back once left."""
    block_of = {i: b for b, block in enumerate(blocks) for i in block}
    by_rank = sorted(range(p.N), key=lambda i: p.ranks[order][i])
    left, current = set(), None
    for i in by_rank:
        if block_of[i] != current:
            if block_of[i] in left:
                return False
            left.add(current)
            current = block_of[i]
    return True


def reference_profile(p, k):
    """The k-point profile over every labeled k-tuple."""
    out = Counter()
    for sub in itertools.combinations(range(p.N), k):
        for perm in itertools.permutations(sub):
            out[tuple(_vector(p, perm[u], perm[v])
                      for u in range(k) for v in range(k) if u != v)] += 1
    return out


@st.composite
def perm_structures(draw, max_orders=10):
    """0 to ``max_orders`` random orders on 0-12 points; past 8 orders an
    orientation row takes two bytes per digit."""
    N = draw(st.integers(0, 12))
    ranks = tuple(tuple(draw(st.permutations(range(N))))
                  for _ in range(draw(st.integers(0, max_orders))))
    return PermStructure(tuple(f"v{i}" for i in range(N)), ranks)


@settings(max_examples=80, deadline=None)
@given(perm_structures(), st.integers(0, 4))
@example(PermStructure(("v0", "v1"), ((1, 0), (0, 1))), 3)   # k > N: no subset
@example(PermStructure((), ()), 0)
@example(PermStructure(("v0", "v1", "v2"), ((0, 1, 2),) * 9 + ((2, 1, 0),) * 8), 2)
def test_composition_and_profile_match_the_plain_loops(p, k):
    assert p.vectors == reference_vectors(p)
    assert p.realized == reference_realized(p)
    assert _composition(p) == reference_composition(p)
    assert profile(p, k) == reference_profile(p, k)
    assert all(p.vector_idx(i, j) == _vector(p, i, j)
               for i in range(p.N) for j in range(p.N))


@settings(max_examples=80, deadline=None)
@given(perm_structures(max_orders=4), st.data())
def test_partitions_and_convexity_match_the_plain_loops(p, data):
    # every closed set decode finds, and blocks from an arbitrary labelling
    dec = decode_relations(p)
    for r in dec.relations:
        sset = frozenset(sum(b << t for t, b in enumerate(v)) for v in r.vectors)
        blocks = _partition_from_types(p, sset)
        assert blocks == reference_partition(p, sset)
        assert r.partition == tuple(tuple(p.points[i] for i in b) for b in blocks)
        assert r.convex_in_orders == tuple(
            t for t in range(p.n) if reference_convex(p, blocks, t))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=p.N, max_size=p.N))
    blocks = [[i for i in range(p.N) if labels[i] == b] for b in sorted(set(labels))]
    for t in range(p.n):
        assert _convex_in_order(p, blocks, t) == reference_convex(p, blocks, t)
