import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlat.errors import NonDistributiveError, NotALatticeError, SizeCapError
from permlat.canon import canonical_key
from permlat.lattice import (FiniteLattice, FinitePoset, _ideals, _is_meet_semilattice,
                             b2_plus_top, boolean2,
                             chain_lattice, dimension_bounds, distributive_law_holds,
                             enumerate_distributive_lattices, enumerate_lattices,
                             is_distributive, lattices_isomorphic, m3,
                             meet_irreducibles, min_chain_cover,
                             n5, lambda0_poset, product_lattice, validate_lattice,
                             vertical_sum)
from permlat.validation import ValidationReport


def test_two_chain_is_a_valid_lattice():
    assert validate_lattice(chain_lattice(2)).ok


def test_m3_is_a_valid_lattice_but_not_distributive():
    lat = m3()
    assert validate_lattice(lat).ok
    result = is_distributive(lat)
    assert not result
    assert result.kind == "M3"
    assert result.witness == ("0", "p", "q", "r", "1")


def test_n5_rejected_with_witness():
    result = is_distributive(n5())
    assert not result and result.kind == "N5"
    assert set(result.witness) == {"0", "x", "w", "v", "1"}


def test_boolean2_is_distributive():
    assert is_distributive(boolean2())


def test_missing_upper_bound_reported_with_witness():
    # two incomparable elements with no common upper bound
    poset = FinitePoset.from_leq_pairs(("a", "b"), [])
    report = validate_lattice(FiniteLattice.from_poset(poset))
    assert not report.ok
    rules = {v.rule for v in report.violations}
    assert "join-total" in rules or "top" in rules
    witnessed = [v for v in report.violations if v.rule == "join-total"]
    assert witnessed and witnessed[0].witness == ("a", "b")


def test_empty_poset_is_not_a_lattice():
    with pytest.raises(NotALatticeError):
        FiniteLattice.from_poset(FinitePoset((), ()))


def test_doctored_meet_table_is_caught():
    lat = chain_lattice(3)
    bad = FiniteLattice(lat.poset,
                        tuple(tuple(0 for _ in range(3)) for _ in range(3)),
                        lat._join, lat.bottom, lat.top)
    report = validate_lattice(bad)
    assert any(v.rule == "meet-glb" for v in report.violations)
    bad = FiniteLattice(lat.poset, lat._meet,
                        tuple(tuple(2 for _ in range(3)) for _ in range(3)),
                        lat.bottom, lat.top)
    report = validate_lattice(bad)
    assert [v.rule for v in report.violations] == ["join-lub"] * 3


# -- meet-irreducibles -------------------------------------------------------


def brute_unique_cover_elements(lat):
    """Independent oracle: x != top whose strict upper bounds have a unique
    minimal element."""
    out = []
    for x in lat.elements:
        if x == lat.top:
            continue
        above = [y for y in lat.elements if y != x and lat.leq(x, y)]
        minimal = [y for y in above
                   if not any(lat.leq(z, y) and z != y for z in above)]
        if len(minimal) == 1:
            out.append(x)
    return set(out)


def test_meet_irreducibles_on_chain(chain3):
    assert set(meet_irreducibles(chain3).elements) == {"0", "E"}


def test_meet_irreducibles_on_boolean2(b2):
    mi = meet_irreducibles(b2)
    assert set(mi.elements) == {"a", "b"}
    assert mi.cover == {"a": "1", "b": "1"}


def test_meet_irreducibles_on_m3_match_unique_cover_scan():
    lat = m3()
    assert set(meet_irreducibles(lat).elements) == brute_unique_cover_elements(lat)
    assert set(meet_irreducibles(lat).elements) == {"p", "q", "r"}


def test_every_element_is_meet_of_irreducibles_above():
    for lat in enumerate_lattices(6):
        mi = meet_irreducibles(lat)
        for x in lat.elements:
            above = [lat.index[y] for y in mi.elements if lat.leq(x, y)]
            assert lat.elements[lat.meet_many_idx(above)] == x


def test_meet_irreducibles_have_exactly_one_cover():
    for lat in enumerate_lattices(6):
        mi = meet_irreducibles(lat)
        for x in mi.elements:
            assert len(lat.poset.upper_covers_idx(lat.index[x])) == 1


# -- chain covers ------------------------------------------------------------


def test_antichain_needs_one_chain_per_element():
    p = FinitePoset.from_leq_pairs(("a", "b", "c"), [])
    assert len(min_chain_cover(p)) == 3


def test_single_chain_covers_itself():
    p = chain_lattice(5).poset
    assert len(min_chain_cover(p)) == 1


def test_b2_plus_top_lambda0_needs_two_chains():
    p0 = lambda0_poset(b2_plus_top())
    assert p0.n == 3
    # oracle: largest antichain by enumeration
    assert max_antichain_size(p0) == 2
    assert len(min_chain_cover(p0)) == 2


def max_antichain_size(p: FinitePoset) -> int:
    """The width oracle: the size of a largest antichain, by exhaustive
    search from the largest size down."""
    return next(r for r in range(p.n, 0, -1) for sub in itertools.combinations(range(p.n), r)
                if all(not p.leq_idx(a, b) and not p.leq_idx(b, a)
                       for a, b in itertools.combinations(sub, 2)))


def _random_poset(rng, n):
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                pairs.append((f"x{i}", f"x{j}"))
    return FinitePoset.from_leq_pairs(tuple(f"x{i}" for i in range(n)), pairs)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_min_chain_cover_equals_width(seed, n):
    p = _random_poset(random.Random(seed), n)
    cover = min_chain_cover(p)
    assert len(cover) == max_antichain_size(p)
    covered = {x for chain in cover.chains for x in chain}
    assert covered == set(p.elements)
    for chain in cover.chains:
        for a, b in itertools.combinations(chain, 2):
            assert p.leq(a, b) or p.leq(b, a)


# -- dimension bounds --------------------------------------------------------


def test_bounds_on_two_chain_note_empty_lambda0():
    b = dimension_bounds(chain_lattice(2))
    assert (b.lower, b.upper) == (0, 0)
    assert b.notes


def test_bounds_on_three_chain():
    b = dimension_bounds(chain_lattice(3))
    assert (b.lower, b.upper) == (2, 2)


def test_bounds_on_b2_plus_top():
    # lower bound 4 = twice the width of the 3-element Lambda0; the cheapest
    # cover is {a<1', b} costing (1+2)+(1+1)=5
    b = dimension_bounds(b2_plus_top())
    assert b.lower == 4
    assert b.upper == 5
    assert b.exhaustive


def test_bounds_past_twelve_internal_meet_irreducibles_search_min_cardinality_covers():
    # a 15-chain has 13 internal meet-irreducibles, one more than the
    # exhaustive cover search takes
    b = dimension_bounds(chain_lattice(15))
    assert not b.exhaustive
    assert b.cover.chains == (tuple(f"c{i}" for i in range(1, 14)),)
    assert b.lower == 2 <= b.upper
    assert b.notes == ("cover search restricted to minimum-cardinality covers "
                       "(|Lambda0| = 13 > 12)",)


def test_restricted_cover_search_fills_a_second_chain():
    # Lambda0 is 13 elements of width 2: a chain of 12 through a, and b
    # beside a, which the search must put in the second, empty, slot
    lat = vertical_sum(vertical_sum(chain_lattice(6), boolean2()), chain_lattice(6))
    p0 = lambda0_poset(lat)
    b = dimension_bounds(lat)
    assert (p0.n, b.lower, b.upper, b.exhaustive) == (13, 4, 7, False)
    assert sorted(map(len, b.cover.chains)) == [1, 12]

    def is_chain(part):
        return all(p0.leq(x, y) or p0.leq(y, x) for x, y in itertools.combinations(part, 2))

    costs = []
    for mask in range(1 << p0.n):
        parts = [[x for i, x in enumerate(p0.elements) if (mask >> i & 1) == side]
                 for side in (0, 1)]
        if all(is_chain(part) for part in parts):
            costs.append(sum(1 + math.ceil(math.log2(len(part) + 1)) for part in parts if part))
    assert b.upper == min(costs)


def test_bounds_reject_non_distributive():
    with pytest.raises(NonDistributiveError):
        dimension_bounds(m3())


def test_lower_bound_below_upper_for_nonempty_lambda0():
    for lat in enumerate_distributive_lattices(8):
        if lambda0_poset(lat).n == 0:
            continue
        b = dimension_bounds(lat)
        assert b.lower <= b.upper
        assert b.lower % 2 == 0


# -- enumeration -------------------------------------------------------------


def test_enumerate_distributive_max2_is_the_two_chain():
    lats = list(enumerate_distributive_lattices(2))
    assert len(lats) == 1
    assert lattices_isomorphic(lats[0], chain_lattice(2))


def test_enumerate_distributive_max4():
    keys = {l.key() for l in enumerate_distributive_lattices(4)}
    expected = {chain_lattice(2).key(), chain_lattice(3).key(),
                chain_lattice(4).key(), boolean2().key()}
    assert keys == expected


def test_enumerate_distributive_max5_adds_three():
    keys = {l.key() for l in enumerate_distributive_lattices(5)}
    assert chain_lattice(5).key() in keys
    assert b2_plus_top().key() in keys
    assert vertical_sum(chain_lattice(1, ["s"]), boolean2()).key() in keys
    assert len(keys) == 7


def test_enumerate_distributive_size_cap():
    with pytest.raises(SizeCapError):
        list(enumerate_distributive_lattices(9))


def test_enumeration_agrees_with_filtering_all_lattices():
    all_keys = {l.key() for l in enumerate_lattices(6) if is_distributive(l)}
    dist_keys = {l.key() for l in enumerate_distributive_lattices(6)}
    assert all_keys == dist_keys


def test_lattice_counts_match_known_sequence():
    # isomorphism classes of lattices (OEIS A006966) and distributive lattices (A006982) on 2..8 elements
    lattices = Counter(l.n for l in enumerate_lattices(8))
    assert [lattices[n] for n in range(2, 9)] == [1, 1, 2, 5, 15, 53, 222]
    assert sum(lattices.values()) == 299
    distributive = Counter(l.n for l in enumerate_distributive_lattices(8))
    assert [distributive[n] for n in range(2, 9)] == [1, 1, 2, 3, 5, 8, 15]
    assert sum(distributive.values()) == 35


# The enumerators as they were before the layered walk: every naturally
# labelled poset is built, then isomorphic copies are dropped by key.


def ref_natural_posets(max_size, prune=None):
    layer = [()]
    yield ()
    for size in range(1, max_size + 1):
        new_layer = []
        for p in layer:
            for sub in _ideals(p):
                ext = p + (sub | 1 << len(p),)
                if prune is None or not prune(ext):
                    new_layer.append(ext)
        layer = new_layer
        yield from layer


def ref_is_meet_semilattice(down):
    principal = set(down)
    n = len(down)
    for i in range(n):
        for j in range(i + 1, n):
            if down[i] & down[j] not in principal:
                return False
    return True


def ref_enumerate_lattices(max_size):
    seen = set()
    for down in ref_natural_posets(max_size - 1):
        if not down or not ref_is_meet_semilattice(down):
            continue
        n = len(down)
        full = (1 << (n + 1)) - 1
        poset = poset_of_down(down + (full,))
        k = poset.key()
        if k in seen:
            continue
        seen.add(k)
        yield FiniteLattice.from_poset(poset)


def ref_enumerate_distributive_lattices(max_size):
    seen = set()
    results = []
    for down in ref_natural_posets(max_size - 1, prune=lambda p: len(_ideals(p)) > max_size):
        if not down:
            continue
        ideals = _ideals(down)
        up = tuple(sum(1 << b for b, sb in enumerate(ideals) if sa & ~sb == 0) for sa in ideals)
        poset = FinitePoset(tuple(f"i{i}" for i in range(len(ideals))), up)
        k = poset.key()
        if k in seen:
            continue
        seen.add(k)
        results.append((poset.n, k, poset))
    results.sort(key=lambda t: (t[0], t[1]))
    for _, _, poset in results:
        yield FiniteLattice.from_poset(poset)


def listing(lattices):
    return [(lat.elements, lat.poset.up, lat.bottom, lat.top) for lat in lattices]


@pytest.mark.parametrize("max_size", range(0, 8))
def test_enumerate_lattices_matches_the_eager_reference(max_size):
    assert listing(enumerate_lattices(max_size)) == listing(ref_enumerate_lattices(max_size))


@pytest.mark.parametrize("max_size", range(0, 9))
def test_enumerate_distributive_lattices_matches_the_eager_reference(max_size):
    assert (listing(enumerate_distributive_lattices(max_size))
            == listing(ref_enumerate_distributive_lattices(max_size)))


def test_the_walk_cuts_only_what_no_extension_brings_back():
    # a poset that is no meet-semilattice has no one-point extension that is
    # one, and an extension has at least as many ideals
    for down in ref_natural_posets(5):
        children = [down + (ideal | 1 << len(down),) for ideal in _ideals(down)]
        assert _is_meet_semilattice(down) == ref_is_meet_semilattice(down)
        if not _is_meet_semilattice(down):
            assert not any(_is_meet_semilattice(child) for child in children)
        assert all(len(_ideals(child)) >= len(_ideals(down)) for child in children)


def test_validate_everything_enumerated():
    for lat in enumerate_lattices(6):
        assert validate_lattice(lat).ok


def test_distributive_law_oracle_on_small_sample():
    assert distributive_law_holds(boolean2())
    assert not distributive_law_holds(m3())
    assert not distributive_law_holds(n5())


# -- mask kernels against the plain loops -------------------------------------
# The references below are the element-by-element loops the bitmask kernels
# replaced; each kernel must give the same result in the same order.


def ref_down(p):
    masks = [0] * p.n
    for i in range(p.n):
        for j in range(p.n):
            if p.up[j] & (1 << i):
                masks[i] |= 1 << j
    return tuple(masks)


def ref_covers(p):
    out = []
    for i in range(p.n):
        for j in range(p.n):
            if i == j or not p.leq_idx(i, j):
                continue
            if any(p.leq_idx(i, k) and p.leq_idx(k, j) for k in range(p.n) if k not in (i, j)):
                continue
            out.append((i, j))
    return tuple(out)


def ref_validate(p):
    report = ValidationReport(subject="poset")
    for i in range(p.n):
        if not p.up[i] & (1 << i):
            report.add("reflexive", (p.elements[i],), f"{p.elements[i]} not <= itself")
    for i in range(p.n):
        for j in range(p.n):
            if i != j and p.leq_idx(i, j) and p.leq_idx(j, i):
                report.add("antisymmetric", (p.elements[i], p.elements[j]),
                           "mutual strict order")
    for i in range(p.n):
        for j in range(p.n):
            if not p.leq_idx(i, j):
                continue
            for k in range(p.n):
                if p.leq_idx(j, k) and not p.leq_idx(i, k):
                    report.add("transitive", (p.elements[i], p.elements[j], p.elements[k]),
                               "missing composite relation")
    return report


def ref_key(p):
    return canonical_key([[(i == j, p.leq_idx(i, j), p.leq_idx(j, i)) for j in range(p.n)]
                          for i in range(p.n)])


def ref_ideals(down):
    n = len(down)
    return [s for s in range(1 << n)
            if all(not (s & (1 << d)) or not (down[d] & ~s) for d in range(n))]


def ref_sublattice_shape(lat, subset):
    sset = set(subset)
    for a, b in itertools.combinations(subset, 2):
        if lat.meet_idx(a, b) not in sset or lat.join_idx(a, b) not in sset:
            return None
    bot = lat.meet_many_idx(subset)
    top_ = lat.join_many_idx(subset)
    if bot not in sset or top_ not in sset:
        return None
    mids = [x for x in subset if x not in (bot, top_)]
    if len(mids) != 3:
        return None
    comp = [(x, y) for x, y in itertools.combinations(mids, 2)
            if lat.leq_idx(x, y) or lat.leq_idx(y, x)]
    incomp = [(x, y) for x, y in itertools.combinations(mids, 2)
              if not (lat.leq_idx(x, y) or lat.leq_idx(y, x))]
    if len(comp) == 0:
        if all(lat.meet_idx(x, y) == bot and lat.join_idx(x, y) == top_ for x, y in incomp):
            return "M3"
        return None
    if len(comp) == 1:
        if all(lat.meet_idx(x, y) == bot and lat.join_idx(x, y) == top_ for x, y in incomp):
            return "N5"
    return None


def ref_vertical_sum(lower, upper):
    lo = [f"l.{e}" for e in lower.elements]
    hi = [f"u.{e}" for e in upper.elements]
    pairs = []
    for i, a in enumerate(lower.elements):
        for j, b in enumerate(lower.elements):
            if lower.leq(a, b):
                pairs.append((lo[i], lo[j]))
    for i, a in enumerate(upper.elements):
        for j, b in enumerate(upper.elements):
            if upper.leq(a, b):
                pairs.append((hi[i], hi[j]))
    pairs.extend((a, b) for a in lo for b in hi)
    return FiniteLattice.from_poset(FinitePoset.from_leq_pairs(tuple(lo + hi), pairs))


def ref_product_lattice(a, b):
    els = tuple(f"{x}*{y}" for x in a.elements for y in b.elements)
    pairs = []
    for x1 in a.elements:
        for y1 in b.elements:
            for x2 in a.elements:
                for y2 in b.elements:
                    if a.leq(x1, x2) and b.leq(y1, y2):
                        pairs.append((f"{x1}*{y1}", f"{x2}*{y2}"))
    return FiniteLattice.from_poset(FinitePoset.from_leq_pairs(els, pairs))


@st.composite
def natural_posets(draw):
    """Down masks of a naturally labelled poset of 0-7 elements: element k's
    strict down-set is the down-closure of random elements below k."""
    down = []
    for k in range(draw(st.integers(0, 7))):
        below = draw(st.lists(st.integers(0, k - 1), max_size=k)) if k else []
        ideal = 0
        for d in below:
            ideal |= down[d]
        down.append(ideal | 1 << k)
    return tuple(down)


def poset_of_down(down):
    n = len(down)
    up = tuple(sum(1 << j for j in range(n) if down[j] >> i & 1) for i in range(n))
    return FinitePoset(tuple(f"x{i}" for i in range(n)), up)


@settings(max_examples=200, deadline=None)
@given(natural_posets())
def test_mask_kernels_match_the_loops_on_posets(down):
    p = poset_of_down(down)
    assert p.down == ref_down(p) == down
    assert p.covers == ref_covers(p)
    assert _ideals(down) == ref_ideals(down)
    assert p.validate().as_dict() == ref_validate(p).as_dict()
    assert p.key() == ref_key(p)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                                             max_size=n), st.booleans())))
def test_mask_kernels_match_the_loops_on_relations(case):
    # arbitrary relations: cycles, missing composites, missing loops
    n, rows, reflexive = case
    up = tuple(r | (1 << i if reflexive else 0) for i, r in enumerate(rows))
    p = FinitePoset(tuple(f"y{i}" for i in range(n)), up)
    assert p.down == ref_down(p)
    assert p.validate().as_dict() == ref_validate(p).as_dict()
    assert p.key() == ref_key(p)
    if reflexive:
        assert p.covers == ref_covers(p)


def test_distributivity_witness_and_key_match_the_loops():
    for lat in enumerate_lattices(7):
        result = is_distributive(lat)
        first = next(((s, k) for s in itertools.combinations(range(lat.n), 5)
                      if (k := ref_sublattice_shape(lat, s)) is not None), None)
        if first is None:
            assert result.distributive and result.witness is None and result.kind is None
        else:
            assert not result.distributive
            assert result.witness == tuple(lat.elements[i] for i in first[0])
            assert result.kind == first[1]
        assert lat.key() == ref_key(lat.poset)


@pytest.mark.parametrize("a, b", [
    (boolean2(), chain_lattice(1, ["t"])), (chain_lattice(1, ["s"]), boolean2()),
    (m3(), chain_lattice(2)), (chain_lattice(3), boolean2()), (n5(), chain_lattice(2)),
])
def test_stock_constructions_match_the_loops(a, b):
    for new, ref in ((vertical_sum(a, b), ref_vertical_sum(a, b)),
                     (product_lattice(a, b), ref_product_lattice(a, b))):
        assert new.elements == ref.elements and new.poset.up == ref.poset.up
        assert (new.bottom, new.top) == (ref.bottom, ref.top)
