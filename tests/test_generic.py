import itertools
import random

import pytest

from permlat.errors import MeetReducibleBottomError, NonDistributiveError
from permlat.generic import (GenerationConfig, OnePointType, empty_structure,
                             enumerate_one_point_types, extension_property_check,
                             generate_generic, homogeneity_check, realize_type,
                             realizers, tp_point)
from permlat.lattice import m3, meet_irreducibles
from permlat.spaces import equivalences_from_space, validate_space
from permlat.sqorders import OrderedLambdaStructure, SubquotientOrder, validate_sqorder


def gen(lat, sig, seed=11, size=40, depth=3):
    cfg = GenerationConfig(seed=seed, target_size=size, saturation_depth=depth)
    return generate_generic(lat, sig, cfg, with_saturation_report=False).structure


# -- type enumeration --------------------------------------------------------


def test_empty_base_has_single_unconstrained_type(chain3):
    s = empty_structure(chain3, [("0", "1")])
    s = realize_type(s, OnePointType((), (), (None,)), random.Random(0)).structure
    types = enumerate_one_point_types(s, ())
    assert types == [OnePointType((), (), (None,))]


def test_hand_count_four_types_over_one_point(chain3):
    # one base point, 3-chain, one linear order: distances {E, 1} x 2 positions
    s = empty_structure(chain3, [("0", "1")])
    s = realize_type(s, OnePointType((), (), (None,)), random.Random(0)).structure
    types = enumerate_one_point_types(s, (s.space.points[0],))
    assert len(types) == 4
    deltas = {t.distances for t in types}
    assert deltas == {(chain3.index["E"],), (chain3.index["1"],)}


def test_inconsistent_distance_reducts_never_emitted(chain3):
    s = gen(chain3, [("0", "E"), ("E", "1")], size=8, depth=2)
    for A in itertools.combinations(s.space.points, 3):
        for t in enumerate_one_point_types(s, A):
            # triangle constraints against every base pair hold
            lat = chain3
            idx = [s.space.pindex[a] for a in A]
            for u, v in itertools.combinations(range(3), 2):
                duv = s.space.dist[idx[u]][idx[v]]
                assert lat.leq_idx(duv, lat.join_idx(t.distances[u], t.distances[v]))


# -- realization -------------------------------------------------------------


def test_realize_over_empty_base_adds_far_point(b2):
    s = empty_structure(b2, [("a", "1"), ("b", "1")])
    r = realize_type(s, OnePointType((), (), (None, None)), random.Random(1))
    assert r.added is not None
    s2 = realize_type(r.structure, OnePointType((), (), (None, None)), random.Random(1))
    # the far type is now realized: idempotent
    assert s2.added is None and s2.realized_by is not None


def test_realize_output_validates(chain3):
    s = gen(chain3, [("0", "E"), ("E", "1")], size=12, depth=2)
    assert validate_space(s.space).ok
    for o in s.orders:
        assert validate_sqorder(o).ok


def test_realized_point_satisfies_type_exactly(chain3):
    s = gen(chain3, [("0", "E"), ("E", "1")], size=10, depth=2)
    A = s.space.points[:2]
    for t in enumerate_one_point_types(s, A):
        r = realize_type(s, t, random.Random(5))
        target = r.added or r.realized_by
        assert target in realizers(r.structure, t)


def test_meet_reducible_bottom_rejected(b2):
    # bottom 0 = a^b is meet-reducible in the diamond
    s = empty_structure(b2, [("0", "1")])
    with pytest.raises(MeetReducibleBottomError):
        realize_type(s, OnePointType((), (), (None,)), random.Random(0))


def test_generation_rejects_non_distributive():
    with pytest.raises(NonDistributiveError):
        gen(m3(), [("p", "1")], size=5)


def test_duplicate_signature_lint_warns(chain2):
    with pytest.warns(UserWarning):
        gen(chain2, [("0", "1"), ("0", "1")], size=5, depth=2)


# -- generation behavior -----------------------------------------------------


def test_same_seed_same_structure(chain3):
    a = gen(chain3, [("0", "E"), ("E", "1")], seed=42, size=25, depth=2)
    b = gen(chain3, [("0", "E"), ("E", "1")], seed=42, size=25, depth=2)
    assert a.space.points == b.space.points
    assert a.space.dist == b.space.dist
    assert all(x.rank == y.rank for x, y in zip(a.orders, b.orders))


def test_different_seed_different_structure(chain3):
    a = gen(chain3, [("0", "E"), ("E", "1")], seed=1, size=25, depth=2)
    b = gen(chain3, [("0", "E"), ("E", "1")], seed=2, size=25, depth=2)
    assert a.space.dist != b.space.dist or any(
        x.rank != y.rank for x, y in zip(a.orders, b.orders))


def test_generated_relations_distinct_with_correct_meets(grid):
    mi = meet_irreducibles(grid)
    sig = [(e, mi.cover[e]) for e in mi.elements]
    s = gen(grid, sig, size=30, depth=2)
    eq = equivalences_from_space(s.space)
    parts = {lam: set(map(frozenset, eq.partition(lam))) for lam in grid.elements}
    for l1, l2 in itertools.combinations(grid.elements, 2):
        assert parts[l1] != parts[l2]
        meet_blocks = {a & b for a in parts[l1] for b in parts[l2]} - {frozenset()}
        assert meet_blocks == parts[grid.meet(l1, l2)]


def test_cross_cutting_inside_joins(b2):
    # Incomparable a, b join to 1, so in the limit every a-class meets every
    # b-class. A fixed-size sample cannot inhabit #a-classes x #b-classes
    # intersections once saturation pushes class counts past sqrt(N), so the
    # finite shadow is: every missing intersection is realizable by a single
    # extension, and the intersection pattern itself is realized.
    s = gen(b2, [("a", "1"), ("b", "1")], size=40, depth=3)
    eq = equivalences_from_space(s.space)
    inhabited = 0
    tried = 0
    for ablock in eq.partition("a"):
        for bblock in eq.partition("b"):
            if set(ablock) & set(bblock):
                inhabited += 1
                continue
            if tried >= 5:
                continue
            tried += 1
            x, y = ablock[0], bblock[0]
            t = OnePointType(
                tuple(sorted((x, y), key=s.space.pindex.__getitem__)),
                tuple(b2.index["a" if p in ablock else "b"]
                      for p in sorted((x, y), key=s.space.pindex.__getitem__)),
                (None, None))
            r = realize_type(s, t, random.Random(0))
            added = r.added or r.realized_by
            assert added in realizers(r.structure, t)
    assert inhabited > 0
    # the intersection pattern over a distance-1 pair is realized somewhere
    report = extension_property_check(s, 2)
    assert report.ratio == 1.0


# -- extension property ------------------------------------------------------


def test_k0_on_nonempty_structure_is_satisfied(chain3):
    s = gen(chain3, [("0", "E"), ("E", "1")], size=5, depth=2)
    report = extension_property_check(s, 0)
    assert report.ratio == 1.0 and report.pair_ratio == 1.0


def test_three_point_structure_has_missing_types(chain2):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = gen(chain2, [("0", "1"), ("0", "1")], size=3, depth=2)
    report = extension_property_check(s, 2)
    assert report.ratio < 1.0
    assert report.missing_pairs


def test_pair_ratio_never_reaches_one_on_ordered_structures(chain3):
    # finite rank boundaries always leave per-pair misses
    s = gen(chain3, [("0", "E"), ("E", "1")], size=15, depth=2)
    report = extension_property_check(s, 1)
    assert report.pair_ratio < 1.0


# -- homogeneity -------------------------------------------------------------


def test_homogeneity_m1_follows_from_extension_k1(chain3):
    s = gen(chain3, [("0", "E"), ("E", "1")], size=40, depth=3)
    ext = extension_property_check(s, 1)
    hom = homogeneity_check(s, 1)
    assert ext.ratio == 1.0
    assert hom.ok


def test_corrupted_sample_reports_failures(chain3):
    s = gen(chain3, [("0", "E"), ("E", "1")], size=20, depth=2)
    o = s.orders[0]
    reps = sorted(o.rank, key=o.rank.get)
    swapped = dict(o.rank)
    swapped[reps[0]], swapped[reps[1]] = swapped[reps[1]], swapped[reps[0]]
    corrupted = OrderedLambdaStructure(
        s.space, (SubquotientOrder(s.space, o.bottom, o.top, swapped), s.orders[1]))
    report = homogeneity_check(corrupted, 2)
    assert report.failures  # at least one failure reported
    assert report.extension_misses > 0


def test_exact_types_round_trip(chain3):
    s = gen(chain3, [("0", "E"), ("E", "1")], size=12, depth=2)
    for A in itertools.combinations(s.space.points, 2):
        for z in s.space.points:
            if z in A:
                continue
            t = tp_point(s, A, z)
            assert z in realizers(s, t)


def test_collapsed_completion_is_a_coded_error(b2, monkeypatch):
    # a realized type whose realizer is hidden: the completion lands on it
    import permlat.generic as generic
    from permlat.errors import CollapsedCompletionError
    a, b, one = (b2.index[e] for e in ("a", "b", "1"))
    s = empty_structure(b2, [("a", "1"), ("b", "1")])
    s = realize_type(s, OnePointType((), (), (None, None)), random.Random(0)).structure
    s = realize_type(s, OnePointType(("p0",), (one,), (0, 0)), random.Random(0)).structure
    t = OnePointType(("p0", "p1"), (a, b), (None, None))
    s = realize_type(s, t, random.Random(0)).structure
    monkeypatch.setattr(generic, "realizers", lambda s, t: [])
    with pytest.raises(CollapsedCompletionError) as e:
        realize_type(s, t, random.Random(0))
    assert e.value.code == "COLLAPSED_COMPLETION"
