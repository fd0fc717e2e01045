import gc
import hashlib
import itertools
import random
import warnings
import weakref
from collections import Counter

import pytest

from permlat import generic
from permlat.errors import (InvalidStructureError, MeetReducibleBottomError,
                            NonDistributiveError, SizeCapError)
from permlat.formats import dump_lattice, dump_structure, load_structure
from permlat.generic import (GenerationConfig, GenerationResult, HomogeneityReport,
                             OnePointType, SaturationReport, _append_point, _CheckContext,
                             _extension_report, empty_structure,
                             enumerate_one_point_types, extension_property_check,
                             generate_generic, homogeneity_check, realize_type)
from permlat.lattice import (boolean2, chain_lattice, enumerate_distributive_lattices, m3,
                             meet_irreducibles, product_lattice)
from permlat.spaces import LambdaSpace, class_reps, equivalences_from_space, validate_space
from permlat.sqorders import OrderedLambdaStructure, SubquotientOrder, validate_sqorder


def gen(lat, sig, seed=11, size=40, depth=3):
    cfg = GenerationConfig(seed=seed, target_size=size, saturation_depth=depth)
    return generate_generic(lat, sig, cfg, with_saturation_report=False).structure


def realizers(s, t: OnePointType) -> list[str]:
    """The points of s having the type exactly, by ``point_type``."""
    ctx = _CheckContext(s)
    idx_a = [s.space.pindex[a] for a in t.over]
    want = (tuple(t.distances), tuple(t.order_constraints))
    return [s.space.points[z] for z in range(ctx.n)
            if z not in idx_a and ctx.point_type(idx_a, z) == want]


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


def test_order_bottom_above_top_rejected(b2):
    with pytest.raises(ValueError, match="does not lie below"):
        gen(b2, [("a", "b")], size=5)


def test_generation_rejects_non_distributive():
    with pytest.raises(NonDistributiveError):
        gen(m3(), [("p", "1")], size=5)


def test_generation_over_a_one_element_lattice_is_capped_at_one_point():
    # a second point would be at distance bottom from the first
    one = chain_lattice(1, ["0"])
    assert gen(one, [], size=1).space.n == 1
    with pytest.raises(SizeCapError, match="one-element lattice is capped at 1 point"):
        generate_generic(one, [], GenerationConfig(0, 3, 2))


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
    # a point's exact type is consistent, and realizing it finds a point
    # having it instead of appending one
    s = gen(chain3, [("0", "E"), ("E", "1")], size=12, depth=2)
    ctx = _CheckContext(s)
    for A in itertools.combinations(range(ctx.n), 2):
        names = tuple(s.space.points[a] for a in A)
        consistent = set(ctx.types(A))
        for z in range(ctx.n):
            if z in A:
                continue
            t = OnePointType(names, *ctx.point_type(A, z))
            assert (t.distances, t.order_constraints) in consistent
            assert s.space.points[z] in realizers(s, t)
            r = realize_type(s, t)
            assert r.added is None and r.realized_by in realizers(s, t)


def test_collapsed_completion_is_a_coded_error(b2):
    # the appender handed a realized type: the completion lands on its realizer
    from permlat.errors import CollapsedCompletionError
    a, b, one = (b2.index[e] for e in ("a", "b", "1"))
    s = empty_structure(b2, [("a", "1"), ("b", "1")])
    s = realize_type(s, OnePointType((), (), (None, None)), random.Random(0)).structure
    s = realize_type(s, OnePointType(("p0",), (one,), (0, 0)), random.Random(0)).structure
    t = OnePointType(("p0", "p1"), (a, b), (None, None))
    s = realize_type(s, t, random.Random(0)).structure
    assert realizers(s, t) == ["p2"]
    with pytest.raises(CollapsedCompletionError) as e:
        _append_point(_CheckContext(s), (0, 1), (a, b), (None, None), random.Random(0))
    assert e.value.code == "COLLAPSED_COMPLETION"


def test_realize_type_refuses_an_invalid_structure(chain3):
    # a broken join-triangle, d(a, c) = 1 above d(a, b) v d(b, c) = E: the
    # extension realize_type built on it failed validate
    E, one = chain3.index["E"], chain3.index["1"]
    space = LambdaSpace(chain3, ("a", "b", "c"), ((0, E, one), (E, 0, E), (one, E, 0)))
    s = OrderedLambdaStructure(space, (SubquotientOrder(space, "0", "E", {"a": 0, "b": 0, "c": 0}),
                                       SubquotientOrder(space, "E", "1", {"a": 0, "c": 0})))
    assert not s.validate().ok
    with pytest.raises(InvalidStructureError, match="realize_type") as e:
        realize_type(s, enumerate_one_point_types(s, ("a",))[0])
    assert e.value.code == "INVALID_STRUCTURE"


def _sparse(s):
    # the structure with each rank r written as 3r + 1: strict but not dense
    return OrderedLambdaStructure(s.space, tuple(
        SubquotientOrder(s.space, o.bottom, o.top, {c: 3 * r + 1 for c, r in o.rank.items()})
        for o in s.orders))


def test_realize_type_takes_sparse_strict_ranks(monkeypatch, chain3):
    # sparse ranks are renormalized first: the same point is found or
    # appended as on the dense structure, and the index it is
    # appended to holds the reference's pair codes
    s = gen(chain3, SIGS["chain3"], size=10, depth=2)
    sparse = _sparse(s)
    grown = _recorded_indexes(monkeypatch)
    added = 0
    for A in itertools.combinations(s.space.points, 2):
        for t in enumerate_one_point_types(s, A):
            want = realize_type(s, t, random.Random(4))
            got = realize_type(sparse, t, random.Random(4))
            assert (got.added, got.realized_by) == (want.added, want.realized_by)
            if want.added is not None:
                assert dump_structure(got.structure) == dump_structure(want.structure)
                added += 1
    assert added > 0 and len(grown) == 2 * added
    for ctx in grown:
        _assert_codes(ctx)


def test_an_appended_point_is_renamed_past_a_taken_name(chain3):
    # the new point of a two-point structure is p2, unless a point has that
    # name already: then it takes primes until the name is free
    E, one = chain3.index["E"], chain3.index["1"]
    space = LambdaSpace(chain3, ("p2", "x"), ((0, E), (E, 0)))
    s = OrderedLambdaStructure(space, (SubquotientOrder(space, "0", "1", {"p2": 0, "x": 1}),))
    r = realize_type(s, OnePointType(("x",), (one,), (1,)), random.Random(0))
    assert r.added == "p2'" and r.structure.space.points == ("p2", "x", "p2'")
    assert r.structure.validate().ok
    assert realizers(r.structure, OnePointType(("x",), (one,), (1,))) == ["p2'"]


# -- the subset index against a per-(subset, type) computation ----------------
#
# The references below canonicalize every subset from tuple pair codes, take
# each point's exact type one outside point at a time, and key every type by
# a minimum over automorphisms: no memo, no code table, no class table.


def _ref_pair_code(ctx, i, j):
    d = ctx.dist[i][j]
    codes = []
    for bot, top, _, rank in ctx.orders:
        if ctx.lat.leq_idx(d, bot):
            codes.append(0)
        elif not ctx.lat.leq_idx(d, top):
            codes.append(3)
        else:
            codes.append(1 if rank[i] < rank[j] else 2)
    return (d, tuple(codes))


def _ref_canonical(ctx, idx_a):
    k = len(idx_a)
    facts = [[(0,) if u == v else _ref_pair_code(ctx, idx_a[u], idx_a[v])
              for v in range(k)] for u in range(k)]
    best = best_perm = None
    for perm in itertools.permutations(range(k)):
        mat = tuple(tuple(facts[perm[u]][perm[v]] for v in range(k)) for u in range(k))
        if best is None or mat < best:
            best, best_perm = mat, perm
    return best, best_perm


def _ref_autos(matrix):
    k = len(matrix)
    return [perm for perm in itertools.permutations(range(k))
            if all(matrix[perm[u]][perm[v]] == matrix[u][v]
                   for u in range(k) for v in range(k))]


def _permuted(delta, gaps, perm):
    return (tuple(delta[perm[u]] for u in range(len(delta))), gaps)


def _ref_subset_types(ctx, idx_a):
    matrix, perm = _ref_canonical(ctx, idx_a)
    autos = _ref_autos(matrix)
    exact = {ctx.point_type(idx_a, z) for z in range(ctx.n) if z not in idx_a}
    for delta, gaps in ctx.types(idx_a):
        local = _permuted(delta, gaps, perm)
        key = (matrix, min(_permuted(*local, a) for a in autos))
        yield delta, gaps, (delta, gaps) in exact, key


def ref_extension_property_check(s, k):
    ctx = _CheckContext(s)
    pair_total = pair_realized = 0
    pattern_all, pattern_hit = set(), set()
    missing_pairs = []
    points = s.space.points
    for size in range(0, k + 1):
        for A in itertools.combinations(range(ctx.n), size):
            names = tuple(points[a] for a in A)
            for delta, gaps, realized, key in _ref_subset_types(ctx, list(A)):
                pattern_all.add(key)
                pair_total += 1
                if realized:
                    pair_realized += 1
                    pattern_hit.add(key)
                elif len(missing_pairs) < 200:
                    missing_pairs.append((names, OnePointType(names, delta, gaps)))
    missing_patterns = sorted(repr(key) for key in pattern_all - pattern_hit)
    return SaturationReport(len(pattern_all), len(pattern_hit),
                            pair_total, pair_realized, missing_pairs, missing_patterns)


def ref_homogeneity_check(s, m):
    ctx = _CheckContext(s)
    points = s.space.points
    classes = {}
    for size in range(0, m + 1):
        for A in itertools.combinations(range(ctx.n), size):
            matrix, perm = _ref_canonical(ctx, list(A))
            exact = {}
            for z in range(ctx.n):
                if z not in A:
                    key = _permuted(*ctx.point_type(list(A), z), perm)
                    exact[key] = exact.get(key, 0) + 1
            classes.setdefault(matrix, []).append((A, perm, exact))
    pairs_checked = misses = pattern_failures = 0
    failures, missing_patterns = [], []
    for matrix, members in classes.items():
        autos = _ref_autos(matrix)
        universe, counts, present = set(), {}, {}
        for _, _, exact in members:
            universe.update(exact)
            for u, c in exact.items():
                counts[u] = counts.get(u, 0) + c
                present[u] = present.get(u, 0) + 1
        class_misses = 0
        for a in autos:
            for u, total_count in counts.items():
                absent = len(members) - present.get(_permuted(*u, a), 0)
                pairs_checked += total_count * len(members)
                class_misses += total_count * absent
        misses += class_misses
        A0, perm0, _ = members[0]
        consistent = {min(_permuted(*_permuted(delta, gaps, perm0), a) for a in autos)
                      for delta, gaps in ctx.types(list(A0))}
        realized_orbit = {min(_permuted(*u, a) for a in autos) for u in universe}
        for missing in sorted(map(repr, consistent - realized_orbit)):
            pattern_failures += 1
            if len(missing_patterns) < 50:
                missing_patterns.append((repr(matrix), missing))
        if class_misses and len(failures) < 20:
            failures.append(next(
                (tuple(points[i] for i in A), tuple(points[i] for i in B), repr(u),
                 "no matching extension point")
                for a in autos for A, _, exact_a in members for B, _, exact_b in members
                for u in exact_a if _permuted(*u, a) not in exact_b))
    return HomogeneityReport(pairs_checked, misses, pattern_failures, failures,
                             missing_patterns)


def _corrupted(s):
    o = s.orders[0]
    reps = sorted(o.rank, key=o.rank.get)
    swapped = dict(o.rank)
    swapped[reps[0]], swapped[reps[1]] = swapped[reps[1]], swapped[reps[0]]
    return OrderedLambdaStructure(
        s.space, (SubquotientOrder(s.space, o.bottom, o.top, swapped),) + s.orders[1:])


SIGS = {"chain3": [("0", "E"), ("E", "1")], "b2": [("a", "1"), ("b", "1")],
        "chain4": [("0", "e"), ("e", "f"), ("f", "1")],
        # the last element lies above every order's top, so at distance 1
        # every order field codes 3 (other top class)
        "chain4-low": [("0", "e"), ("e", "f")], "chain2-free": []}


@pytest.mark.parametrize("sig, size, depth, k, complete", [
    ("chain3", 4, 1, 2, False), ("chain3", 6, 1, 3, False),
    ("b2", 10, 1, 2, False), ("b2", 10, 1, 3, False),
    ("chain3", 14, 3, 3, True), ("b2", 24, 3, 3, True), ("chain4", 20, 3, 3, True),
    ("chain4-low", 14, 3, 3, False), ("chain2-free", 12, 3, 3, True),
])
def test_checks_match_per_subset_type_references(request, sig, size, depth, k, complete):
    # a signature's key starts with its lattice's fixture name
    lat = request.getfixturevalue(sig.split("-")[0])
    s = gen(lat, SIGS[sig], size=size, depth=depth)
    for subject in (s, _corrupted(s)) if s.orders else (s,):
        ext, ref = extension_property_check(subject, k), ref_extension_property_check(subject, k)
        assert ext.as_dict() == ref.as_dict()
        assert ext.missing_pairs == ref.missing_pairs
        hom, href = homogeneity_check(subject, k), ref_homogeneity_check(subject, k)
        assert hom.as_dict() == href.as_dict()
        assert hom.failures == href.failures
        assert hom.pattern_failures == ext.pattern_total - ext.pattern_realized
    report = extension_property_check(s, k)
    assert (report.ratio == 1.0) == complete
    assert bool(report.missing_patterns) != complete


def _subset_types(form):
    # each _Type of the form's class to its key in form.types: the type in
    # subset coordinates
    return {u: t for t, u in form.types.items()}


def _rows(ctx, A):
    # the packed row over A of every point, negative for A's own points
    return [ctx.row(A, z) for z in range(ctx.n)]


def _exact_types(ctx, A):
    # the exact types of the points outside A, as _Types of A's form: the
    # keys of a dict, in order of first point, once every point's row has
    # filled the form's row table
    form, rows = ctx.form(A), _rows(ctx, A)
    ctx._fill(form, A, rows)
    return dict.fromkeys(form.rows[row] for row in rows if row >= 0)


def _tally(ctx, A):
    # the exact type of every point outside A, counted
    _exact_types(ctx, A)   # fills the form's row table
    form = ctx.form(A)
    key = _subset_types(form)
    return Counter(key[form.rows[row]] for row in _rows(ctx, A) if row >= 0)


def _tree_forms(ctx):
    # every form of the index's prefix tree, by its path of rows from the root
    forms, stack = {}, [((), ctx.root)]
    while stack:
        path, form = stack.pop()
        forms[path] = form
        stack += [(path + (row,), child) for row, child in form.children.items()]
    return forms


def _pattern_keys(ctx):
    # each pattern of the index, a class type that is its own pattern, as
    # (matrix, least image of a type under the automorphisms), so that the
    # patterns of two indexes compare
    return {u: (cls.matrix, u.local) for cls in ctx._classes.values()
            for u in cls.types.values() if u.pattern is u}


def _subsets(n, k=3):
    return [A for size in range(k + 1) for A in itertools.combinations(range(n), size)]


def _registered(ctx, A, z):
    # the row table entry of the point z over A, in subset coordinates
    form = ctx.form(A)
    return _subset_types(form)[form.rows[ctx.row(A, z)]]


def _count_calls(monkeypatch, name):
    # every call of the _CheckContext method from here on, by subset
    method, calls = getattr(_CheckContext, name), []

    def counted(ctx, idx_a, *rest):
        calls.append(idx_a)
        return method(ctx, idx_a, *rest)

    monkeypatch.setattr(_CheckContext, name, counted)
    return calls


@pytest.mark.parametrize("grow", ["realize_type", "empty_base"])
def test_index_entries_survive_an_appended_point(chain3, grow):
    # the memo rests on this: appending a point changes no old pair code, so
    # every old subset keeps its canonical form, its types' patterns and the
    # packed row of every old point
    s = gen(chain3, SIGS["chain3"], size=10, depth=2)
    ctx = _CheckContext(s)
    subsets = _subsets(s.space.n)
    kept = {A: ctx.form(A) for A in subsets}
    rows = {A: _rows(ctx, A) for A in subsets}
    exact = {A: _tally(ctx, A) for A in subsets}
    if grow == "realize_type":
        # the point realize_type appends, appended to the index in place
        base = (0, 2)
        delta, gaps = next(t for t in ctx.form(base).types if t not in exact[base])
        names = tuple(s.space.points[a] for a in base)
        want = realize_type(s, OnePointType(names, delta, gaps), random.Random(3))
        assert want.added is not None
        _append_point(ctx, base, delta, gaps, random.Random(3))
        assert dump_structure(ctx.structure()) == dump_structure(want.structure)
    else:
        # a point over the empty base, as order-free generation appends its
        # far points
        _append_point(ctx, (), (), (None,) * len(ctx.orders), random.Random(3))
    grown = ctx.structure()
    assert grown.space.points[:-1] == s.space.points
    fresh = _CheckContext(grown)
    assert ctx._to == fresh._to
    z = grown.space.n - 1
    ctx.register(z, 3)
    new_forms = {A: fresh.form(A) for A in subsets}
    keys, fresh_keys = _pattern_keys(ctx), _pattern_keys(fresh)
    for A in subsets:
        t = _registered(ctx, A, z)
        form, new = ctx.form(A), new_forms[A]
        assert form is kept[A]
        assert (form.cls.matrix, form.perm) == (new.cls.matrix, new.perm)
        assert (form.cls.matrix, form.perm) == _ref_canonical(fresh, list(A))
        assert ([(t, u.local, keys[u.pattern]) for t, u in form.types.items()]
                == [(t, u.local, fresh_keys[u.pattern]) for t, u in new.types.items()])
        assert t == fresh.point_type(A, z)
        assert _rows(ctx, A) == _rows(fresh, A) == rows[A] + [_rows(fresh, A)[z]]
        assert _tally(ctx, A) == _tally(fresh, A) == exact[A] + Counter([t])


def _b2_times_chain2():
    return product_lattice(boolean2(), chain_lattice(2, ["z", "o"]))


KERNEL_CASES = {
    # lattice, signature, size, packed field width
    "chain3": (lambda: chain_lattice(3, ["0", "E", "1"]), SIGS["chain3"], 14, 6),
    "b2": (boolean2, SIGS["b2"], 12, 7),
    "b2xc2": (_b2_times_chain2, [("a*o", "1*o"), ("b*o", "1*o"), ("1*z", "1*o")], 10, 10),
    "chain4": (lambda: chain_lattice(4, ["0", "e", "f", "1"]), SIGS["chain4"], 12, 9),
    # a code of all ones in 6 bits, (3 << 4) | 15, the pair code at distance
    # 1, so fields of 7
    "chain4-low": (lambda: chain_lattice(4, ["0", "e", "f", "1"]), SIGS["chain4-low"], 12, 7),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_packed_rows_match_point_types(case):
    make, sig, size, width = KERNEL_CASES[case]
    s = gen(make(), sig, size=size, depth=3)
    ctx = _CheckContext(s)
    assert ctx.width == width
    mask = (1 << width) - 1
    for A in _subsets(s.space.n):
        rows = _rows(ctx, A)
        exact = _exact_types(ctx, A)
        form = ctx.form(A)
        key = _subset_types(form)
        # one negative row per base point, so a subset's distinct rows count
        # its points and its realized types
        assert len({rows[a] for a in A}) == len(A)
        for z in range(ctx.n):
            assert (rows[z] < 0) == (z in A)
            if z in A:
                continue
            # each field decodes to the pair code of (z, a), a_1's highest
            fields = [rows[z] >> width * (len(A) - 1 - i) & mask for i in range(len(A))]
            assert [ctx._decode(c) for c in fields] == [_ref_pair_code(ctx, z, a) for a in A]
            t = form.rows[rows[z]]
            assert key[t] == ctx.point_type(A, z)
            assert t is form.types[key[t]] and t in exact
        assert _tally(ctx, A) == Counter(
            ctx.point_type(A, z) for z in range(ctx.n) if z not in A)
        assert list(exact) == list(dict.fromkeys(
            form.rows[rows[z]] for z in range(ctx.n) if z not in A))
    for z in range(ctx.n):
        ctx.register(z, 3)
        assert ([_registered(ctx, A, z) for A in _subsets(z)]
                == [ctx.point_type(A, z) for A in _subsets(z)])


@pytest.mark.parametrize("stop", [None, "mid-walk", "registered"])
def test_a_sweep_leaves_no_reference_cycle(chain3, stop):
    # with the cyclic GC off, a context is freed when its last reference
    # goes, whether its sweep ran to the end or was left suspended inside
    # the size-3 walk, as generation's visit walk is left when it appends,
    # and after it registered a point, as generation does after an append
    s = gen(chain3, [("0", "E"), ("E", "1")], size=12, depth=2)
    steps = 1 + 12 + 66 + 5 if stop == "mid-walk" else None
    gc.disable()
    try:
        ctx = _CheckContext(s)
        if stop == "registered":
            ctx.register(ctx.n - 1, 3)
        walk = ctx.sweep(3)
        assert len(list(itertools.islice(walk, steps))) == (steps or 1 + 12 + 66 + 220)
        ref = weakref.ref(ctx)
        del ctx, walk
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_grown_index_matches_a_fresh_one(case):
    # a context read while points are appended, as generation reads it,
    # answers as one built on the final structure
    make, sig, size, _ = KERNEL_CASES[case]
    s = gen(make(), sig, size=size - 4, depth=2)
    ctx = _CheckContext(s)
    rng = random.Random(5)
    for _ in range(4):
        for A in _subsets(ctx.n):
            _exact_types(ctx, A)
        base, t = next((A, t) for A in _subsets(ctx.n)
                       for t, u in ctx.form(A).types.items() if u not in _exact_types(ctx, A))
        list(ctx.sweep(3))   # fills child forms, which must survive the append
        _append_point(ctx, base, *t, rng)
        ctx.register(ctx.n - 1, 3)   # registration, as generation does it
    s = ctx.structure()
    fresh = _CheckContext(s)
    assert ctx._to == fresh._to
    assert _swept(ctx) == _swept(fresh)
    for A in _subsets(s.space.n):
        assert _rows(ctx, A) == _rows(fresh, A)
        assert _tally(ctx, A) == _tally(fresh, A)
        assert list(ctx.form(A).types) == list(fresh.form(A).types)
    for z in range(s.space.n):
        ctx.register(z, 3)
        fresh.register(z, 3)
        assert ([_registered(ctx, A, z) for A in _subsets(z)]
                == [_registered(fresh, A, z) for A in _subsets(z)])


def _recorded_indexes(monkeypatch):
    # the index of every later structure() call: generation's, once it ends,
    # and realize_type's, after its append
    grown, structure = [], _CheckContext.structure

    def recorded(ctx):
        grown.append(ctx)
        return structure(ctx)

    monkeypatch.setattr(_CheckContext, "structure", recorded)
    return grown


def _assert_codes(ctx):
    # every ordered pair's code against the reference, read off the index's
    # ranks: the (j, i) codes are swapped from the (i, j) ones, not computed
    for i, j in itertools.permutations(range(ctx.n), 2):
        assert ctx._decode(ctx._to[j][i]) == _ref_pair_code(ctx, i, j), (i, j)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_generation_grows_the_state_a_fresh_index_builds(monkeypatch, case):
    # the append invariant: after generation at depths 1-3, the index it grew
    # point by point holds the pair codes, distance rows, representatives
    # and ranks that an index built on the structure it returned holds, and
    # each code is the reference's
    make, sig, size, _ = KERNEL_CASES[case]
    grown = _recorded_indexes(monkeypatch)
    for depth, seed in itertools.product((1, 2, 3), (0, 7)):
        cfg = GenerationConfig(seed=seed, target_size=size, saturation_depth=depth)
        s = generate_generic(make(), sig, cfg).structure
        ctx = grown.pop()
        fresh = _CheckContext(s)
        assert (ctx.n, ctx.points, ctx.dist) == (fresh.n, fresh.points, fresh.dist)
        assert ctx._to == fresh._to
        assert ctx.orders == fresh.orders
        _assert_codes(ctx)


def test_pair_codes_of_a_loaded_structure_with_sparse_ranks(tmp_path):
    # three orders with sparse ranks, through a .struct file
    make, sig, size, _ = KERNEL_CASES["b2xc2"]
    s = gen(make(), sig, seed=3, size=size, depth=2)
    sparse = _sparse(s)
    (tmp_path / "lattice.lat").write_text(dump_lattice(s.space.lattice))
    (tmp_path / "s.struct").write_text(dump_structure(sparse))
    space, orders = load_structure(tmp_path / "s.struct")
    loaded = OrderedLambdaStructure(space, orders)
    assert [o.rank for o in loaded.orders] == [o.rank for o in sparse.orders]
    assert max(o.rank[c] for o in loaded.orders for c in o.rank) > size
    _assert_codes(_CheckContext(loaded))


def _ref_appended_ranks(o, grown):
    # the rank rule of an append before ranks were shifted in place: the old
    # ranks, a fresh bottom class (no point within the bottom of the new one)
    # at its slot - 0.5, and every scale re-sorted by renormalized(), on a
    # space with nothing cached
    space = LambdaSpace(grown.space.lattice, grown.space.points, grown.space.dist)
    rank = dict(o.rank)
    lat, name = space.lattice, space.points[-1]
    if not any(lat.leq_idx(d, lat.index[o.bottom]) for d in space.dist[-1][:-1]):
        rank[name] = grown.rank[name] - 0.5
    return SubquotientOrder(space, o.bottom, o.top, rank).renormalized().rank


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_an_append_carries_class_reps_and_ranks_as_a_rebuild_gives_them(monkeypatch, case):
    # generation at depths 1-3, each append checked against a rebuild: the
    # class representatives it grows in place against class_reps on a fresh
    # space, each order's ranks, per class and per point, against the
    # renormalizing rule, and the scale ranks over the base against a fresh
    # index's
    make, sig, size, _ = KERNEL_CASES[case]
    appends = []

    def checked(ctx, idx_a, delta, *args):
        before = ctx.structure()
        _append_point(ctx, idx_a, delta, *args)
        grown = ctx.structure()
        assert ctx.scale_ranks(idx_a, delta) == _CheckContext(grown).scale_ranks(idx_a, delta)
        fresh = LambdaSpace(ctx.lat, ctx.points, ctx.dist)
        for (bot, _, reps, rank), o, new in zip(ctx.orders, before.orders, grown.orders):
            assert reps == list(class_reps(fresh, bot))
            want = _ref_appended_ranks(o, new)
            assert new.rank == want
            assert rank == [want[ctx.points[r]] for r in reps]
        appends.append(ctx.n)

    monkeypatch.setattr(generic, "_append_point", checked)
    for depth, seed in itertools.product((1, 2, 3), (0, 1, 7)):
        assert gen(make(), sig, seed=seed, size=size, depth=depth).space.n == size
    assert appends == list(range(1, size + 1)) * 9


def _ref_register(ctx, z, k):
    # registration as it ran before it read the children tables: size by
    # size, one form() lookup per subset of the points before z
    for A in _subsets(z, k):
        form, row = ctx.form(A), ctx.row(A, z)
        if row not in form.rows:
            ctx._row_type(form, A, row, z)


def _row_tables(ctx):
    # every form's row table, by path in the prefix tree, with patterns as keys
    tables, patterns = {}, _pattern_keys(ctx)
    for path, form in _tree_forms(ctx).items():
        key = _subset_types(form)
        tables[path] = {row: (key[t], patterns[t.pattern]) for row, t in form.rows.items()}
    return tables


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_registration_matches_the_per_subset_reference(monkeypatch, case):
    # twin contexts grown point by point, one registering each point with
    # the children-table walk and one subset by subset, fill the same row
    # tables and realize the same patterns; the walk canonicalizes only on
    # a children miss, so fewer times than there are subsets
    make, sig, size, _ = KERNEL_CASES[case]
    s = gen(make(), sig, size=size - 4, depth=2)
    walk, ref = _CheckContext(s), _CheckContext(s)
    for z in range(s.space.n):
        walk.register(z, 3)
        _ref_register(ref, z, 3)
    rng = random.Random(5)
    calls = _count_calls(monkeypatch, "_canonical")
    for _ in range(4):
        # a third context picks the type, so that neither twin's row tables
        # fill before its point is registered; both draw the same slots
        pick = _CheckContext(walk.structure())
        base, t = next((A, t) for A in _subsets(pick.n)
                       for t, u in pick.form(A).types.items() if u not in _exact_types(pick, A))
        state = rng.getstate()
        _append_point(walk, base, *t, rng)
        rng.setstate(state)
        _append_point(ref, base, *t, rng)
        assert (walk.points, walk.dist, walk.orders) == (ref.points, ref.dist, ref.orders)
        calls.clear()
        walk.register(walk.n - 1, 3)
        assert len(calls) < len(_subsets(walk.n - 1))
        _ref_register(ref, ref.n - 1, 3)
    assert _row_tables(walk) == _row_tables(ref)
    walk_keys, ref_keys = _pattern_keys(walk), _pattern_keys(ref)
    assert {walk_keys[p] for p in walk.realized} == {ref_keys[p] for p in ref.realized}


def _swept(ctx, k=3):
    swept = []
    for A, form, rows, _ in ctx.sweep(k):
        key = _subset_types(form)
        swept.append((A, form.cls.matrix, form.perm, rows,
                      [form.rows[row] and key[form.rows[row]] for row in rows]))
    return swept


SWEEP_CASES = {
    # lattice, signature, size, sweep depth: the kernel cases at depth 3, two
    # at depth 4, where a class has many forms, and B2 with one order, where
    # classes have automorphisms, so that some types share a pattern
    **{case: (make, sig, size, 3) for case, (make, sig, size, _) in KERNEL_CASES.items()},
    "chain3-k4": KERNEL_CASES["chain3"][:3] + (4,),
    "b2-k4": KERNEL_CASES["b2"][:3] + (4,),
    "b2-one-order": (boolean2, [("a", "1")], 12, 3),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_per_subset_forms_and_types(monkeypatch, case):
    # one walk serves both checks: it must visit today's subsets in today's
    # order, and its child-table forms and row-table types must be the ones
    # form() and point_type() give subset by subset. A class enumerates its
    # types once, over its first subset; every form maps them onto its own
    # labelling in types()'s order, which the seeded draws of generation
    # rest on, and each type's pattern is the class type of the least image
    # of its local under the automorphisms, one type per pattern
    make, sig, size, k = SWEEP_CASES[case]
    s = gen(make(), sig, size=size, depth=3)
    calls = _count_calls(monkeypatch, "_canonical")
    enumerated = _count_calls(monkeypatch, "types")
    ctx = _CheckContext(s)
    swept = []
    for A, form, rows, distinct in ctx.sweep(k):
        # the form's row table covers the subset's rows when it is yielded
        assert distinct == set(rows) and form.rows.keys() >= distinct
        swept.append((A, form, rows, [form.rows[row] for row in rows]))
    assert [A for A, _, _, _ in swept] == _subsets(s.space.n, k)
    assert len(calls) < len(swept)   # most forms came from a child table
    # types() ran once per class, and some class has more than one form
    assert len({ctx.form(A).cls for A in enumerated}) == len(enumerated) == len(ctx._classes)
    assert len(_tree_forms(ctx)) > len(ctx._classes)
    keys, orbits = _pattern_keys(ctx), set()
    for A, form, _, _ in swept:
        assert list(form.types) == list(ctx.types(A))
        autos = _ref_autos(form.cls.matrix)
        for t, u in form.types.items():
            assert u is form.cls.types[_permuted(*t, form.perm)]
            orbit = min(_permuted(*u.local, a) for a in autos)
            assert u.pattern is form.cls.types[orbit] and u.pattern.pattern is u.pattern
            assert keys[u.pattern] == (form.cls.matrix, orbit)
            orbits.add((form.cls.matrix, orbit))
    assert ctx.patterns == len(orbits) == len(keys)
    fresh = _CheckContext(s)
    for A, form, rows, types in swept:
        # one form object per code matrix, so identity is exactness
        assert form is ctx.form(A)
        new = fresh.form(A)
        assert (form.cls.matrix, form.perm) == (new.cls.matrix, new.perm)
        assert list(form.types) == list(new.types)
        assert rows == _rows(ctx, A)
        assert form.cls.autos == _ref_autos(form.cls.matrix)
        assert [t is None for t in types] == [z in A for z in range(ctx.n)]
        key = _subset_types(form)
        assert [key[t] for t in types if t is not None] == [
            ctx.point_type(A, z) for z in range(ctx.n) if z not in A]
        assert list(dict.fromkeys(t for t in types if t is not None)) == list(_exact_types(ctx, A))
    assert [A for A, _, _, _ in ctx.sweep(0)] == [()]
    assert list(ctx.sweep(-1)) == []


@pytest.mark.parametrize("case, k", [(case, 3) for case in sorted(KERNEL_CASES)] + [("chain3", 4)])
def test_the_prefix_tree_holds_one_form_per_code_matrix(case, k):
    # the tree is the one form index: after a full sweep its nodes are one
    # per distinct matrix of raw pair codes among the subsets swept, each
    # subset was yielded its matrix's node, and form() descends to that node
    make, sig, size, _ = KERNEL_CASES[case]
    ctx = _CheckContext(gen(make(), sig, size=size, depth=3))
    to, by_codes = ctx._to, {}
    swept = [(A, form) for A, form, _, _ in ctx.sweep(k)]
    for A, form in swept:
        assert by_codes.setdefault(tuple(to[b][a] for a in A for b in A), form) is form
    nodes = _tree_forms(ctx)
    assert len(set(nodes.values())) == len(nodes) == len(set(by_codes.values())) == len(by_codes)
    assert set(nodes.values()) == set(by_codes.values())
    assert all(ctx.form(A) is form for A, form in swept)
    assert len(_tree_forms(ctx)) == len(nodes)   # form() made no node


def _ref_census(ctx, k):
    # the patterns realized over every subset of at most k points, subset by
    # subset, with each outside point's type from point_type instead of the
    # row tables
    realized = set()
    for A in _subsets(ctx.n, k):
        types = ctx.form(A).types
        realized.update(types[ctx.point_type(A, z)].pattern
                        for z in range(ctx.n) if z not in A)
    return realized


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_sweep_realizes_the_per_subset_census(case):
    # on a fresh index, the row tables a full sweep fills realize exactly
    # the patterns a per-subset census finds
    make, sig, size, _ = KERNEL_CASES[case]
    ctx = _CheckContext(gen(make(), sig, size=size, depth=3))
    assert ctx.realized == set()
    for _ in ctx.sweep(3):
        pass
    assert ctx.realized == _ref_census(ctx, 3)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_a_sweep_types_each_canonical_row_once(monkeypatch, case):
    # a row table entry is a function of the class and the row in class
    # order, so point_type runs once per class table entry, not once per
    # form and row
    make, sig, size, _ = KERNEL_CASES[case]
    ctx = _CheckContext(gen(make(), sig, size=size, depth=3))
    calls = _count_calls(monkeypatch, "point_type")
    for _ in ctx.sweep(3):
        pass
    assert len(calls) == sum(len(cls.rows) for cls in ctx._classes.values())
    assert len(calls) < sum(t is not None for form in _tree_forms(ctx).values()
                            for t in form.rows.values())


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_homogeneity_check_builds_no_subset_type_list(monkeypatch, case):
    # the sweep and the check read class tables alone: after them, no form
    # holds its types in subset coordinates
    make, sig, size, _ = KERNEL_CASES[case]
    checked, check_context = [], generic._check_context

    def recorded(*args):
        checked.append(check_context(*args))
        return checked[-1]

    monkeypatch.setattr(generic, "_check_context", recorded)
    homogeneity_check(gen(make(), sig, size=size, depth=3), 3)
    (ctx,) = checked
    forms = _tree_forms(ctx).values()
    assert len(forms) > 1
    assert not any("types" in vars(form) for form in forms)


@pytest.mark.parametrize("lat, size", [("chain3", 20), ("b2", 14)])
def test_sweep_census_matches_the_per_subset_census(request, monkeypatch, lat, size):
    # the pass start's sweep, over the warm index that generation grows and
    # registers into, leaves the row tables realizing exactly the patterns
    # that a census over every subset finds. With an order every visit walk
    # appends, so the walks that run to their end appending nothing are the
    # pass starts, one per pass
    sweep = _CheckContext.sweep
    starts = []

    def checked(ctx, k):
        n = ctx.n
        yield from sweep(ctx, k)
        if ctx.n == n:
            assert ctx.realized == _ref_census(ctx, k)
            starts.append(n)

    plain = gen(request.getfixturevalue(lat), SIGS[lat], seed=3, size=size)
    monkeypatch.setattr(_CheckContext, "sweep", checked)
    s = gen(request.getfixturevalue(lat), SIGS[lat], seed=3, size=size)
    assert len(starts) > 2 and starts == sorted(set(starts))
    assert s.space.dist == plain.space.dist
    assert [o.rank for o in s.orders] == [o.rank for o in plain.orders]


def _record_far_points(monkeypatch):
    # the size of the structure at every append over the empty base after
    # its first point: generation's far points
    append, sizes = generic._append_point, []

    def recorded(ctx, idx_a, *rest):
        if not idx_a and ctx.n:
            sizes.append(ctx.n)
        append(ctx, idx_a, *rest)

    monkeypatch.setattr(generic, "_append_point", recorded)
    return sizes


@pytest.mark.parametrize("lat, sig, far", [("chain3", SIGS["chain3"], False),
                                           ("chain2", [], True)])
def test_generation_walks_the_subsets_once_per_pass(request, monkeypatch, lat, sig, far):
    # each steered pass is its census (a full walk) and then one visit walk,
    # both at the size of the pass start; once a census leaves no pattern
    # missing, steering ends and every later pass is a plain visit walk
    # alone. Every pass appends, so the sizes at the walks group them by
    # pass. The 3-chain steers to its last point; the order-free signature
    # stops steering, runs out of unrealized types and appends far points,
    # over the empty base after the first point (a steered walk always
    # appends)
    walks = []
    forced = _record_far_points(monkeypatch)
    sweep = _CheckContext.sweep

    def recorded(ctx, k):
        walks.append(ctx.n)
        return sweep(ctx, k)

    monkeypatch.setattr(_CheckContext, "sweep", recorded)
    s = gen(request.getfixturevalue(lat), sig, seed=3, size=20)
    assert s.space.n == 20
    passes = [len(list(size)) for _, size in itertools.groupby(walks)]
    steered = passes.count(2)
    plain = len(passes) - steered
    assert walks == sorted(walks)
    assert steered > 2 and passes == [2] * steered + [1] * plain
    assert bool(plain) == bool(forced) == far


def test_generation_with_an_order_never_appends_a_far_point(monkeypatch):
    # a plain walk over a structure with an order always finds an unrealized
    # type over one point, so a far point needs an order-free signature:
    # every distributive lattice of 2-6 elements, with its cover signature
    # and with each of its one-order signatures
    forced = _record_far_points(monkeypatch)
    runs = 0
    for lat in enumerate_distributive_lattices(6):
        mi = meet_irreducibles(lat)
        cover = [(e, mi.cover[e]) for e in mi.elements]
        if not cover:  # the one-element lattice
            continue
        sigs = [cover] + [[pair] for pair in cover if [pair] != cover]
        for sig, depth in itertools.product(sigs, (1, 2, 3)):
            cfg = GenerationConfig(seed=0, target_size=16, saturation_depth=depth)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                generate_generic(lat, sig, cfg, with_saturation_report=False)
            runs += 1
    assert runs == 147 and forced == []


def test_order_free_generation_matches_its_golden_digest():
    # pins the far points of order-free generation, report and steps included
    digest = hashlib.sha256()
    for lat, depth, seed in itertools.product(
            [chain_lattice(2), chain_lattice(3), boolean2(), chain_lattice(4)], (1, 2, 3),
            range(6)):
        cfg = GenerationConfig(seed=seed, target_size=16, saturation_depth=depth)
        got = generate_generic(lat, [], cfg)
        digest.update(dump_structure(got.structure).encode())
        digest.update(repr(got.saturation.as_dict()).encode())
        digest.update(str(got.steps).encode())
    assert digest.hexdigest() == "957a671fced1063e9f300b67fd29280861c2bd73433b8299b970ff026a37820f"


def _eager_generate(lat, sig, cfg):
    """``generate_generic`` with a census walk and registration on every
    pass, steered or not, as it ran before steering could end: the result,
    report included, and the steered value at each pass start."""
    rng = random.Random(cfg.seed)
    ctx = _CheckContext(empty_structure(lat, sig))
    k = cfg.saturation_depth
    steered_at = []

    def append(*args):
        _append_point(ctx, *args, rng)
        ctx.register(ctx.n - 1, k)

    while ctx.n < cfg.target_size:
        n = ctx.n
        for _ in ctx.sweep(k):
            pass
        steered = len(ctx.realized) < ctx.patterns
        steered_at.append(steered)
        for A, form, _, distinct in ctx.sweep(k):
            if ctx.n >= cfg.target_size:
                break
            exact = {form.rows[row] for row in distinct}
            exact.update(form.rows[ctx.row(A, z)] for z in range(n, ctx.n))
            cand = [t for t, u in form.types.items()
                    if u not in exact and not (steered and u.pattern in ctx.realized)]
            if cand:
                append(A, *cand[rng.randrange(len(cand))])
        if ctx.n == n:
            append((), (), (None,) * len(ctx.orders))
    return GenerationResult(ctx.structure(), _extension_report(ctx, k), ctx.n), steered_at


@pytest.mark.parametrize("depth", [2, 3])
def test_generation_matches_the_eager_schedule(depth):
    # dropping the census and registration once steering ends changes no
    # byte, report or step count; and the eager schedule, which keeps its
    # census exact on every pass, never finds a pattern missing again after
    # a pass start found none; the report read off the warm index is the one
    # a check on a fresh index gives
    ended = 0
    for lat in enumerate_distributive_lattices(5):
        mi = meet_irreducibles(lat)
        sig = [(e, mi.cover[e]) for e in mi.elements]
        for seed in range(4):
            cfg = GenerationConfig(seed=seed, target_size=20, saturation_depth=depth)
            want, steered_at = _eager_generate(lat, sig, cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = generate_generic(lat, sig, cfg)
            assert dump_structure(got.structure) == dump_structure(want.structure)
            assert got.saturation.as_dict() == want.saturation.as_dict()
            fresh = extension_property_check(got.structure, depth)
            assert (got.saturation.as_dict(), got.saturation.missing_pairs) == (
                fresh.as_dict(), fresh.missing_pairs)
            assert got.steps == want.steps
            assert steered_at[0] and steered_at == sorted(steered_at, reverse=True)
            ended += not steered_at[-1]
    assert ended


def test_generation_refuses_a_depth_past_the_cap(chain3):
    # the checks could not read a deeper report back, and the k! labellings
    # of a form would cost more than the run
    gen(chain3, SIGS["chain3"], size=4, depth=generic.MAX_DEPTH)
    with pytest.raises(SizeCapError, match="generation is capped at depth 7, got 8"):
        gen(chain3, SIGS["chain3"], size=10, depth=8)


def test_checks_refuse_a_depth_past_the_cap(chain3):
    s = gen(chain3, SIGS["chain3"], size=4, depth=1)
    for check in (extension_property_check, homogeneity_check):
        check(s, 7)
        with pytest.raises(SizeCapError, match="capped at k = 7, got 8"):
            check(s, 8)


def test_checks_refuse_an_invalid_structure(chain3):
    # swapping the lowest and highest ranked classes of order 0 puts two
    # classes of one scale on the same rank; the row-keyed kernels would
    # then depend on which point first filled a table entry
    s = gen(chain3, SIGS["chain3"], seed=4, size=16, depth=3)
    o = s.orders[0]
    reps = sorted(o.rank, key=o.rank.get)
    rank = dict(o.rank)
    rank[reps[0]], rank[reps[-1]] = rank[reps[-1]], rank[reps[0]]
    bad = OrderedLambdaStructure(
        s.space, (SubquotientOrder(s.space, o.bottom, o.top, rank),) + s.orders[1:])
    assert not bad.validate().ok
    for check in (extension_property_check, homogeneity_check):
        with pytest.raises(InvalidStructureError, match="strict-total"):
            check(bad, 3)
