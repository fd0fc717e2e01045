import itertools
import random
from collections import Counter

import pytest

from permlat.errors import (InvalidStructureError, MeetReducibleBottomError,
                            NonDistributiveError, SizeCapError)
from permlat.generic import (GenerationConfig, HomogeneityReport, OnePointType,
                             SaturationReport, _append_point, _CheckContext, _force_far_point,
                             empty_structure, enumerate_one_point_types,
                             extension_property_check, generate_generic, homogeneity_check,
                             realize_type)
from permlat.lattice import boolean2, chain_lattice, m3, meet_irreducibles, product_lattice
from permlat.spaces import equivalences_from_space, validate_space
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
        _append_point(s, _CheckContext(s), (0, 1), (a, b), (None, None), random.Random(0))
    assert e.value.code == "COLLAPSED_COMPLETION"


# -- the subset index against a per-(subset, type) computation ----------------
#
# The references below canonicalize every subset from tuple pair codes, take
# each point's exact type one outside point at a time, and key every type by
# a minimum over automorphisms: no memo, no code table, no class table.


def _ref_pair_code(ctx, i, j):
    d = ctx.dist[i][j]
    codes = []
    for bot, top, _, rank in ctx.orders:
        if ctx.leq(d, bot):
            codes.append(0)
        elif not ctx.leq(d, top):
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
        "chain4": [("0", "e"), ("e", "f"), ("f", "1")]}


@pytest.mark.parametrize("lat, size, depth, k, complete", [
    ("chain3", 4, 1, 2, False), ("chain3", 6, 1, 3, False),
    ("b2", 10, 1, 2, False), ("b2", 10, 1, 3, False),
    ("chain3", 14, 3, 3, True), ("b2", 24, 3, 3, True), ("chain4", 20, 3, 3, True),
])
def test_checks_match_per_subset_type_references(request, lat, size, depth, k, complete):
    s = gen(request.getfixturevalue(lat), SIGS[lat], size=size, depth=depth)
    for subject in (s, _corrupted(s)):
        ext, ref = extension_property_check(subject, k), ref_extension_property_check(subject, k)
        assert ext.as_dict() == ref.as_dict()
        assert ext.missing_pairs == ref.missing_pairs
        hom, href = homogeneity_check(subject, k), ref_homogeneity_check(subject, k)
        assert hom.as_dict() == href.as_dict()
        assert hom.failures == href.failures
    report = extension_property_check(s, k)
    assert (report.ratio == 1.0) == complete
    assert bool(report.missing_patterns) != complete


def _tally(ctx, A):
    # the exact type of every point outside A, counted
    ctx.exact_types(A)   # fills the form's row table
    table = ctx.form(A).rows
    return Counter(table[row].type for row in ctx.rows(A) if row >= 0)


def _subsets(n, k=3):
    return [A for size in range(k + 1) for A in itertools.combinations(range(n), size)]


@pytest.mark.parametrize("grow", ["realize_type", "_force_far_point"])
def test_index_entries_survive_an_appended_point(chain3, grow):
    # the memo rests on this: appending a point changes no old pair code, so
    # every old subset keeps its canonical form, its pattern keys and the
    # packed row of every old point
    s = gen(chain3, SIGS["chain3"], size=10, depth=2)
    ctx = _CheckContext(s)
    subsets = _subsets(s.space.n)
    kept = {A: ctx.form(A) for A in subsets}
    rows = {A: ctx.rows(A) for A in subsets}
    exact = {A: _tally(ctx, A) for A in subsets}
    if grow == "realize_type":
        base = (0, 2)
        delta, gaps = next(t for t in ctx.form(base).types if t not in exact[base])
        names = tuple(s.space.points[a] for a in base)
        grown = realize_type(s, OnePointType(names, delta, gaps), random.Random(3))
        assert grown.added is not None
        grown = grown.structure
    else:
        grown = _force_far_point(s, random.Random(3))
    assert grown.space.points[:-1] == s.space.points
    ctx.extend(grown)
    fresh = _CheckContext(grown)
    assert ctx._codes() == fresh._codes()
    z = grown.space.n - 1
    for A, t in zip(subsets, ctx.types_of(z, 3), strict=True):
        form, new = ctx.form(A), fresh.form(A)
        assert form is kept[A]
        assert (form.cls.matrix, form.perm) == (new.cls.matrix, new.perm)
        assert (form.cls.matrix, form.perm) == _ref_canonical(fresh, list(A))
        assert ([(u.type, u.local, ctx.keys[u.pattern]) for u in form.types.values()]
                == [(u.type, u.local, fresh.keys[u.pattern]) for u in new.types.values()])
        assert t.type == fresh.point_type(A, z)
        assert ctx.rows(A) == fresh.rows(A) == rows[A] + [fresh.rows(A)[z]]
        assert _tally(ctx, A) == _tally(fresh, A) == exact[A] + Counter([t.type])


def _b2_times_chain2():
    return product_lattice(boolean2(), chain_lattice(2, ["z", "o"]))


KERNEL_CASES = {
    # lattice, signature, size, packed field width
    "chain3": (lambda: chain_lattice(3, ["0", "E", "1"]), SIGS["chain3"], 14, 6),
    "b2": (boolean2, SIGS["b2"], 12, 6),
    "b2xc2": (_b2_times_chain2, [("a*o", "1*o"), ("b*o", "1*o"), ("1*z", "1*o")], 10, 9),
    "chain4": (lambda: chain_lattice(4, ["0", "e", "f", "1"]), SIGS["chain4"], 12, 8),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_packed_rows_match_point_types(case):
    make, sig, size, width = KERNEL_CASES[case]
    s = gen(make(), sig, size=size, depth=3)
    ctx = _CheckContext(s)
    assert ctx.width == width
    mask = (1 << width) - 1
    for A in _subsets(s.space.n):
        rows = ctx.rows(A)
        exact = ctx.exact_types(A)
        form = ctx.form(A)
        for z in range(ctx.n):
            assert (rows[z] < 0) == (z in A)
            if z in A:
                continue
            # each field decodes to the pair code of (z, a), a_1's highest
            fields = [rows[z] >> width * (len(A) - 1 - i) & mask for i in range(len(A))]
            assert [ctx._decode(c) for c in fields] == [_ref_pair_code(ctx, z, a) for a in A]
            t = form.rows[rows[z]]
            assert t.type == ctx.point_type(A, z)
            assert t is form.types[t.type] and t in exact
        assert _tally(ctx, A) == Counter(
            ctx.point_type(A, z) for z in range(ctx.n) if z not in A)
        assert list(exact) == list(dict.fromkeys(
            form.rows[rows[z]] for z in range(ctx.n) if z not in A))
    for z in range(ctx.n):
        assert ([t.type for t in ctx.types_of(z, 3)]
                == [ctx.point_type(A, z) for A in _subsets(z)])


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_grown_index_matches_a_fresh_one(case):
    # a context read while points are appended, as generation reads it,
    # answers as one built on the final structure
    make, sig, size, _ = KERNEL_CASES[case]
    s = gen(make(), sig, size=size - 4, depth=2)
    ctx = _CheckContext(s)
    rng = random.Random(5)
    for _ in range(4):
        for A in _subsets(s.space.n):
            ctx.exact_types(A)
        base, t = next((A, t) for A in _subsets(s.space.n)
                       for t in ctx.form(A).types.values() if t not in ctx.exact_types(A))
        list(ctx.sweep(3))   # fills child forms, which must survive the append
        s = _append_point(s, ctx, base, *t.type, rng)
        ctx.extend(s)
        ctx.types_of(s.space.n - 1, 3)   # registration, as generation does it
    fresh = _CheckContext(s)
    assert ctx._codes() == fresh._codes()
    assert _swept(ctx) == _swept(fresh)
    for A in _subsets(s.space.n):
        assert ctx.rows(A) == fresh.rows(A)
        assert _tally(ctx, A) == _tally(fresh, A)
        assert ([t.type for t in ctx.form(A).types.values()]
                == [t.type for t in fresh.form(A).types.values()])
    for z in range(s.space.n):
        assert ([t.type for t in ctx.types_of(z, 3)]
                == [t.type for t in fresh.types_of(z, 3)])


def _swept(ctx, k=3, since=None):
    return [(A, form.cls.matrix, form.perm, rows, [form.rows[row] and form.rows[row].type
                                                   for row in rows])
            for A, form, rows, _ in ctx.sweep(k, since)]


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_sweep_matches_per_subset_forms_and_types(case):
    # one walk serves both checks: it must visit today's subsets in today's
    # order, and its child-table forms and row-table types must be the ones
    # form() and point_type() give subset by subset
    make, sig, size, _ = KERNEL_CASES[case]
    s = gen(make(), sig, size=size, depth=3)
    ctx = _CheckContext(s)
    swept = []
    for A, form, rows, distinct in ctx.sweep(3):
        # the form's row table covers the subset's rows when it is yielded
        assert distinct == set(rows) and form.rows.keys() >= distinct
        swept.append((A, form, rows, [form.rows[row] for row in rows]))
    assert [A for A, _, _, _ in swept] == _subsets(s.space.n)
    assert len(ctx._forms) < len(swept)   # most forms came from a child table
    fresh = _CheckContext(s)
    for A, form, rows, types in swept:
        # one form object per code matrix, so identity is exactness
        assert form is ctx.form(A)
        new = fresh.form(A)
        assert (form.cls.matrix, form.perm) == (new.cls.matrix, new.perm)
        assert [t.type for t in form.types.values()] == [t.type for t in new.types.values()]
        assert rows == ctx.rows(A)
        assert [t is None for t in types] == [z in A for z in range(ctx.n)]
        assert [t.type for t in types if t is not None] == [
            ctx.point_type(A, z) for z in range(ctx.n) if z not in A]
        assert list(dict.fromkeys(t for t in types if t is not None)) == list(ctx.exact_types(A))
    assert [A for A, _, _, _ in ctx.sweep(0)] == [()]
    assert list(ctx.sweep(-1)) == []


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_sweep_since_yields_the_subsets_meeting_the_later_points(case):
    # the census sweeps only the subsets whose last point is new: the full
    # sweep's nonempty subsets with last point >= since, in the same order,
    # with the same forms, rows and row tables, on a warm index and a cold one
    make, sig, size, _ = KERNEL_CASES[case]
    s = gen(make(), sig, size=size, depth=3)
    ctx = _CheckContext(s)
    full = list(ctx.sweep(3))
    for since in (0, 1, ctx.n // 2, ctx.n - 1, ctx.n):
        assert list(ctx.sweep(3, since)) == [x for x in full if x[0] and x[0][-1] >= since]
    since = ctx.n // 2
    assert _swept(_CheckContext(s), 3, since) == [
        x for x in _swept(ctx) if x[0] and x[0][-1] >= since]
    assert list(ctx.sweep(0, 0)) == []


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


@pytest.mark.parametrize("lat, size", [("chain3", 20), ("b2", 14)])
def test_sweep_census_matches_the_per_subset_census(request, monkeypatch, lat, size):
    # the pass start's sweep, over the subsets meeting the points appended
    # since the last one, leaves the row tables realizing exactly the
    # patterns that a census over every subset finds
    sweep = _CheckContext.sweep
    starts = []

    def checked(ctx, k, since=None):
        yield from sweep(ctx, k, since)
        if since is not None:
            assert ctx.realized == _ref_census(ctx, k)
            starts.append(since)

    plain = gen(request.getfixturevalue(lat), SIGS[lat], seed=3, size=size)
    monkeypatch.setattr(_CheckContext, "sweep", checked)
    s = gen(request.getfixturevalue(lat), SIGS[lat], seed=3, size=size)
    assert len(starts) > 2 and starts == sorted(starts)
    assert s.space.dist == plain.space.dist
    assert [o.rank for o in s.orders] == [o.rank for o in plain.orders]


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
