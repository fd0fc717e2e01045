import itertools
import random

import pytest

from permlat.errors import (InvalidFactorError, NonDistributiveError, NotALatticeError,
                            SizeCapError)
from permlat.canon import canonical_key
from permlat.lattice import (FiniteLattice, FinitePoset, boolean2, chain_lattice,
                             enumerate_lattices, is_distributive, m3, n5, product_lattice,
                             vertical_sum)
from permlat.spaces import (FailingInstance, LambdaSpace, SweepReport, amalgam_validity_sweep,
                            amalgamation_failure_probe, canonical_amalgam,
                            equivalences_from_space, space_from_equivalences,
                            validate_space, _base_spaces, _extensions,
                            _has_pseudo_completion, _materialize, _sweep, _triangle_rows)
from space_helpers import all_spaces, space_from_distances


def test_single_point_space_is_valid(b2):
    s = space_from_distances(b2, ["x"], {})
    assert validate_space(s).ok


def test_two_points_at_bottom_distance_invalid(b2):
    s = space_from_distances(b2, ["x", "y"], {("x", "y"): "0"})
    report = validate_space(s)
    assert any(v.rule == "indiscernible" for v in report.violations)


def test_three_point_space_over_b2(b2):
    s = space_from_distances(
        b2, ["1", "2", "3"], {("1", "2"): "a", ("2", "3"): "b", ("1", "3"): "1"})
    assert validate_space(s).ok


def test_triangle_violation_reported(chain3):
    s = space_from_distances(
        chain3, ["x", "y", "z"], {("x", "y"): "E", ("y", "z"): "E", ("x", "z"): "1"})
    report = validate_space(s)
    assert any(v.rule == "join-triangle" for v in report.violations)


@pytest.mark.parametrize("far", [5, -1])
def test_a_distance_outside_the_lattice_is_reported_with_its_pair(chain3, far):
    # reported alone, before the join-triangle pass reads the matrix: at
    # three points that pass raised an uncoded ValueError
    two = LambdaSpace(chain3, ("a", "b"), ((0, far), (far, 0)))
    three = LambdaSpace(chain3, ("a", "b", "c"), ((0, 2, 2), (2, 0, far), (2, far, 0)))
    assert [(v.rule, v.witness) for v in validate_space(two).violations] == [("range", ("a", "b"))]
    assert [(v.rule, v.witness) for v in validate_space(three).violations] == [
        ("range", ("b", "c"))]


def test_a_space_over_a_relation_that_is_no_lattice_is_refused_with_a_code():
    # the join-triangle pass presumes a lattice: over an irreflexive
    # relation it raised an uncoded IndexError
    lat = FiniteLattice.from_poset(FinitePoset(("e0", "e1", "e2"), (0, 0, 0)))
    s = LambdaSpace(lat, ("a", "b", "c"), ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    with pytest.raises(NotALatticeError, match="reflexive"):
        validate_space(s)


# -- equivalence systems -----------------------------------------------------


@pytest.fixture
def b2_space(b2):
    return space_from_distances(
        b2, ["1", "2", "3"], {("1", "2"): "a", ("2", "3"): "b", ("1", "3"): "1"})


def test_partition_at_top_is_one_class(b2_space):
    assert equivalences_from_space(b2_space).partition("1") == (("1", "2", "3"),)


def test_partition_at_bottom_is_discrete(b2_space):
    assert equivalences_from_space(b2_space).partition("0") == (("1",), ("2",), ("3",))


def test_partition_at_atom_groups_close_pair(b2_space):
    assert equivalences_from_space(b2_space).partition("a") == (("1", "2"), ("3",))


def test_system_invariants_hold(b2_space):
    assert equivalences_from_space(b2_space).validate().ok


def test_space_from_discrete_system(chain2):
    s = space_from_distances(chain2, ["1", "2"], {("1", "2"): "1"})
    eq = equivalences_from_space(s)
    assert space_from_equivalences(eq).d("1", "2") == "1"


def test_space_from_one_relation_system(chain3):
    s = space_from_distances(
        chain3, ["1", "2", "3"], {("1", "2"): "E", ("1", "3"): "1", ("2", "3"): "1"})
    eq = equivalences_from_space(s)
    back = space_from_equivalences(eq)
    assert back.d("1", "2") == "E"
    assert back.d("1", "3") == "1" and back.d("2", "3") == "1"


def test_round_trip_small_sample(chain3):
    for s in itertools.islice(all_spaces(chain3, 3), 50):
        assert space_from_equivalences(equivalences_from_space(s)) == s


# -- canonical amalgam -------------------------------------------------------


def _brute_valid_completions(lat, base, f1, f2):
    """Every assignment of nonzero cross distances under which the union of
    the two factors passes ``validate_space``."""
    new1 = [p for p in f1.points if p not in base.pindex]
    new2 = [p for p in f2.points if p not in base.pindex]
    pairs = [(a, b) for a in new1 for b in new2]
    pts = f1.points + tuple(new2)
    idx = {p: i for i, p in enumerate(pts)}
    out = []
    for values in itertools.product(lat.nonzero_idx(), repeat=len(pairs)):
        dist = [[lat.bottom_idx] * len(pts) for _ in pts]
        for f in (f1, f2):
            for x, y in itertools.combinations(f.points, 2):
                dist[idx[x]][idx[y]] = dist[idx[y]][idx[x]] = f.dist[f.pindex[x]][f.pindex[y]]
        for (a, b), v in zip(pairs, values):
            dist[idx[a]][idx[b]] = dist[idx[b]][idx[a]] = v
        if validate_space(LambdaSpace(lat, pts, tuple(map(tuple, dist)))).ok:
            out.append(dict(zip(pairs, values)))
    return pairs, out


def test_one_base_point_amalgam_is_the_join(chain3):
    lat = chain3
    base = space_from_distances(lat, ["b"], {})
    f1 = space_from_distances(lat, ["b", "x"], {("b", "x"): "E"})
    f2 = space_from_distances(lat, ["b", "y"], {("b", "y"): "1"})
    result = canonical_amalgam(base, f1, f2)
    assert result.space.d("x", "y") == lat.join("E", "1")
    # brute-force: the canonical value dominates every valid completion
    pairs, completions = _brute_valid_completions(lat, base, f1, f2)
    assert completions
    canon = lat.index[result.space.d("x", "y")]
    for assigned in completions:
        assert lat.leq_idx(assigned[pairs[0]], canon)


def test_amalgam_with_f1_equal_to_base_returns_f2(b2):
    base = space_from_distances(b2, ["b"], {})
    f2 = space_from_distances(b2, ["b", "y"], {("b", "y"): "a"})
    result = canonical_amalgam(base, base, f2)
    assert result.space == f2


def test_empty_base_gives_top_distance(b2):
    base = LambdaSpace(b2, (), ())
    f1 = space_from_distances(b2, ["x"], {})
    f2 = space_from_distances(b2, ["y"], {})
    result = canonical_amalgam(base, f1, f2)
    assert result.space.d("x", "y") == "1"


def test_canonical_completion_is_maximal_not_minimal(chain4):
    # over base distances (v,v)/(v,v) the canonical cross value is v, yet the
    # strictly smaller completion u is also valid: the canonical amalgam is
    # the pointwise-largest completion, not the smallest
    lat = chain4
    base = space_from_distances(lat, ["c1", "c2"], {("c1", "c2"): "e"})
    f1 = space_from_distances(
        lat, ["c1", "c2", "x"], {("c1", "c2"): "e", ("x", "c1"): "f", ("x", "c2"): "f"})
    f2 = space_from_distances(
        lat, ["c1", "c2", "y"], {("c1", "c2"): "e", ("y", "c1"): "f", ("y", "c2"): "f"})
    result = canonical_amalgam(base, f1, f2)
    assert result.space.d("x", "y") == "f"
    pairs, completions = _brute_valid_completions(lat, base, f1, f2)
    values = {assigned[pairs[0]] for assigned in completions}
    assert lat.index["e"] in values  # smaller completion exists
    assert max(values, key=lambda v: sum(lat.leq_idx(u, v) for u in range(lat.n))) \
        == lat.index["f"]


def test_forced_identification_over_b2(b2):
    base = space_from_distances(b2, ["c1", "c2"], {("c1", "c2"): "1"})
    mk = lambda name: space_from_distances(
        b2, ["c1", "c2", name],
        {("c1", "c2"): "1", (name, "c1"): "a", (name, "c2"): "b"})
    result = canonical_amalgam(base, mk("x"), mk("y"))
    assert result.merged == {"y": "x"}
    assert validate_space(result.space).ok


def test_monotone_in_base(chain4):
    # adding base points can only lower cross distances
    lat = chain4
    base1 = space_from_distances(lat, ["c1"], {})
    base2 = space_from_distances(lat, ["c1", "c2"], {("c1", "c2"): "e"})
    f1a = space_from_distances(lat, ["c1", "x"], {("c1", "x"): "f"})
    f2a = space_from_distances(lat, ["c1", "y"], {("c1", "y"): "e"})
    f1b = space_from_distances(
        lat, ["c1", "c2", "x"], {("c1", "c2"): "e", ("x", "c1"): "f", ("x", "c2"): "f"})
    f2b = space_from_distances(
        lat, ["c1", "c2", "y"], {("c1", "c2"): "e", ("y", "c1"): "e", ("y", "c2"): "e"})
    d1 = canonical_amalgam(base1, f1a, f2a).space.d("x", "y")
    d2 = canonical_amalgam(base2, f1b, f2b).space.d("x", "y")
    assert lat.leq(d2, d1)


def test_non_distributive_lattice_rejected():
    lat = m3()
    base = space_from_distances(lat, ["b"], {})
    f1 = space_from_distances(lat, ["b", "x"], {("b", "x"): "p"})
    with pytest.raises(NonDistributiveError):
        canonical_amalgam(base, f1, f1)


def test_invalid_factor_rejected(b2):
    base = space_from_distances(b2, ["c"], {})
    bad = space_from_distances(
        b2, ["c", "x", "y"], {("c", "x"): "a", ("c", "y"): "a", ("x", "y"): "1"})
    good = space_from_distances(b2, ["c", "z"], {("c", "z"): "b"})
    with pytest.raises(InvalidFactorError):
        canonical_amalgam(base, bad, good)


def test_point_id_collision_is_an_error(b2):
    base = space_from_distances(b2, ["c"], {})
    f1 = space_from_distances(b2, ["c", "x"], {("c", "x"): "a"})
    with pytest.raises(InvalidFactorError):
        canonical_amalgam(base, f1, f1)


# -- failure probe -----------------------------------------------------------


def test_probe_finds_failure_for_m3():
    assert amalgamation_failure_probe(m3()) is not None


def test_probe_finds_failure_for_n5():
    assert amalgamation_failure_probe(n5()) is not None


def test_probe_finds_nothing_for_chain():
    assert amalgamation_failure_probe(chain_lattice(4), max_base=2) is None


def test_probe_finds_nothing_for_b2_despite_identifications():
    assert amalgamation_failure_probe(boolean2(), max_base=2) is None


def test_max_new_0_gives_no_instance():
    # every factor adds at least one point, so with none allowed there is
    # nothing to amalgamate and nothing to fail
    assert amalgam_validity_sweep(chain_lattice(3), max_base=2, max_new=0).instances == 0
    assert amalgamation_failure_probe(m3(), max_new=0) is None


def test_sweep_valid_on_small_lattices():
    for lat in [chain_lattice(3), boolean2()]:
        report = amalgam_validity_sweep(lat, max_base=2, max_new=2)
        assert report.instances > 0
        assert not report.failures


@pytest.mark.parametrize("lat", [chain_lattice(3), boolean2()],
                         ids=lambda lat: "-".join(lat.elements))
def test_canonical_completion_dominates_every_valid_completion(lat):
    # every instance at (max_base, max_new) = (2, 1); B2 has identifications
    found = 0
    for base, _, _, _, _, f1, f2 in _reference_instances(lat, 2, 1):
        f1, f2 = f1(), f2()
        result = canonical_amalgam(base, f1, f2)
        out = result.space
        (a, b), = itertools.product(f1.points[base.n:], f2.points[base.n:])
        canon = (lat.bottom_idx if b in result.merged
                 else out.dist[out.pindex[a]][out.pindex[b]])
        _, completions = _brute_valid_completions(lat, base, f1, f2)
        found += len(completions)
        assert all(lat.leq_idx(assigned[(a, b)], canon) for assigned in completions)
        # without an identification the canonical value is itself a completion
        assert b in result.merged or {(a, b): canon} in completions
    assert found


@pytest.mark.parametrize("call, lat", [(amalgamation_failure_probe, chain_lattice(3)),
                                       (amalgamation_failure_probe, m3()),
                                       (amalgam_validity_sweep, chain_lattice(3))])
@pytest.mark.parametrize("sizes", [{"max_base": 5}, {"max_new": 3}])
def test_sizes_the_enumeration_cannot_cover_are_refused(call, lat, sizes):
    # bases are capped at 4 points for run time, and extensions are
    # enumerated with at most 2 new points
    with pytest.raises(SizeCapError):
        call(lat, **sizes)


def _reference_base_spaces(lat, max_base):
    """Bases up to 3 points, one per multiset of pair distances: on at most
    3 points that multiset is a complete isomorphism invariant."""
    names = [f"c{i}" for i in range(max_base)]
    yield LambdaSpace(lat, (), ())
    for k in range(1, max_base + 1):
        for combo in itertools.combinations_with_replacement(lat.nonzero_idx(), k * (k - 1) // 2):
            dist = [[lat.bottom_idx] * k for _ in range(k)]
            pos = 0
            for i in range(k):
                for j in range(i + 1, k):
                    dist[i][j] = dist[j][i] = combo[pos]
                    pos += 1
            s = LambdaSpace(lat, tuple(names[:k]), tuple(map(tuple, dist)))
            if validate_space(s).ok:
                yield s


@pytest.mark.parametrize("lat", list(enumerate_lattices(6)), ids=lambda lat: "-".join(lat.elements))
def test_bases_up_to_3_points_match_the_distance_multiset_enumeration(lat):
    assert list(_base_spaces(lat, 3)) == list(_reference_base_spaces(lat, 3))


def _canonical_base_spaces(lat, max_base):
    """_base_spaces as it was while canonical_key keyed every layer."""
    layer = [LambdaSpace(lat, (), ())]
    yield from layer
    for k in range(max_base):
        classes = {}
        for base in layer:
            for row in _triangle_rows(lat, base.dist):
                s = base.extended(f"c{k}", row)
                classes.setdefault(canonical_key(s.dist), s)
        layer = list(classes.values())
        yield from layer


@pytest.mark.parametrize("lat", [*enumerate_lattices(5), product_lattice(boolean2(), chain_lattice(2))],
                         ids=lambda lat: "-".join(lat.elements))
def test_distance_keyed_bases_equal_the_canonical_keyed_ones(lat):
    # keying bases of at most 3 points by their sorted distances keeps the
    # same representatives, in the same order, as canonical_key did
    assert ([(s.points, s.dist) for s in _base_spaces(lat, 4)]
            == [(s.points, s.dist) for s in _canonical_base_spaces(lat, 4)])


def _space_key(s):
    return canonical_key(s.dist)


@pytest.mark.parametrize("lat", list(enumerate_lattices(5)), ids=lambda lat: "-".join(lat.elements))
def test_4_point_bases_are_one_per_isomorphism_class(lat):
    bases = [_space_key(s) for s in _base_spaces(lat, 4) if s.n == 4]
    assert len(bases) == len(set(bases))
    assert set(bases) == {_space_key(s) for s in all_spaces(lat, 4)}


def test_sweep_over_4_point_bases_fails_exactly_off_distributive_lattices():
    lats = [lat for lat in enumerate_lattices(5) if is_distributive(lat)]
    assert len(lats) == 7
    reports = [amalgam_validity_sweep(lat, 4, 2) for lat in lats]
    assert sum(r.instances for r in reports) == 789_558
    assert not any(r.failures for r in reports)
    assert amalgamation_failure_probe(m3(), 4, 2) is not None
    assert amalgamation_failure_probe(n5(), 4, 2) is not None


def test_probe_stops_at_the_first_failing_instance():
    found = amalgamation_failure_probe(m3())
    assert found.base.dist == ((0, 1), (1, 0))
    assert found.f1.points == ("c0", "c1", "x0", "x1")
    assert found.f2.dist[2][3] == 4


@pytest.mark.parametrize("lat", [chain_lattice(3), boolean2()])
def test_triangle_rows_are_exactly_the_valid_extensions(lat):
    for base in all_spaces(lat, 3):
        rows = _triangle_rows(lat, base.dist)
        brute = []
        for row in itertools.product(lat.nonzero_idx(), repeat=base.n):
            dist = [list(r) + [x] for r, x in zip(base.dist, row)] + [list(row) + [lat.bottom_idx]]
            ext = LambdaSpace(lat, base.points + ("z",), tuple(map(tuple, dist)))
            if validate_space(ext).ok:
                brute.append(row)
        assert rows == brute


def _witness_scan(s):
    """Every violation the plain per-point, per-pair and per-triple scans
    find, as (rule, point indices), in ``validate_space``'s order."""
    lat, dist, bot = s.lattice, s.dist, s.lattice.bottom_idx
    out = [("self-distance", (i,)) for i in range(s.n) if dist[i][i] != bot]
    for i, j in itertools.combinations(range(s.n), 2):
        out += [("symmetric", (i, j))] * (dist[i][j] != dist[j][i])
        out += [("indiscernible", (i, j))] * (dist[i][j] == bot)
    return out + [("join-triangle", (i, j, k))
                  for i, j, k in itertools.permutations(range(s.n), 3)
                  if not lat.leq_idx(dist[i][k], lat.join_idx(dist[i][j], dist[j][k]))]


@pytest.mark.parametrize("lat", list(enumerate_lattices(5)), ids=lambda lat: lat.n)
def test_fast_triangle_pass_agrees_with_the_witness_scan(lat):
    # symmetric 4-point matrices of nonzero distances, valid or not: all of
    # them up to 4 elements, a sample on the 5-element lattices (M3 and N5
    # among them; the level-wise test needs no distributivity)
    rng = random.Random(lat.n)
    pairs = list(itertools.combinations(range(4), 2))
    values = list(itertools.product(lat.nonzero_idx(), repeat=len(pairs)))
    if len(values) > 729:
        values = rng.sample(values, 729)
    mats = []
    for row in values:
        dist = [[lat.bottom_idx] * 4 for _ in range(4)]
        for (i, j), v in zip(pairs, row):
            dist[i][j] = dist[j][i] = v
        mats.append(dist)
    # and any matrix of up to 5 points: asymmetric, bottom anywhere
    mats += [[[rng.randrange(lat.n) for _ in range(n)] for _ in range(n)]
             for n in (rng.randint(0, 5) for _ in range(100))]
    for dist in mats:
        s = LambdaSpace(lat, tuple("abcde"[:len(dist)]), tuple(map(tuple, dist)))
        report = validate_space(s)
        assert [(v.rule, tuple(map(s.pindex.get, v.witness)))
                for v in report.violations] == _witness_scan(s)


# -- sweep kernel against the per-instance check -----------------------------


def _reference_instances(lat, max_base, max_new):
    """Every (base, rows1, m1, rows2, m2, f1, f2) instance in sweep order."""
    for base in _base_spaces(lat, max_base):
        rows, exts = _extensions(lat, base, max_new)
        for i1, ext1 in enumerate(exts):
            for ext2 in exts[i1:]:
                yield (base, [rows[i] for i in ext1[0]], ext1[1], [rows[i] for i in ext2[0]],
                       ext2[1], lambda e=ext1: _materialize(base, rows, e, "x"),
                       lambda e=ext2: _materialize(base, rows, e, "y"))


def _triangle_ok(up, join, a, b, c):
    """The join-triangle on one triple of distances: each lies below the
    join of the other two."""
    return bool(up[a] >> join[b][c] & 1 and up[b] >> join[a][c] & 1
                and up[c] >> join[a][b] & 1)


def _reference_sweep(lat, max_base, max_new):
    """The sweep as one per-instance loop: every cross distance as a meet of
    joins over the base, then every triangle through each cross pair."""
    join = lat._join
    up = lat.poset.up
    bot = lat.bottom_idx

    def leq(i, j):
        return up[i] & (1 << j)

    def faulty(rows1, m1, rows2, m2, base_n):
        cross = [[lat.meet_many_idx([join[x][y] for x, y in zip(ra, rb)]) for rb in rows2]
                 for ra in rows1]
        for a, ra in enumerate(rows1):
            for b, rb in enumerate(rows2):
                cab = cross[a][b]
                if cab == bot and ra != rb:
                    return True
                for c in range(base_n):
                    if not leq(ra[c], join[cab][rb[c]]) or not leq(rb[c], join[cab][ra[c]]):
                        return True
                if len(rows1) == 2 and not _triangle_ok(up, join, cab, m1, cross[1 - a][b]):
                    return True
                if len(rows2) == 2 and not _triangle_ok(up, join, cab, m2, cross[a][1 - b]):
                    return True
        return False

    report = SweepReport(0, [])
    for base, rows1, m1, rows2, m2, f1, f2 in _reference_instances(lat, max_base, max_new):
        report.instances += 1
        if faulty(rows1, m1, rows2, m2, base.n):
            report.failures.append(FailingInstance(base, f1(), f2()))
    return report


_SMALL_LATTICES = [m3(), n5()] + list(enumerate_lattices(5))


@pytest.mark.parametrize("lat, max_base", [(lat, 2) for lat in _SMALL_LATTICES] + [(n5(), 3)],
                         ids=lambda v: "-".join(v.elements) if hasattr(v, "elements") else None)
def test_two_point_extensions_are_exactly_the_valid_ones(lat, max_base):
    # every mutual distance of every row pair, kept iff the factor it gives
    # is a valid space
    for base in _base_spaces(lat, max_base):
        rows, exts = _extensions(lat, base, 2)
        brute = [((i1, i2), m)
                 for i1, i2 in itertools.combinations_with_replacement(range(len(rows)), 2)
                 for m in range(lat.n)
                 if validate_space(_materialize(base, rows, ((i1, i2), m), "x")).ok]
        assert [ext for ext in exts if ext[1] is not None] == brute


@pytest.mark.parametrize("max_base, max_new, lat", [
    (max_base, max_new, lat) for max_base, max_new in [(2, 2), (3, 1), (1, 2)]
    for lat in _SMALL_LATTICES
] + [(3, 2, n5()),  # the benchmark's size, on bases mixing clean and faulty extensions
      # N5 under a new bottom: its faults are broken base triangles alone, which
      # no lattice of up to 5 elements shows on up to 4 base points
      (3, 1, vertical_sum(chain_lattice(1), n5()))],
    ids=lambda v: "-".join(v.elements) if hasattr(v, "elements") else None)
def test_sweep_kernel_matches_the_per_instance_check(lat, max_base, max_new):
    report = SweepReport(0, [])
    failures = list(_sweep(lat, max_base, max_new, report=report))
    expected = _reference_sweep(lat, max_base, max_new)
    assert report.instances == expected.instances
    assert failures == expected.failures


@pytest.mark.parametrize("lat, max_base, max_new", [
    (lat, max_base, max_new) for lat in _SMALL_LATTICES for max_base, max_new in [(2, 1), (1, 2)]
] + [(m3(), 3, 2), (n5(), 3, 2)],
    ids=lambda v: "-".join(v.elements) if hasattr(v, "elements") else None)
def test_probe_returns_the_first_instance_without_completion(lat, max_base, max_new):
    expected = next(((base, f1(), f2()) for base, _, _, _, _, f1, f2
                     in _reference_instances(lat, max_base, max_new)
                     if not _has_pseudo_completion(lat, base, f1(), f2())), None)
    found = amalgamation_failure_probe(lat, max_base, max_new)
    assert (found and (found.base, found.f1, found.f2)) == expected
