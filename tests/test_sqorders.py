import itertools
import random

import pytest

from permlat.errors import (InvalidStructureError, NotConvexError, TopBottomMismatchError,
                            UndefinedRestrictionError)
from permlat.generic import GenerationConfig, extension_property_check, generate_generic
from permlat.sqorders import (OrderedLambdaStructure, SubquotientOrder, compose_lex,
                              convexity_check, generic_filler, restrict_to,
                              split_convex_linear, validate_sqorder)
from space_helpers import space_from_distances


def linear_order(space, ranks):
    lat = space.lattice
    return SubquotientOrder.from_ranks(space, lat.bottom, lat.top, ranks)


@pytest.fixture
def block_space(chain3):
    # 8 points in 4 E-blocks of 2
    dd = {}
    block = {i: i // 2 for i in range(8)}
    for i, j in itertools.combinations(range(8), 2):
        dd[(f"q{i}", f"q{j}")] = "E" if block[i] == block[j] else "1"
    return space_from_distances(chain3, [f"q{i}" for i in range(8)], dd)


@pytest.fixture
def b2_grid_space(b2):
    # 8 points: four a-classes of two, paired crosswise into four b-classes
    acls = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
    bcls = {0: 0, 2: 0, 1: 1, 3: 1, 4: 2, 6: 2, 5: 3, 7: 3}
    dd = {}
    for i, j in itertools.combinations(range(8), 2):
        if acls[i] == acls[j]:
            dd[(f"p{i}", f"p{j}")] = "a"
        elif bcls[i] == bcls[j]:
            dd[(f"p{i}", f"p{j}")] = "b"
        else:
            dd[(f"p{i}", f"p{j}")] = "1"
    return space_from_distances(b2, [f"p{i}" for i in range(8)], dd)


def test_linear_order_is_a_valid_subquotient_order(block_space):
    o = linear_order(block_space, {p: i for i, p in enumerate(block_space.points)})
    assert validate_sqorder(o).ok


def test_duplicate_ranks_within_scale_invalid(block_space):
    o = SubquotientOrder(block_space, "0", "1",
                         {p: 0 for p in block_space.points})
    report = validate_sqorder(o)
    assert any(v.rule == "strict-total" for v in report.violations)


def test_non_integer_ranks_are_refused_before_a_check_reads_them(block_space):
    # a string rank passed validation, and extension_property_check then
    # raised an uncoded TypeError comparing it with the integer ranks
    o = SubquotientOrder(block_space, "E", "1", {"q0": "x", "q2": 0, "q4": 1.5, "q6": 2})
    report = validate_sqorder(o)
    assert [(v.rule, v.witness) for v in report.violations] == [("rank-values", ("q0", "q4"))]
    with pytest.raises(InvalidStructureError, match="rank-values"):
        extension_property_check(OrderedLambdaStructure(block_space, (o,)), 2)


def test_generated_order_is_valid(block_space):
    rng = random.Random(3)
    o = generic_filler(block_space, "E", "1", rng)
    assert validate_sqorder(o).ok


# -- restriction -------------------------------------------------------------


def test_restrict_convex_linear_order_within_blocks(block_space):
    # blocks contiguous: ranks 0..7 follow the block layout
    o = linear_order(block_space, {f"q{i}": i for i in range(8)})
    assert convexity_check(o, "E")
    r = restrict_to(o, "E")
    assert r.mode == "top-lowering"
    assert (r.order.bottom, r.order.top) == ("0", "E")
    for x, y in itertools.permutations(block_space.points, 2):
        expect = block_space.d(x, y) == "E" and o.less(x, y)
        assert r.order.less(x, y) == expect


def test_restrict_to_own_top_is_identity(block_space):
    o = linear_order(block_space, {f"q{i}": i for i in range(8)})
    assert restrict_to(o, "1").order == o


def test_cross_restriction_over_b2(b2_grid_space):
    # order from a to 1 restricted to b: the F^G case, yielding 0 -> b
    rng = random.Random(5)
    o = generic_filler(b2_grid_space, "a", "1", rng)
    r = restrict_to(o, "b")
    assert r.mode == "cross"
    assert (r.order.bottom, r.order.top) == ("0", "b")
    assert validate_sqorder(r.order).ok
    for x, y in itertools.permutations(b2_grid_space.points, 2):
        expect = b2_grid_space.d(x, y) == "b" and o.less(x, y)
        assert r.order.less(x, y) == expect


def test_restriction_never_adds_comparabilities(b2_grid_space):
    rng = random.Random(11)
    o = generic_filler(b2_grid_space, "a", "1", rng)
    r = restrict_to(o, "b")
    for x, y in itertools.permutations(b2_grid_space.points, 2):
        if r.order.less(x, y):
            assert o.less(x, y)


def test_restriction_undefined_above_top(b2_grid_space):
    rng = random.Random(2)
    o = generic_filler(b2_grid_space, "0", "b", rng)
    with pytest.raises(UndefinedRestrictionError):
        restrict_to(o, "a")  # a is incomparable to the top b


# -- composition -------------------------------------------------------------


def test_compose_requires_matching_levels(block_space):
    rng = random.Random(1)
    lo = generic_filler(block_space, "0", "E", rng)
    with pytest.raises(TopBottomMismatchError):
        compose_lex(lo, lo)


def test_decreasing_sequence_of_increasing_sequences(chain3):
    # 4 points, two blocks; within ascending, blocks reversed
    dd = {("x0", "x1"): "E", ("x2", "x3"): "E",
          ("x0", "x2"): "1", ("x0", "x3"): "1", ("x1", "x2"): "1", ("x1", "x3"): "1"}
    space = space_from_distances(chain3, ["x0", "x1", "x2", "x3"], dd)
    lo = SubquotientOrder.from_ranks(space, "0", "E",
                                     {"x0": 0, "x1": 1, "x2": 0, "x3": 1})
    hi = SubquotientOrder.from_ranks(space, "E", "1", {"x0": 1, "x2": 0})
    o = compose_lex(lo, hi)
    ranks = {p: o.rank[p] for p in space.points}
    assert ranks == {"x2": 0, "x3": 1, "x0": 2, "x1": 3}


def test_compose_is_associative_on_three_levels(chain4):
    ecls = {i: i // 2 for i in range(8)}
    fcls = {i: i // 4 for i in range(8)}
    dd = {}
    for i, j in itertools.combinations(range(8), 2):
        if ecls[i] == ecls[j]:
            dd[(f"q{i}", f"q{j}")] = "e"
        elif fcls[i] == fcls[j]:
            dd[(f"q{i}", f"q{j}")] = "f"
        else:
            dd[(f"q{i}", f"q{j}")] = "1"
    space = space_from_distances(chain4, [f"q{i}" for i in range(8)], dd)
    rng = random.Random(9)
    o1 = generic_filler(space, "0", "e", rng)
    o2 = generic_filler(space, "e", "f", rng)
    o3 = generic_filler(space, "f", "1", rng)
    assert compose_lex(compose_lex(o1, o2), o3) == compose_lex(o1, compose_lex(o2, o3))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_stack_composes_as_both_pairwise_folds(chain4, seed):
    cfg = GenerationConfig(seed=seed, target_size=20, saturation_depth=2)
    s = generate_generic(chain4, [("0", "e"), ("e", "f"), ("f", "1")], cfg,
                         with_saturation_report=False).structure
    a, b, c = s.orders
    stacked = compose_lex(a, b, c)
    assert stacked == compose_lex(compose_lex(a, b), c) == compose_lex(a, compose_lex(b, c))
    assert stacked.rank == compose_lex(compose_lex(a, b), c).rank
    for o in (a, b, c, stacked, compose_lex(b.reverse(), c), a.reverse()):
        assert o.point_ranks == tuple(o.rank[o.space.points[o.bottom_reps[i]]]
                                      for i in range(o.space.n))
    # the stack is checked joint by joint: here the second, f against e
    with pytest.raises(TopBottomMismatchError, match="got f vs e"):
        compose_lex(a, b, b)


def test_compose_output_is_lo_top_convex(block_space):
    rng = random.Random(4)
    lo = generic_filler(block_space, "0", "E", rng)
    hi = generic_filler(block_space, "E", "1", rng)
    o = compose_lex(lo, hi)
    assert convexity_check(o, "E")


def test_pullback_is_strict_partial_order(b2_grid_space):
    rng = random.Random(6)
    o = generic_filler(b2_grid_space, "a", "1", rng)
    pts = b2_grid_space.points
    for x in pts:
        assert not o.less(x, x)
    for x, y in itertools.permutations(pts, 2):
        assert not (o.less(x, y) and o.less(y, x))
        for z in pts:
            if o.less(x, y) and o.less(y, z):
                assert o.less(x, z)


# -- convexity and splitting -------------------------------------------------


def test_convexity_at_bottom_is_trivial(block_space):
    o = linear_order(block_space, {f"q{i}": i for i in range(8)})
    assert convexity_check(o, "0")


def test_interleaving_blocks_detected(chain3):
    dd = {("x0", "x2"): "E", ("x0", "x1"): "1", ("x1", "x2"): "1"}
    space = space_from_distances(chain3, ["x0", "x1", "x2"], dd)
    o = linear_order(space, {"x0": 0, "x1": 1, "x2": 2})
    result = convexity_check(o, "E")
    assert not result
    assert result.witness == ("x0", "x1", "x2")


def test_split_two_blocks_of_two(block_space):
    o = linear_order(block_space, {f"q{i}": i for i in range(8)})
    within, between = split_convex_linear(o, "E")
    assert (within.bottom, within.top) == ("0", "E")
    assert (between.bottom, between.top) == ("E", "1")
    assert compose_lex(within, between) == o


def test_split_then_compose_is_identity_on_random_convex_orders(block_space):
    rng = random.Random(13)
    for _ in range(100):
        lo = generic_filler(block_space, "0", "E", rng)
        hi = generic_filler(block_space, "E", "1", rng)
        o = compose_lex(lo, hi)
        within, between = split_convex_linear(o, "E")
        assert compose_lex(within, between) == o


def test_split_non_convex_raises_with_witness(chain3):
    dd = {("x0", "x2"): "E", ("x0", "x1"): "1", ("x1", "x2"): "1"}
    space = space_from_distances(chain3, ["x0", "x1", "x2"], dd)
    o = linear_order(space, {"x0": 0, "x1": 1, "x2": 2})
    with pytest.raises(NotConvexError) as err:
        split_convex_linear(o, "E")
    assert err.value.details["witness"] == ("x0", "x1", "x2")


def test_structure_validation_combines_reports(block_space):
    rng = random.Random(8)
    good = generic_filler(block_space, "0", "E", rng)
    s = OrderedLambdaStructure(block_space, (good,))
    assert s.validate().ok
    bad = SubquotientOrder(block_space, "0", "1", {p: 0 for p in block_space.points})
    s2 = OrderedLambdaStructure(block_space, (bad,))
    assert not s2.validate().ok
