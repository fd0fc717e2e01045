"""The library's validation gates, fed small random lattices, spaces and
orders: each returns a report or raises a coded ``PermlatError``, and what
passes them, the checks read without an uncoded error."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from permlat.errors import PermlatError
from permlat.generic import extension_property_check, homogeneity_check
from permlat.lattice import (FiniteLattice, FinitePoset, boolean2, chain_lattice, m3, n5,
                             require_distributive, require_lattice, validate_lattice)
from permlat.spaces import LambdaSpace, class_reps, validate_space
from permlat.sqorders import (OrderedLambdaStructure, SubquotientOrder, _require_valid,
                              validate_sqorder)
from permlat.validation import ValidationReport

_STOCK = [lambda: chain_lattice(2, ["0", "1"]), lambda: chain_lattice(3, ["0", "E", "1"]),
          boolean2, m3, n5]


@st.composite
def lattices(draw):
    """A stock lattice, distributive or not, or the tables ``from_poset``
    reads off a random relation on 1-4 elements, which need be neither
    reflexive nor transitive nor antisymmetric."""
    pick = draw(st.integers(0, len(_STOCK)))
    if pick < len(_STOCK):
        return _STOCK[pick]()
    n = draw(st.integers(1, 4))
    up = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return FiniteLattice.from_poset(FinitePoset(tuple(f"e{i}" for i in range(n)), up))


@st.composite
def structures(draw):
    """A lattice, a space of 0-4 points over it and 0-2 orders on the space.
    Distances are mostly non-bottom elements, now and then an index one or
    two past either end of the lattice, a bottom off the diagonal or a
    non-bottom on it; the matrix is symmetric or not. An order's levels
    are lattice elements or a name that is none, and its rank keys are the
    bottom classes' representatives (where the space's distances are
    indices) or any points and a name that is none, ranked by small
    integers, duplicates included, or now and then by a non-integer."""
    lat = draw(lattices())
    n = draw(st.integers(0, 4))
    points = tuple(f"p{i}" for i in range(n))
    wild = st.integers(-2, lat.n + 1)
    cell = st.one_of(st.sampled_from(lat.nonzero_idx() or [lat.bottom_idx]), wild)
    symmetric = draw(st.booleans())
    dist = [[draw(st.one_of(st.just(lat.bottom_idx), wild)) if i == j else draw(cell)
             for j in range(n)] for i in range(n)]
    if symmetric:
        dist = [[dist[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    space = LambdaSpace(lat, points, dist)
    in_range = all(0 <= d < lat.n for d in itertools.chain(*dist))
    levels = st.sampled_from(lat.elements + ("nowhere",))
    orders = []
    for _ in range(draw(st.integers(0, 2))):
        bottom, top = draw(levels), draw(levels)
        if in_range and bottom in lat.index and draw(st.booleans()):
            keys = sorted({points[r] for r in class_reps(space, lat.index[bottom])})
        else:
            keys = draw(st.lists(st.sampled_from(points + ("ghost",)), unique=True))
        rank = st.one_of(st.integers(-1, 3), st.sampled_from(["x", 1.5]))
        orders.append(SubquotientOrder(space, bottom, top, {c: draw(rank) for c in keys}))
    return OrderedLambdaStructure(space, tuple(orders))


_REFUSED = object()


def _gate(call, *args):
    # the gate's value, or _REFUSED when it raised a coded error; any other
    # exception fails the test
    try:
        return call(*args)
    except PermlatError:
        return _REFUSED


@settings(max_examples=300, deadline=None, derandomize=True)
@given(structures())
def test_fuzzed_inputs_pass_or_fail_the_gates_with_a_code(s):
    lat = s.space.lattice
    reports = [_gate(validate_lattice, lat), _gate(validate_space, s.space), _gate(s.validate)]
    reports += [_gate(validate_sqorder, o) for o in s.orders]
    assert all(r is _REFUSED or isinstance(r, ValidationReport) for r in reports)
    assert _gate(require_lattice, lat, "fuzz") in (lat, _REFUSED)
    distributive = _gate(require_distributive, lat, "fuzz") is not _REFUSED
    valid = _gate(_require_valid, s, "fuzz") is not _REFUSED
    # what passes the gates is what the checks read: a valid structure on
    # a distributive lattice gives each check's report
    if distributive and valid:
        assert extension_property_check(s, 2).pair_total >= 0
        assert homogeneity_check(s, 2).pairs_checked >= 0
