"""Subquotient orders: partial orders on bottom-relation classes that are
total exactly inside each top-relation class.

Ranks are dense integers per top-class scale, as every construction leaves
them, so comparisons are O(1) and equality of orders is equality of rank
maps. Class representatives are the first member in point order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (InvalidStructureError, NotConvexError, TopBottomMismatchError,
                     UndefinedRestrictionError)
from .spaces import LambdaSpace, class_reps, validate_space
from .validation import ValidationReport


def _ranks(space: LambdaSpace, bottom_reps: tuple[int, ...], top_reps: tuple[int, ...],
           key=None) -> dict[str, int]:
    """Dense rank of each bottom class inside its top class, ordered by
    ``key`` on the representative's point index (point order when None);
    ties keep point order. Scales come top class by top class in point
    order, each in rank order, so rank 0 opens every scale."""
    scales: dict[int, list[int]] = {}
    for i in range(space.n):
        if bottom_reps[i] == i:
            scales.setdefault(top_reps[i], []).append(i)
    return {space.points[i]: pos for scale in scales.values()
            for pos, i in enumerate(sorted(scale, key=key))}


class SubquotientOrder:
    def __init__(self, space: LambdaSpace, bottom: str, top: str, rank: dict[str, int]):
        self.space = space
        self.bottom = bottom
        self.top = top
        self.rank = dict(rank)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_ranks(cls, space: LambdaSpace, bottom: str, top: str,
                   rank: dict[str, int]) -> "SubquotientOrder":
        o = cls(space, bottom, top, rank)
        return o.renormalized()

    def renormalized(self) -> "SubquotientOrder":
        rank = _ranks(self.space, self.bottom_reps, self.top_reps,
                      key=self.point_ranks.__getitem__)
        return SubquotientOrder(self.space, self.bottom, self.top, rank)

    # -- structure ------------------------------------------------------

    @cached_property
    def bottom_reps(self) -> tuple[int, ...]:
        return class_reps(self.space, self.space.lattice.index[self.bottom])

    @cached_property
    def top_reps(self) -> tuple[int, ...]:
        return class_reps(self.space, self.space.lattice.index[self.top])

    @cached_property
    def point_ranks(self) -> tuple:
        """The rank of each point's bottom class, indexed by point. Cached:
        ``rank`` must not change once this is read."""
        rank, points = self.rank, self.space.points
        return tuple(rank[points[r]] for r in self.bottom_reps)

    def _scales(self) -> list[list[str]]:
        """Bottom-class representatives grouped by top class, in point order."""
        scales: list[list[str]] = []
        for c, pos in _ranks(self.space, self.bottom_reps, self.top_reps).items():
            if pos == 0:
                scales.append([])
            scales[-1].append(c)
        return scales

    def comparable(self, x: str, y: str) -> bool:
        i, j = self.space.pindex[x], self.space.pindex[y]
        lat = self.space.lattice
        d = self.space.dist[i][j]
        return lat.leq_idx(d, lat.index[self.top]) and not lat.leq_idx(d, lat.index[self.bottom])

    def less(self, x: str, y: str) -> bool:
        """Point-level pullback: class(x) strictly below class(y)."""
        i, j = self.space.pindex[x], self.space.pindex[y]
        return self.comparable(x, y) and self.point_ranks[i] < self.point_ranks[j]

    def reverse(self) -> "SubquotientOrder":
        return SubquotientOrder(self.space, self.bottom, self.top,
                                {c: -r for c, r in self.rank.items()}).renormalized()

    def __eq__(self, other):
        return (isinstance(other, SubquotientOrder)
                and self.space == other.space
                and self.bottom == other.bottom and self.top == other.top
                and self.renormalized().rank == other.renormalized().rank)

    def __hash__(self):
        return hash((self.space, self.bottom, self.top,
                     tuple(sorted(self.renormalized().rank.items()))))

    def __repr__(self):
        return f"SubquotientOrder({self.bottom}->{self.top}, rank={self.rank!r})"


def validate_sqorder(o: SubquotientOrder) -> ValidationReport:
    """Both defining invariants. Comparability exactly inside a common
    top-class holds by construction, since ranks only compare classes of one
    top class; the ranks must cover exactly the bottom-class representatives
    and be strictly total within each top-class."""
    report = ValidationReport(subject="subquotient-order")
    lat = o.space.lattice
    if o.bottom not in lat.index or o.top not in lat.index:
        report.add("levels", (o.bottom, o.top), "bottom/top must be lattice elements")
        return report
    if not lat.leq(o.bottom, o.top):
        report.add("levels", (o.bottom, o.top), "bottom must lie below top")
        return report
    scales = o._scales()
    all_reps = {c for scale in scales for c in scale}
    if set(o.rank) != all_reps:
        missing = sorted(all_reps - set(o.rank))
        extra = sorted(set(o.rank) - all_reps)
        report.add("rank-keys", (tuple(missing), tuple(extra)),
                   "rank map must cover exactly the bottom-class representatives")
        return report
    for scale in scales:
        ranks = [o.rank[c] for c in scale]
        if len(set(ranks)) != len(ranks):
            dup = sorted(c for c in scale if ranks.count(o.rank[c]) > 1)
            report.add("strict-total", tuple(dup), "duplicate ranks inside one top class")
    return report


@dataclass
class OrderedLambdaStructure:
    """A space with its subquotient orders; the catalog object."""

    space: LambdaSpace
    orders: tuple[SubquotientOrder, ...]

    def validate(self) -> ValidationReport:
        report = validate_space(self.space)
        report.subject = "ordered-structure"
        for i, o in enumerate(self.orders):
            sub = validate_sqorder(o)
            for v in sub.violations:
                report.add(f"order[{i}].{v.rule}", v.witness, v.message)
            if o.space is not self.space and o.space != self.space:
                report.add(f"order[{i}].space", (), "order bound to a different space")
        return report

    def signature(self) -> tuple[tuple[str, str], ...]:
        return tuple((o.bottom, o.top) for o in self.orders)


def _require_valid(s: OrderedLambdaStructure, where: str) -> None:
    """Raise InvalidStructureError, naming ``where`` and the first violated
    rule with its witness, unless the structure validates."""
    report = s.validate()
    if not report.ok:
        v = report.violations[0]
        raise InvalidStructureError(f"{where}: {v.rule} {v.witness} ({v.message})",
                                    report=report.as_dict())


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class Restriction:
    order: SubquotientOrder
    mode: str  # "top-lowering" (bottom <= g <= top) or "cross" (the F^G case)


def restrict_to(o: SubquotientOrder, g: str) -> Restriction:
    """Restrict comparabilities to pairs inside a common g-class.

    The result runs from bottom^g to g. Both spec cases are this one
    operation; the mode records which was taken. Undefined when g is not
    below the top (there is then no induced total order inside g-classes).
    """
    lat = o.space.lattice
    if g not in lat.index:
        raise UndefinedRestrictionError(f"{g} is not a lattice element")
    if not lat.leq(g, o.top):
        raise UndefinedRestrictionError(
            f"restriction to {g} undefined: {g} does not lie below top {o.top}")
    new_bottom = lat.meet(o.bottom, g)
    mode = "top-lowering" if lat.leq(o.bottom, g) else "cross"
    space = o.space
    # a new class ranks as the original bottom class containing it
    rank = _ranks(space, class_reps(space, lat.index[new_bottom]), class_reps(space, lat.index[g]),
                  key=o.point_ranks.__getitem__)
    return Restriction(SubquotientOrder(space, new_bottom, g, rank), mode)


def compose_lex(*orders: SubquotientOrder) -> SubquotientOrder:
    """Lexicographic composition of a stack of orders, each one's top the
    next one's bottom: compare by the highest order, then down the stack to
    the lowest inside the classes of its top. The output is convex at every
    joint; on valid orders it equals the pairwise folds, in either grouping."""
    for lo, hi in zip(orders, orders[1:]):
        if lo.top != hi.bottom:
            raise TopBottomMismatchError(
                f"compose_lex needs lo.top == hi.bottom, got {lo.top} vs {hi.bottom}")
        if lo.space != hi.space:
            raise ValueError("orders must live on one space")
    first, last = orders[0], orders[-1]
    space = first.space
    rows = list(zip(*(o.point_ranks for o in reversed(orders))))   # highest order first
    rank = _ranks(space, first.bottom_reps, class_reps(space, space.lattice.index[last.top]),
                  key=rows.__getitem__)
    return SubquotientOrder(space, first.bottom, last.top, rank)


@dataclass(frozen=True)
class ConvexityResult:
    convex: bool
    witness: tuple[str, str, str] | None = None  # interleaving class triple

    def __bool__(self):
        return self.convex


def convexity_check(o: SubquotientOrder, g: str) -> ConvexityResult:
    """Whether every g-class projects to a rank-convex block of bottom-classes.

    The witness is the lexicographically first interleaving triple (by rank
    positions inside the first offending scale).
    """
    lat = o.space.lattice
    if not lat.leq(o.bottom, g):
        raise ValueError(f"convexity needs bottom {o.bottom} below {g}")
    g_reps = class_reps(o.space, lat.index[g])
    g_of = {}
    for i in range(o.space.n):
        g_of[o.space.points[o.bottom_reps[i]]] = g_reps[i]
    for scale in o._scales():
        ordered = sorted(scale, key=lambda c: o.rank[c])
        k = len(ordered)
        for p1 in range(k):
            for p2 in range(p1 + 1, k):
                if g_of[ordered[p2]] == g_of[ordered[p1]]:
                    continue
                for p3 in range(p2 + 1, k):
                    if g_of[ordered[p3]] == g_of[ordered[p1]]:
                        return ConvexityResult(False, (ordered[p1], ordered[p2], ordered[p3]))
    return ConvexityResult(True)


def split_convex_linear(o: SubquotientOrder, e: str) -> tuple[SubquotientOrder, SubquotientOrder]:
    """Split at an e-convex level into (within, between); compose_lex of the
    two parts gives back the original order."""
    lat = o.space.lattice
    if not (lat.leq(o.bottom, e) and lat.leq(e, o.top)):
        raise UndefinedRestrictionError(f"split level {e} not between {o.bottom} and {o.top}")
    conv = convexity_check(o, e)
    if not conv:
        raise NotConvexError(f"order is not {e}-convex", witness=conv.witness)
    within = restrict_to(o, e).order
    space = o.space
    # convexity makes the e-classes disjoint rank intervals of a scale, so
    # the rank of any member class (here the representative's) orders them
    rank = _ranks(space, class_reps(space, lat.index[e]), o.top_reps,
                  key=o.point_ranks.__getitem__)
    between = SubquotientOrder(space, e, o.top, rank)
    return within, between


def generic_filler(space: LambdaSpace, bottom: str, top: str, rng) -> SubquotientOrder:
    """Seeded uniformly-random subquotient order between the two levels."""
    lat = space.lattice
    if not lat.leq(bottom, top):
        raise ValueError(f"{bottom} not below {top}")
    rank: dict[str, int] = {}
    for scale in SubquotientOrder(space, bottom, top, {})._scales():
        perm = list(range(len(scale)))
        rng.shuffle(perm)
        rank.update(zip(scale, perm))
    return SubquotientOrder(space, bottom, top, rank)
