"""Finite approximations of the generic structures: one-point type
enumeration, amalgam-based extension, seeded generation, and the extension
property / homogeneity checks.

A 1-type over a finite base assigns a distance to each base point and, for
each order whose bottom class is fresh over the base while its top class is
already inhabited there, a gap position among the base's classes. Orders
whose bottoms are meet-irreducible make these the only free order data: a
point that shares a bottom class with a base point is position-pinned, and
the canonical (largest) distance completion can never push a fresh class
onto an existing one, because meet-irreducible elements are meet-prime in a
distributive lattice.

Saturation is judged at two levels. Each (subset, type) pair is tested for a
realizing point; the headline ratio aggregates over isomorphism classes of
(subset structure, type) patterns, the finite reading of "realizes all small
1-types". The per-pair data stays in the report: a finite totally ordered
structure always has unrealized pairs at its rank boundaries, so the raw
pair ratio can never reach 1.0 and is diagnostic only.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
import warnings
from collections import _count_elements
from dataclasses import dataclass
from operator import or_

from .errors import CollapsedCompletionError, MeetReducibleBottomError, SizeCapError
from .lattice import FiniteLattice, meet_irreducibles, require_distributive
from .spaces import LambdaSpace, _meet_of_joins, _triangle_rows
from .sqorders import OrderedLambdaStructure, SubquotientOrder, _require_valid

Gap = int | None
MAX_DEPTH = 7   # the k! labellings of a form cost 29 MB at k = 8


@dataclass(frozen=True)
class OnePointType:
    """Complete quantifier-free description of one new point over a base."""

    over: tuple[str, ...]
    distances: tuple[int, ...]            # lattice element index per base point
    order_constraints: tuple[Gap, ...]    # gap among base classes, or None


@dataclass(frozen=True)
class GenerationConfig:
    seed: int
    target_size: int
    saturation_depth: int = 3

    def __post_init__(self):
        if self.target_size < 1:
            raise ValueError("target_size must be >= 1")
        if self.saturation_depth < 1:
            raise ValueError("saturation_depth must be >= 1")


# ---------------------------------------------------------------------------
# type machinery


def _index_of(s: OrderedLambdaStructure, names) -> list[int]:
    return [s.space.pindex[a] for a in names]


def enumerate_one_point_types(s: OrderedLambdaStructure, A) -> list[OnePointType]:
    """Every consistent 1-type over the base: triangle-closed distance
    assignments crossed with every consistent gap choice."""
    A = tuple(sorted(A, key=s.space.pindex.__getitem__))
    return [OnePointType(A, delta, gaps)
            for delta, gaps in _CheckContext(s).types(_index_of(s, A))]


# ---------------------------------------------------------------------------
# realization


@dataclass
class RealizeResult:
    structure: OrderedLambdaStructure
    added: str | None
    realized_by: str | None


def _require_generable(lat: FiniteLattice, signature) -> None:
    """Generation needs a distributive lattice and, per order, a
    meet-irreducible bottom below the top."""
    require_distributive(lat, "generation")
    mi = set(meet_irreducibles(lat).elements)
    for bottom, top in signature:
        if not lat.leq(bottom, top):
            raise ValueError(f"order bottom {bottom} does not lie below top {top}")
        if bottom not in mi:
            raise MeetReducibleBottomError(
                f"order bottom {bottom} is meet-reducible; amalgamation could "
                f"identify its classes", bottom=bottom, top=top)


def realize_type(s: OrderedLambdaStructure, t: OnePointType,
                 rng: random.Random | None = None) -> RealizeResult:
    """Extend by one fresh point satisfying the type; distances outside the
    base come from the canonical amalgam completion, unconstrained rank slots
    from the seeded stream. Idempotent when the type is already realized.
    The input must validate; its orders may have sparse ranks, as they are
    renormalized first."""
    _require_generable(s.space.lattice, s.signature())
    _require_valid(s, "realize_type")
    ctx = _CheckContext(OrderedLambdaStructure(s.space, tuple(o.renormalized() for o in s.orders)))
    idx_a = _index_of(s, t.over)
    want = (tuple(t.distances), tuple(t.order_constraints))
    if want not in ctx.types(idx_a):
        raise ValueError(f"inconsistent type over {t.over}")
    for z in range(ctx.n):
        if z not in idx_a and ctx.point_type(idx_a, z) == want:
            return RealizeResult(s, None, s.space.points[z])
    _append_point(ctx, idx_a, *want, rng or random.Random(0))
    return RealizeResult(ctx.structure(), ctx.points[-1], None)


def _append_point(ctx: _CheckContext, idx_a, delta, gaps, rng: random.Random) -> None:
    """Append to ctx a fresh point of the unrealized type (delta, gaps) over
    the base. Ranks are dense: the new point's top class is one scale ranked
    0..m-1, and a fresh class takes a slot in 0..m, the points ranked at or
    above it moving up by one."""
    lat, up, dist, points, n = ctx.lat, ctx.up, ctx.dist, ctx.points, ctx.n
    name = f"p{n}"
    while name in points:
        name = name + "'"
    # on the base itself this gives back delta, which is triangle-closed
    new_d = [_meet_of_joins(lat, delta, [dist[a][z] for a in idx_a]) for z in range(n)]
    if lat.bottom_idx in new_d:
        # cannot happen: the type is unrealized, and a bottom distance would
        # make that point realize it
        z = new_d.index(lat.bottom_idx)
        raise CollapsedCompletionError(
            f"canonical completion collapsed a fresh point onto {points[z]}", point=points[z])
    for (bot, top, reps, rank), gap, sc in zip(ctx.orders, gaps, ctx.scale_ranks(idx_a, delta)):
        # the new point's class is that of the first point within bot of it
        same = next((z for z, d in enumerate(new_d) if up[d] >> bot & 1), None)
        reps.append(n if same is None else reps[same])
        if same is not None:
            rank.append(rank[same])
            continue
        # fresh class, represented by the new point itself; slots run
        # strictly after the gap's left base class, at most at the right one
        inside = [up[d] >> top & 1 for d in new_d]
        m = sum(inside[c] for c in range(n) if reps[c] == c)
        if gap is None:
            slot = rng.randint(0, m)
        else:
            slot = rng.randint(sc[gap - 1] + 1 if gap > 0 else 0, sc[gap] if gap < len(sc) else m)
        rank[:] = [r + 1 if i and r >= slot else r for r, i in zip(rank, inside)]
        rank.append(slot)
    for row, d in zip(dist, new_d):
        row.append(d)
    dist.append(new_d + [lat.bottom_idx])
    points.append(name)
    ctx.n += 1
    ctx._code(n)


# ---------------------------------------------------------------------------
# seeded generation


def empty_structure(lat: FiniteLattice, signature) -> OrderedLambdaStructure:
    space = LambdaSpace(lat, (), ())
    orders = tuple(SubquotientOrder(space, b, t, {}) for b, t in signature)
    return OrderedLambdaStructure(space, orders)


@dataclass
class SaturationReport:
    pattern_total: int
    pattern_realized: int
    pair_total: int
    pair_realized: int
    missing_pairs: list
    missing_patterns: list

    @property
    def ratio(self) -> float:
        """Fraction of (subset-class, type) patterns realized somewhere."""
        return 1.0 if self.pattern_total == 0 else self.pattern_realized / self.pattern_total

    @property
    def pair_ratio(self) -> float:
        return 1.0 if self.pair_total == 0 else self.pair_realized / self.pair_total

    def as_dict(self):
        return {
            "ratio": self.ratio,
            "pattern_total": self.pattern_total,
            "pattern_realized": self.pattern_realized,
            "pair_ratio": self.pair_ratio,
            "pair_total": self.pair_total,
            "pair_realized": self.pair_realized,
            "missing_pairs_sample": self.missing_pairs[:20],
            "missing_patterns": self.missing_patterns[:20],
        }


@dataclass
class GenerationResult:
    structure: OrderedLambdaStructure
    saturation: SaturationReport | None
    steps: int


def generate_generic(lat: FiniteLattice, sq_signature, cfg: GenerationConfig,
                     with_saturation_report: bool = True) -> GenerationResult:
    """Grow a structure to target size by round-robin realization of
    unrealized 1-types over small subsets; pure function of the config.

    Scheduling is round-robin over subset size then lexicographic, one walk
    over the subsets per pass. While some pattern is still missing at the
    pass start, the seeded pick is steered to types whose whole isomorphism
    pattern is missing; once every pattern is covered it takes any
    per-subset unrealized type, so the budget goes to genuine saturation
    first and density second. Steering never comes back (see the flag).

    One subset index serves the whole run, the final report included. It
    holds the structure, grows it in place and builds it once, at the end.
    It is never rebuilt: appending a point changes no pair code among the
    old points (see ``_CheckContext``), so the forms, class types and row
    tables of old subsets stay valid, and the row tables are the record of
    what is realized (``ctx.realized``).
    A steered pass start runs a full ``sweep``, which enters every row, so
    ``ctx.realized`` is exact there; and while steered an appended point
    enters its rows over the subsets before it (``register``), so that later
    picks in the pass see it. Once steering ends neither runs, as nothing
    reads ``ctx.realized`` again. The visits walk ``sweep`` over the points
    of the pass start and look up the rows of the points appended since,
    filling missing entries.
    """
    signature = [tuple(pair) for pair in sq_signature]
    _require_generable(lat, signature)
    k = cfg.saturation_depth
    if k > MAX_DEPTH:
        raise SizeCapError(f"generation is capped at depth {MAX_DEPTH}, got {k}")
    if lat.n == 1 and cfg.target_size > 1:
        raise SizeCapError("generation over a one-element lattice is capped at 1 point: "
                           "two points would be at distance bottom")
    if len(set(signature)) < len(signature):
        warnings.warn("two subquotient orders share bottom and top; reversal "
                      "deduplication is not applied", stacklevel=2)
    rng = random.Random(cfg.seed)
    ctx = _CheckContext(empty_structure(lat, signature))
    # Steering, once ended, never comes back, so the flag only goes from True
    # to False. Say a steered pass start finds every pattern of the classes
    # met realized. A new point z makes a new class of at most k points only
    # as B | {z}, B an old subset of at most k - 1 points. z's type over B is
    # consistent, so its pattern is one of B's class (met when B was swept),
    # and is realized by some old w over some old B'. So B | {z} is
    # isomorphic to B' | {w}, an old subset whose class was met: no pattern
    # is added, and every later pass start would find them all realized too.
    steered = True
    while ctx.n < cfg.target_size:
        n = ctx.n
        if steered:
            for _ in ctx.sweep(k):
                pass
            # ctx.patterns counts the patterns of the classes met over these
            # points and ctx.realized is exact here, so a steered walk always
            # appends: the first subset of a form with a missing pattern
            # offers it, unless an earlier visit has appended
            steered = len(ctx.realized) < ctx.patterns
        for A, form, _, distinct in ctx.sweep(k):
            if ctx.n >= cfg.target_size:
                break
            exact = {form.rows[row] for row in distinct}
            for z in range(n, ctx.n):
                row = ctx.row(A, z)
                exact.add(form.rows.get(row) or ctx._row_type(form, A, row, z))
            cand = [t for t, u in form.types.items()
                    if u not in exact and not (steered and u.pattern in ctx.realized)]
            if cand:
                _append_point(ctx, A, *cand[rng.randrange(len(cand))], rng)
                if steered:
                    # enter the new point's rows, so later steered picks in
                    # this pass do not chase patterns it already covers
                    ctx.register(ctx.n - 1, k)
        if ctx.n == n:
            # every type over every subset realized: append over the empty
            # base, at distance top from every point, drawing no rank. Only
            # order-free signatures get here. Given an order o and a point a
            # whose bottom class ranks last in its scale, no point realizes the
            # type over {a} at distance top_o ranked above a (gap 1). So a
            # plain walk always appends, and a steered one does too (above):
            # steering has ended here, and nothing needs the point registered
            _append_point(ctx, (), (), (None,) * len(ctx.orders), rng)
    saturation = None
    if with_saturation_report:
        saturation = _extension_report(ctx, k)
    # generation starts empty and each append adds one point
    return GenerationResult(ctx.structure(), saturation, ctx.n)


# ---------------------------------------------------------------------------
# classes, forms and patterns


def _apply_perm_type(delta: tuple[int, ...], gaps: tuple[Gap, ...], perm) -> tuple:
    return (tuple(delta[perm[u]] for u in range(len(delta))), gaps)


@functools.cache
def _labellings(k: int) -> list:
    """Each permutation of a k-subset with the positions, in a row-major
    flattened k x k matrix, of the off-diagonal cells it reads in order."""
    return [(perm, [perm[u] * k + perm[v] for u in range(k) for v in range(k) if u != v])
            for perm in itertools.permutations(range(k))]


class _Class:
    """One isomorphism class of bases: its canonical matrix, automorphisms
    in lexicographic order, and consistent types (``_canonical`` finds all three).
    A base's consistent types depend only on its pair codes, so they are a
    function of the class: ``types`` maps each, in class coordinates, to its
    ``_Type``, and is enumerated once, over the first base met. ``rows`` maps
    a point's packed row over a base listed in class order to its ``_Type``,
    one table for all the class's forms (see ``_row_type``)."""

    __slots__ = ("matrix", "autos", "types", "rows")

    def __init__(self, matrix, autos: list):
        self.matrix = matrix
        self.autos = autos
        self.types: dict = {}
        self.rows: dict = {}


class _Type:
    """A type over the bases of one class: ``local`` is (delta, gaps) in
    class coordinates and ``pattern`` the type standing for its isomorphism
    pattern (see ``_CheckContext._canonical``). A class holds one object per
    consistent type, so identity is equality."""

    __slots__ = ("local", "pattern")

    def __init__(self, local: tuple):
        self.local = local


class _Form:
    """A class seen through one canonical labelling, shared by every subset
    with the same matrix of raw pair codes: class position u is the subset's
    point perm[u]. ``rows`` maps a point's packed row over the subset to its
    class's ``_Type``, or None for a base point, and ``children`` maps it to
    the form of the subset with that point appended (see
    ``_CheckContext.sweep``). ``types``, built when first read, maps each
    consistent type, in subset coordinates and enumeration order (deltas,
    then each delta's gaps, lexicographically), to its ``_Type``."""

    __slots__ = ("cls", "perm", "rows", "children", "__dict__")

    def __init__(self, cls: _Class, perm):
        self.cls = cls
        self.perm = perm
        self.rows: dict = {}
        self.children: dict = {}

    @functools.cached_property
    def types(self) -> dict:
        inverse = sorted(range(len(self.perm)), key=self.perm.__getitem__)
        return dict(sorted((_apply_perm_type(*local, inverse), u)
                           for local, u in self.cls.types.items()))


# ---------------------------------------------------------------------------
# the subset index


class _CheckContext:
    """Integer subset index over one structure, held as lists that
    ``_append_point`` grows in place and ``structure`` builds into one:
    ``points``, the distance rows ``dist`` and, per order, ``(bot, top,
    reps, rank)``, the levels' lattice indices and, per point, its
    bottom-class representative and that class's dense rank. Its ``sweep``
    is the one walk over all small subsets: generation's visits, steered
    pass starts and report and both checks read it. Its per-class row
    tables, which each form's row table reads, are the one record of the
    types realized: ``realized`` holds the pattern of every entry, and an
    entry is made only from a point having its row. So ``realized`` is
    exact only once every row has been entered: at each steered pass start
    of generation, and after any ``sweep(k)`` that runs to its end, which
    is when the reports read it.

    It holds a table of pair codes (distance, then per order: same bottom
    class, other top class, below or above), coded once per point as that
    point's column by ``_code``, a prefix tree of forms, the one form index,
    which only the walks (``sweep`` and ``register``) read and grow, and one
    ``_Class`` per canonical matrix with its types (``types`` runs once per
    class) and rows (``point_type`` runs once per entry).

    Packed rows: a point's row over a subset (a_1, ..., a_k) is one integer
    holding its codes to a_1, ..., a_k in fields of ``width`` bits, a_1's
    highest. A base point's row holds its own -1 diagonal code, and a row
    shifted and ORed with -1, or a negative row shifted and ORed with a
    code, stays negative: base points are the negative rows. So a_i's row
    is all ones up to its field i and holds codes after it. No code is all
    ones (see ``width``), so for j > i, field i + 1 tells a_i's row from
    a_j's: a subset of k points has exactly k distinct negative rows.

    Append invariant: ``_append_point`` adds a row and a column to
    ``dist``, a representative and a rank per order, and the new point's
    column of codes, and keeps every code table entry, form and row table.
    That is sound because appending a point never changes a pair code among
    old points: old distances are fixed, a fresh class shifts the old
    classes above its slot together, keeping their order, and the new point
    comes last, so it never becomes an existing class's representative. So
    the grown state is the one a fresh index on the built structure holds,
    each old subset keeps its code matrix and form, each old point keeps its
    row over it, and a row table entry is a function of the form and the
    row, or of the class and the row in class order (see ``_fill``), so a
    realized pattern stays realized.
    """

    def __init__(self, s: OrderedLambdaStructure):
        lat = s.space.lattice
        self.lat = lat
        self.up = lat.poset.up
        m = len(s.orders)
        # wider than the widest pair code, (lat.n << 2m) - 1, so that no code
        # is all ones in its field and base points' rows stay distinct
        self.width = (lat.n << 2 * m).bit_length()
        self.patterns = 0                # patterns of the classes met
        self.realized: set = set()       # patterns of the row table entries
        self._to: list[list[int]] = []   # _to[j][i]: pair code of (i, j), -1 on the diagonal
        self._classes: dict = {}         # (size, canonical codes) -> _Class
        self.n = s.space.n
        self.points = list(s.space.points)
        self.dist = [list(row) for row in s.space.dist]
        self.orders = [(lat.index[o.bottom], lat.index[o.top], list(o.bottom_reps),
                        list(o.point_ranks)) for o in s.orders]
        for j in range(self.n):
            self._code(j)
        self.root = self._canonical(())   # the empty subset's form, the tree's root

    def _code(self, j: int) -> None:
        """Add the codes of the pairs of point j with the points before it,
        as one column: per order one pass over j's distance row gives the
        codes of (i, j), i < j, and those of (j, i) swap each order field's
        1 and 2. The swap is exact on a valid structure: a field is 1 or 2
        only when i and j share a top class but not a bottom class, whose
        ranks then differ. Every reader of codes works on a valid one:
        generation builds one, and both checks and ``realize_type`` refuse
        any other. ``enumerate_one_point_types`` does not validate, but
        ``types`` reads no codes."""
        up = self.up
        codes = self.dist[j][:j]
        ups = [up[d] for d in codes]
        for bot, top, _, rank in self.orders:
            r = rank[j]
            codes = [c << 2 | (0 if u >> bot & 1 else 3 if not u >> top & 1 else 1 if q < r else 2)
                     for c, u, q in zip(codes, ups, rank)]
        low = (1 << 2 * len(self.orders)) // 3   # bit 0 of each order field
        for col, c in zip(self._to, codes):
            col.append(c ^ ((c ^ c >> 1) & low) * 3)
        self._to.append(codes + [-1])

    def structure(self) -> OrderedLambdaStructure:
        """The structure the index holds, built anew: its space and orders
        are immutable, so later appends do not reach them."""
        space = LambdaSpace(self.lat, self.points, self.dist)
        names = self.lat.elements
        return OrderedLambdaStructure(space, tuple(
            SubquotientOrder(space, names[bot], names[top],
                             {self.points[c]: rank[c] for c, r in enumerate(reps) if r == c})
            for bot, top, reps, rank in self.orders))

    def _decode(self, code: int) -> tuple:
        """The pair code as (distance, per-order codes); integer order on
        codes is lexicographic order on these tuples."""
        m = len(self.orders)
        return (code >> 2 * m, tuple((code >> 2 * (m - 1 - t)) & 3 for t in range(m)))

    def _canonical(self, idx_a: tuple) -> _Form:
        """A new node's form: the lexicographically least code matrix over
        the subset's labellings and the first labelling reaching it.

        A new class takes its automorphisms from the same scan: q reaches
        the least matrix exactly when q = perm * a for an automorphism a of
        it, so a = perm^-1 * q. A type's pattern is the class's type of the
        least image of its ``local`` under them: an automorphism keeps the
        base's codes, so that image is consistent, one of the class's types."""
        to = self._to
        facts = tuple([to[b][a] for a in idx_a for b in idx_a])
        k = len(idx_a)
        scanned = [(tuple(map(facts.__getitem__, cells)), perm)
                   for perm, cells in _labellings(k)]
        # perms come in lexicographic order, so ties go to the first one
        best, perm = min(scanned)
        cls = self._classes.get((k, best))
        if cls is None:
            codes = iter(best)
            matrix = tuple(tuple((0,) if u == v else self._decode(next(codes))
                                 for v in range(k)) for u in range(k))
            inverse = sorted(range(k), key=perm.__getitem__)
            autos = sorted(tuple([inverse[q[u]] for u in range(k)])
                           for key, q in scanned if key == best)
            cls = self._classes[(k, best)] = _Class(matrix, autos)
            for t in self.types(idx_a):
                local = _apply_perm_type(*t, perm)
                cls.types[local] = _Type(local)
            for local, u in cls.types.items():
                u.pattern = cls.types[min(_apply_perm_type(*local, a) for a in autos)]
                self.patterns += u.pattern is u
        return _Form(cls, perm)

    def row(self, idx_a: tuple, z: int) -> int:
        """The packed row of the point z over the subset."""
        to = self._to
        row = 0
        for a in idx_a:
            row = row << self.width | to[a][z]
        return row

    def _row_type(self, form: _Form, idx_a: tuple, row: int, z: int) -> _Type:
        """Fill the form's table entry for a row from a point z having it:
        the class's entry for z's row over the subset listed in class order,
        made on a miss from z's type, whose pattern enters ``realized``. In
        a valid structure, the only kind generation builds and the checks
        accept, that type is one of the class's."""
        cls = form.cls
        key = self.row([idx_a[u] for u in form.perm], z)
        entry = cls.rows.get(key)
        if entry is None:
            entry = cls.rows[key] = cls.types[_apply_perm_type(*self.point_type(idx_a, z), form.perm)]
            self.realized.add(entry.pattern)
        form.rows[row] = entry
        return entry

    def _fill(self, form: _Form, idx_a: tuple, rows: list[int]) -> frozenset:
        """Enter every row over the subset in the form's table, the
        subset's own (negative) rows as None and each other row as the
        ``_Type`` of the first point having it; return the subset's row set,
        a frozenset, so that ``homogeneity_check`` can key by it.

        A point's type over the base is a function of its row of pair codes
        to it, given the subset's own codes: the row fixes the distances, the
        pinned orders and the base points ranked below it, and with strict
        ranks inside each scale (a valid order) that fixes every gap. The
        subset's own codes are its form's, and so are its own rows (each
        holds the codes from one base point to the base points after it).
        Listed in class order, they are the class's, so ``point_type`` runs
        once per class and row in class order (see ``_row_type``), and every
        other point, subset and form of the class reads a table."""
        distinct = frozenset(rows)
        table = form.rows
        if not table.keys() >= distinct:
            for z, row in enumerate(rows):
                if row not in table:
                    table[row] = None if row < 0 else self._row_type(form, idx_a, row, z)
        return distinct

    def sweep(self, k: int):
        """Yield ``(subset, form, rows, distinct)`` for every subset of at
        most k points, by size and then lexicographically: every point's
        packed row over the subset, their frozenset (the subset's row set),
        and the form's row table filled for each (see ``_fill``), so
        ``realized`` then covers them. The points are those held at the
        call: points appended while the walk is suspended are not in its
        rows.

        Each size is walked depth-first over prefixes: a prefix shifts its
        rows once, each subset ORs them with its last point's code column,
        and the subsets of one prefix are yielded as a batch. A subset's
        form is read from its prefix's form, in ``children`` under the last
        point's row over the prefix, and is made by ``_canonical`` when
        missing. That key is exact in a valid structure: the row holds the
        codes from the last point to the prefix, and with strict ranks inside
        each scale the codes the other way are the same with below and above
        swapped, so the prefix's code matrix and the row fix the subset's,
        and a tree node is one code matrix. Like every form table, the
        children survive an append.

        Yielding size by size, lazily, builds each prefix's rows again for
        every larger size: at k = 3 over 20 points, 1,558 row builds for
        1,351 subsets (12,464 for 10,808 over the eight structures of a
        ``pipeline`` benchmark pass). One preorder walk would build each
        once, but would have to hold every subset's rows until its size
        comes."""
        n, to, root = self.n, self._to, self.root
        if k >= 0:
            yield (), root, [0] * n, self._fill(root, (), [0] * n)
        for size in range(1, min(k, n) + 1):
            for batch in self._walk(to, (), [0] * n, root, size):
                yield from batch

    def _walk(self, to, prefix, rows, form, depth):
        """``sweep``'s batches below ``prefix``; a method, as a recursive closure is a cycle."""
        n, w = len(rows), self.width
        children = form.children
        shifted = [r << w for r in rows]
        batch = []
        for b in range(prefix[-1] + 1 if prefix else 0, n - depth + 1):
            A = prefix + (b,)
            child = children.get(rows[b]) or children.setdefault(rows[b], self._canonical(A))
            grown = list(map(or_, shifted, to[b]))
            if depth > 1:
                yield from self._walk(to, A, grown, child, depth - 1)
            else:
                batch.append((A, child, grown, self._fill(child, A, grown)))
        if batch:
            yield batch

    def register(self, z: int, k: int) -> None:
        """Enter z's row over each subset of at most k >= 1 of the points
        before it in its form's row table, walking prefixes as ``_walk`` does
        with the packed rows of the points up to z, z's last. An entry is a
        function of form and row (see ``_fill``), so fill order is free."""
        if 0 not in self.root.rows:
            self._row_type(self.root, (), 0, z)
        self._register_walk(self._to, (), [0] * (z + 1), self.root, k)

    def _register_walk(self, to, prefix, rows, form, depth):
        """``register``'s entries below ``prefix``; a method, as a recursive closure is a cycle."""
        z, w = len(rows) - 1, self.width
        children = form.children
        shifted = [r << w for r in rows]
        for b in range(prefix[-1] + 1 if prefix else 0, z):
            A = prefix + (b,)
            child = children.get(rows[b]) or children.setdefault(rows[b], self._canonical(A))
            row = shifted[z] | to[b][z]
            if row not in child.rows:
                self._row_type(child, A, row, z)
            if depth > 1:
                self._register_walk(to, A, list(map(or_, shifted, to[b])), child, depth - 1)

    def scale_ranks(self, idx_a, delta) -> list[list[int] | None]:
        """Per order: sorted ranks of the base's distinct bottom classes in
        the new point's top class, or None when unconstrained: pinned (some
        base point within the bottom) or with no base point within the top."""
        ups = [self.up[d] for d in delta]
        within = functools.reduce(or_, ups, 0)   # the levels within which some base point lies
        return [None if within >> bot & 1
                else sorted({rank[reps[a]] for a, u in zip(idx_a, ups) if u >> top & 1}) or None
                for bot, top, reps, rank in self.orders]

    def point_type(self, idx_a, z: int) -> tuple:
        """(delta, gaps) of the existing point z over the base; a gap counts
        the scale's classes ranked below z's class."""
        row = self.dist[z]
        delta = tuple([row[a] for a in idx_a])
        gaps = tuple([None if sc is None else bisect.bisect_left(sc, rank[z])
                      for (_, _, _, rank), sc in zip(self.orders, self.scale_ranks(idx_a, delta))])
        return delta, gaps

    def types(self, idx_a):
        """Every consistent 1-type over the base as (delta, gaps): distance
        assignments in lexicographic order, each crossed with its gap choices."""
        for delta in _triangle_rows(self.lat, [[self.dist[a][b] for b in idx_a] for a in idx_a]):
            gap_ranges = [(None,) if sc is None else range(len(sc) + 1)
                          for sc in self.scale_ranks(idx_a, delta)]
            for gaps in itertools.product(*gap_ranges):
                yield delta, gaps


# ---------------------------------------------------------------------------
# extension property


def _extension_report(ctx: _CheckContext, k: int) -> SaturationReport:
    """The report of a full ``sweep(k)``. A subset has one pair per type of
    its form, and its k points have k distinct rows (see ``_CheckContext``),
    so in a valid structure its other rows are one per realized type.
    Patterns are read off the index: after the sweep every class is one of a
    subset of at most k points and every row has an entry, so ``patterns``
    counts the patterns and ``realized`` holds the realized ones."""
    pair_total = pair_realized = 0
    missing_pairs = []
    for A, form, _, distinct in ctx.sweep(k):
        pair_total += len(form.cls.types)
        pair_realized += len(distinct) - len(A)
        if len(missing_pairs) < 200 and len(distinct) - len(A) < len(form.cls.types):
            exact = set(map(form.rows.__getitem__, distinct))
            missing = [t for t, u in form.types.items() if u not in exact]
            if missing:
                names = tuple(ctx.points[a] for a in A)
                missing_pairs += [(names, OnePointType(names, *t))
                                  for t in missing[:200 - len(missing_pairs)]]
    missing_patterns = sorted(f"({matrix}, {u.local!r})" for cls in ctx._classes.values()
                              for matrix in [repr(cls.matrix)] for u in cls.types.values()
                              if u.pattern is u and u not in ctx.realized)
    return SaturationReport(ctx.patterns, len(ctx.realized),
                            pair_total, pair_realized, missing_pairs, missing_patterns)


def _check_context(s: OrderedLambdaStructure, k: int, what: str) -> _CheckContext:
    """The subset index for a check of depth k, which both checks refuse
    above ``MAX_DEPTH`` and on a structure that fails ``validate`` (exact
    types and child forms are read off pair codes, which presumes strict
    ranks inside each scale)."""
    if k > MAX_DEPTH:
        raise SizeCapError(f"{what} is capped at k = {MAX_DEPTH}, got {k}")
    _require_valid(s, "invalid structure")
    return _CheckContext(s)


def extension_property_check(s: OrderedLambdaStructure, k: int) -> SaturationReport:
    """Per-subset realization of every consistent 1-type, aggregated both per
    (subset, type) pair and per isomorphism-class pattern."""
    return _extension_report(_check_context(s, k, "extension_property_check"), k)


# ---------------------------------------------------------------------------
# homogeneity


@dataclass
class HomogeneityReport:
    pairs_checked: int
    extension_misses: int
    pattern_failures: int
    failures: list          # explicit (A, B, repr of a type in class coordinates, note) samples
    missing_patterns: list

    @property
    def ok(self) -> bool:
        """Zero pattern-level failures: every extension pattern realized over
        some copy of its base class. Raw per-pair misses at rank boundaries
        are inevitable in a finite order and reported separately."""
        return self.pattern_failures == 0

    def as_dict(self):
        return {
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "extension_misses": self.extension_misses,
            "pattern_failures": self.pattern_failures,
            "failures_sample": [
                (list(a), list(b), p, note) for a, b, p, note in self.failures[:20]],
            "missing_patterns": self.missing_patterns[:20],
        }


def homogeneity_check(s: OrderedLambdaStructure, m: int) -> HomogeneityReport:
    """One-point extension test over every isomorphism of substructures of
    size <= m: for each pair (A, B), each iso, and each point p outside A,
    does some q outside B complete the square?

    Pairs are grouped by isomorphism class, so the count runs over classes
    instead of the quadratic pair list; results are identical. One pass
    tallies, per form, the points having each row, in the C loop behind
    ``Counter.update`` (``_count_elements``), whose own wrapper costs more
    than it counts at a subset's few rows, and per row set (see ``_fill``)
    its first subset and its number of subsets. In a valid structure each
    outside row of a form is one realized ``_Type`` of its class, an object
    all the class's forms share, so folding those counts once by ``_Type``
    gives each class's. Every outside point has one exact type, so a class
    of n subsets of k points checks |autos| * n^2 * (N - k) pairs.

    A subset's exact types are its row set read through its form's table,
    so subsets of one form and row set are interchangeable: the first A
    with a miss, then the first B, is the first subset of its row set, and
    the example search runs over those first subsets alone. Pattern
    failures are read off the index after that pass, as in
    ``_extension_report``: a class's missing patterns are the patterns of
    its ``types`` not in ``realized``, listed by their ``local`` only until
    the sample of 50 is full.
    """
    ctx = _check_context(s, m, "homogeneity_check")
    tallies: dict = {}     # form -> ({row: points having it}, {row set: [first subset, subsets]})
    entries: dict = {}     # class -> (form, [first subset, subsets]) per row set, in sweep order
    for A, form, rows, distinct in ctx.sweep(m):
        counts, sets = tallies.get(form) or tallies.setdefault(form, ({}, {}))
        _count_elements(counts, rows)
        entry = sets.get(distinct)
        if entry is None:
            entry = sets[distinct] = [A, 0]
            entries.setdefault(form.cls, []).append((form, entry))
        entry[1] += 1
    type_counts: dict = {}    # _Type -> points having it over its class's subsets
    type_present: dict = {}   # _Type -> its class's subsets over which it is realized
    for form, (counts, sets) in tallies.items():
        for row, count in counts.items():
            if t := form.rows[row]:
                type_counts[t] = type_counts.get(t, 0) + count
        for distinct, (_, count) in sets.items():
            for t in filter(None, map(form.rows.__getitem__, distinct)):
                type_present[t] = type_present.get(t, 0) + count

    @functools.cache
    def exact(form, A) -> dict:
        """The exact types over A in class coordinates, in order of first
        point, read off the form's row table, which the sweep filled."""
        types = (form.rows[ctx.row(A, z)] for z in range(ctx.n))
        return dict.fromkeys(t.local for t in types if t)

    pairs_checked = misses = 0
    failures, missing_patterns = [], []
    pattern_failures = ctx.patterns - len(ctx.realized)
    for cls, firsts in entries.items():
        autos, types = cls.autos, cls.types
        n_members = sum(count for _, (_, count) in firsts)
        pairs_checked += len(autos) * n_members ** 2 * (ctx.n - len(cls.matrix))
        counted = [(u, type_counts[u]) for u in types.values() if u in type_counts]
        class_misses = sum(
            count * (n_members - type_present.get(types[_apply_perm_type(*u.local, a)], 0))
            for a in autos for u, count in counted)
        misses += class_misses
        if len(missing_patterns) < 50:
            patterns = {u.pattern for u in types.values()} - ctx.realized
            missing = sorted(repr(p.local) for p in patterns)[:50 - len(missing_patterns)]
            missing_patterns += [(repr(cls.matrix), u) for u in missing]
        if class_misses and len(failures) < 20:
            # surface a concrete example for the report
            failures.extend(itertools.islice((
                (tuple(ctx.points[i] for i in A), tuple(ctx.points[i] for i in B), repr(u),
                 "no matching extension point")
                for a in autos for fa, (A, _) in firsts for fb, (B, _) in firsts
                for u in exact(fa, A) if _apply_perm_type(*u, a) not in exact(fb, B)), 1))
    return HomogeneityReport(pairs_checked, misses, pattern_failures, failures, missing_patterns)
