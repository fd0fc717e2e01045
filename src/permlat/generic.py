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
    The input orders may have sparse ranks: they are renormalized first."""
    _require_generable(s.space.lattice, s.signature())
    dense = OrderedLambdaStructure(s.space, tuple(o.renormalized() for o in s.orders))
    ctx = _CheckContext(dense)
    idx_a = _index_of(s, t.over)
    want = (tuple(t.distances), tuple(t.order_constraints))
    if want not in ctx.types(idx_a):
        raise ValueError(f"inconsistent type over {t.over}")
    for z in range(ctx.n):
        if z not in idx_a and ctx.point_type(idx_a, z) == want:
            return RealizeResult(s, None, s.space.points[z])
    grown = _append_point(dense, ctx, idx_a, *want, rng or random.Random(0))
    return RealizeResult(grown, grown.space.points[-1], None)


def _new_name(space: LambdaSpace) -> str:
    name = f"p{space.n}"
    while name in space.pindex:
        name = name + "'"
    return name


def _append_point(s: OrderedLambdaStructure, ctx: _CheckContext, idx_a, delta, gaps,
                  rng: random.Random) -> OrderedLambdaStructure:
    """Append a fresh point of the unrealized type (delta, gaps) over the
    base, with ctx bound to s. The orders of s must have dense ranks: the new
    point's top class is then one old scale ranked 0..m-1, and a fresh class
    takes a rank between two of them, ``renormalized`` closing the gap."""
    lat = ctx.lat
    space = s.space
    n = space.n
    name = _new_name(space)
    # on the base itself this gives back delta, which is triangle-closed
    new_d = [_meet_of_joins(lat, delta, [space.dist[a][z] for a in idx_a]) for z in range(n)]
    if lat.bottom_idx in new_d:
        # cannot happen: the type is unrealized, and a bottom distance would
        # make that point realize it
        z = new_d.index(lat.bottom_idx)
        raise CollapsedCompletionError(
            f"canonical completion collapsed a fresh point onto {space.points[z]}",
            point=space.points[z])
    new_space = space.extended(name, new_d)
    new_orders = []
    for o, (bot, top, reps, _), gap, sc in zip(s.orders, ctx.orders, gaps,
                                               ctx.scale_ranks(idx_a, delta)):
        rank = dict(o.rank)
        if not any(ctx.leq(d, bot) for d in new_d):
            # fresh class, represented by the new point itself; slots run
            # strictly after the gap's left base class, at most at the right one
            m = len({reps[i] for i in range(n) if ctx.leq(new_d[i], top)})
            if gap is None:
                slot = rng.randint(0, m)
            else:
                slot = rng.randint(sc[gap - 1] + 1 if gap > 0 else 0,
                                   sc[gap] if gap < len(sc) else m)
            rank[name] = slot - 0.5
        new_orders.append(SubquotientOrder(new_space, o.bottom, o.top, rank).renormalized())
    return OrderedLambdaStructure(new_space, tuple(new_orders))


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

    One subset index serves the whole run, the final report included. It is
    extended after every appended point and never rebuilt: appending a point
    changes no pair code among the old points (see ``_CheckContext``), so
    the forms, pattern keys and row tables of old subsets stay valid, and
    the row tables are the record of what is realized (``ctx.realized``).
    A steered pass start sweeps only the subsets that meet a point appended
    since the last one (``sweep`` with ``since``), and while steered an
    appended point enters its rows over the subsets before it
    (``register``), so ``ctx.realized`` is exact at each steered pass start.
    Once steering ends neither runs, as nothing reads ``ctx.realized``
    again. The visits walk ``sweep`` over the points of the pass start and
    look up the rows of the points appended since, filling missing entries.
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
    s = empty_structure(lat, signature)
    ctx = _CheckContext(s)
    censused = 0            # points whose subsets ctx.realized covers
    # Steering, once ended, never comes back, so the flag only goes from True
    # to False. Say a steered pass start finds every pattern of ctx.keys
    # realized. A new point z makes a new class of at most k points only as
    # B | {z}, B an old subset of at most k - 1 points. z's type over B is
    # consistent, so its pattern is in ctx.keys (B's class was met when B was
    # swept), and is realized by some old w over some old B'. So B | {z} is
    # isomorphic to B' | {w}, an old subset whose class was met: keys cannot
    # grow, and every later pass start would find them all realized too.
    steered = True

    def append(grown: OrderedLambdaStructure):
        nonlocal s
        s = grown
        ctx.extend(s)
        if steered:
            # enter the new point's rows, so later steered picks in this pass
            # do not chase patterns it already covers
            ctx.register(s.space.n - 1, k)

    while s.space.n < cfg.target_size:
        n = s.space.n
        if steered:
            for _ in ctx.sweep(k, since=censused):
                pass
            censused = n
            # ctx.keys numbers the patterns of the forms met over these points
            # and ctx.realized is exact here, so a steered walk always
            # appends: the first subset of a form with a missing pattern
            # offers it, unless an earlier visit has appended
            steered = len(ctx.realized) < len(ctx.keys)
        for A, form, _, distinct in ctx.sweep(k):
            if s.space.n >= cfg.target_size:
                break
            exact = {form.rows[row] for row in distinct}
            for z in range(n, ctx.n):
                row = ctx.row(A, z)
                exact.add(form.rows.get(row) or ctx._row_type(form, A, row, z))
            cand = [t for t in form.types.values()
                    if t not in exact and not (steered and t.pattern in ctx.realized)]
            if cand:
                append(_append_point(s, ctx, A, *cand[rng.randrange(len(cand))].type, rng))
        if s.space.n == n:
            # every type over every subset realized: append over the empty
            # base, at distance top from every point, drawing no rank. Only
            # order-free signatures get here. Given an order o and a point a
            # whose bottom class ranks last in its scale, no point realizes the
            # type over {a} at distance top_o ranked above a (gap 1). So a
            # plain walk always appends, and a steered one does too (above)
            append(_append_point(s, ctx, (), (), (None,) * len(s.orders), rng))
    saturation = None
    if with_saturation_report:
        saturation = _extension_report(ctx, k)
    # generation starts empty and each append adds one point
    return GenerationResult(s, saturation, s.space.n)


# ---------------------------------------------------------------------------
# canonical pattern keys


def _apply_perm_type(delta: tuple[int, ...], gaps: tuple[Gap, ...], perm) -> tuple:
    return (tuple(delta[perm[u]] for u in range(len(delta))), gaps)


@functools.cache
def _labellings(k: int) -> list:
    """Each permutation of a k-subset with the positions, in a row-major
    flattened k x k matrix, of the off-diagonal cells it reads in order."""
    return [(perm, [perm[u] * k + perm[v] for u in range(k) for v in range(k) if u != v])
            for perm in itertools.permutations(range(k))]


class _Class:
    """One isomorphism class of bases: its canonical matrix and
    automorphisms, in lexicographic order (``form`` finds them). A base's
    consistent types depend only on its pair codes, so they are a function
    of the class. A pattern key is (matrix, least image of a type in class
    coordinates under the automorphisms); the index numbers the keys in its
    shared ``keys`` list."""

    __slots__ = ("matrix", "autos", "keys", "patterns")

    def __init__(self, matrix, autos: list, keys: list):
        self.matrix = matrix
        self.autos = autos
        self.keys = keys
        self.patterns: dict = {}   # type in class coordinates -> pattern number

    def pattern(self, local) -> int:
        number = self.patterns.get(local)
        if number is None:
            orbit = min(_apply_perm_type(*local, a) for a in self.autos)
            number = self.patterns.get(orbit)
            if number is None:
                number = self.patterns[orbit] = len(self.keys)
                self.keys.append((self.matrix, orbit))
            self.patterns[local] = number
        return number


class _Type:
    """A type over the subsets of one form: ``type`` is (delta, gaps) in
    subset coordinates, ``local`` the same in class coordinates, and
    ``pattern`` the number of its pattern key. A form holds one object per
    consistent type, so identity is equality."""

    __slots__ = ("type", "local", "pattern")

    def __init__(self, t: tuple, local: tuple, pattern: int):
        self.type = t
        self.local = local
        self.pattern = pattern


class _Form:
    """A class seen through one canonical labelling, shared by every subset
    with the same matrix of raw pair codes. ``types`` maps each consistent
    type, in subset coordinates and enumeration order, to its ``_Type``;
    ``rows`` maps a point's packed row over the subset to its ``_Type``, or
    None for a base point, and ``children`` maps it to the form of the
    subset with that point appended (see ``_CheckContext.sweep``)."""

    __slots__ = ("cls", "perm", "types", "rows", "children")

    def __init__(self, cls: _Class, perm, types: dict):
        self.cls = cls
        self.perm = perm
        self.types = types
        self.rows: dict = {}
        self.children: dict = {}


# ---------------------------------------------------------------------------
# the subset index


class _CheckContext:
    """Integer subset index over one structure. Its ``sweep`` is the one
    walk over all small subsets: generation's visits, steered pass starts
    and report and both checks read it. Its per-form row tables are the one
    record of the types realized: ``realized`` holds the pattern of every
    consistent entry, and an entry is made only from a point having its
    row. So ``realized`` is exact only once every row has been entered: at
    each steered pass start of generation, and after any ``sweep(k)`` that
    runs to its end, which is when the reports read it.

    It holds a table of pair codes (distance, then per order: same bottom
    class, other top class, below or above), one ``_Form`` per matrix of
    raw pair codes met so far, one ``_Class`` per
    canonical matrix, and the per-order class ranks that exact types need.

    Packed rows: a point's row over a subset (a_1, ..., a_k) is one integer
    holding its codes to a_1, ..., a_k in fields of ``width`` bits, a_1's
    highest. A base point's row holds its own -1 diagonal code, and a row
    shifted and ORed with -1, or a negative row shifted and ORed with a
    code, stays negative: base points are the negative rows.

    Append invariant: ``extend`` rebinds the index to the same structure
    with points appended, and keeps every code table entry, every form and
    every form's row table. That is sound because appending a point never
    changes a pair code among old points: distances are fixed,
    ``renormalized`` keeps the order among old classes, and the new point
    comes last, so it never becomes an existing class's representative. So
    each old subset keeps its code matrix and form, each old point keeps
    its row over it, and a row table entry is a function of the form and
    the row (see ``_fill``), so a realized pattern stays realized.
    """

    def __init__(self, s: OrderedLambdaStructure):
        lat = s.space.lattice
        self.lat = lat
        self.up = lat.poset.up
        m = len(s.orders)
        # the widest pair code: the last distance with every order field at 3
        self.width = max(1, ((lat.n - 1) << 2 * m | (1 << 2 * m) - 1).bit_length())
        self.keys: list = []             # pattern number -> pattern key
        self.realized: set = set()       # pattern numbers of the row table entries
        self._to: list[list[int]] = []   # _to[j][i]: pair code of (i, j), -1 on the diagonal
        self._by_codes: dict = {}        # raw code tuple -> _Form
        self._classes: dict = {}         # (size, canonical codes) -> _Class
        self.extend(s)

    def extend(self, s: OrderedLambdaStructure) -> None:
        """Bind the index to s: at construction, then to the same structure
        with points appended, adding the codes of the new pairs."""
        lat = self.lat
        self.n = s.space.n
        self.dist = s.space.dist
        self.points = s.space.points
        self.orders = [(lat.index[o.bottom], lat.index[o.top], o.bottom_reps, o.point_ranks)
                       for o in s.orders]
        self._scales_base: tuple | None = None
        self._scales: dict = {}
        to = self._to
        for j in range(len(to), self.n):
            for i in range(j):
                to[i].append(self._pair_code(j, i))
            to.append([self._pair_code(i, j) for i in range(j)] + [-1])

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] & (1 << j))

    def _pair_code(self, i: int, j: int) -> int:
        d = self.dist[i][j]
        up = self.up[d]
        code = d
        for bot, top, _, rank in self.orders:
            if up & (1 << bot):
                c = 0
            elif not up & (1 << top):
                c = 3
            else:
                c = 1 if rank[i] < rank[j] else 2
            code = code << 2 | c
        return code

    def _decode(self, code: int) -> tuple:
        """The pair code as (distance, per-order codes); integer order on
        codes is lexicographic order on these tuples."""
        m = len(self.orders)
        return (code >> 2 * m, tuple((code >> 2 * (m - 1 - t)) & 3 for t in range(m)))

    def form(self, idx_a: tuple) -> _Form:
        """Canonical form of the subset: the lexicographically least code
        matrix over its labellings, the first labelling reaching it, and the
        type table of that (class, labelling). Memoized per raw code matrix;
        the walks look a subset up in its prefix form's ``children`` first.

        A new class takes its automorphisms from the same scan: q reaches
        the least matrix exactly when q = perm * a for an automorphism a of
        it, so a = perm^-1 * q."""
        to = self._to
        facts = tuple([to[b][a] for a in idx_a for b in idx_a])
        form = self._by_codes.get(facts)
        if form is None:
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
                cls = self._classes[(k, best)] = _Class(matrix, autos, self.keys)
            types = {}
            for t in self.types(idx_a):
                local = _apply_perm_type(*t, perm)
                types[t] = _Type(t, local, cls.pattern(local))
            form = self._by_codes[facts] = _Form(cls, perm, types)
        return form

    def row(self, idx_a: tuple, z: int) -> int:
        """The packed row of the point z over the subset."""
        to = self._to
        row = 0
        for a in idx_a:
            row = row << self.width | to[a][z]
        return row

    def rows(self, idx_a: tuple) -> list[int]:
        """The packed row over the subset of every point, negative for the
        subset's own points."""
        return [self.row(idx_a, z) for z in range(self.n)]

    def _row_type(self, form: _Form, idx_a: tuple, row: int, z: int) -> _Type:
        """Fill the form's table entry for a row from a point z having it and
        enter its pattern in ``realized``. In a valid structure, the only kind
        generation builds and the checks accept, z's type is one of the form's."""
        entry = form.rows[row] = form.types[self.point_type(idx_a, z)]
        self.realized.add(entry.pattern)
        return entry

    def _fill(self, form: _Form, idx_a: tuple, rows: list[int]) -> set:
        """Enter every row over the subset in the form's table, the
        subset's own (negative) rows as None and each other row as the
        ``_Type`` of the first point having it; return the set of rows.

        A point's type over the base is a function of its row of pair codes
        to it, given the subset's own codes: the row fixes the distances, the
        pinned orders and the base points ranked below it, and with strict
        ranks inside each scale (a valid order) that fixes every gap. The
        subset's own codes are its form's, and so are its own rows (each
        holds the codes from one base point to the base points after it), so
        ``point_type`` runs once per form and distinct row, and every other
        point and subset of the form reads the form's table."""
        distinct = set(rows)
        table = form.rows
        if not table.keys() >= distinct:
            for z, row in enumerate(rows):
                if row not in table:
                    table[row] = None if row < 0 else self._row_type(form, idx_a, row, z)
        return distinct

    def exact_types(self, idx_a: tuple) -> dict:
        """The exact types of the points outside the base, as ``_Type``s of
        the subset's form: the keys of a dict, in order of first point."""
        form = self.form(idx_a)
        rows = self.rows(idx_a)
        self._fill(form, idx_a, rows)
        out = dict.fromkeys(map(form.rows.__getitem__, rows))
        out.pop(None, None)
        return out

    def sweep(self, k: int, since: int | None = None):
        """Yield ``(subset, form, rows, distinct)`` for every subset of at
        most k points, by size and then lexicographically: every point's
        packed row over the subset, their set, and the form's row table
        filled for each (see ``_fill``), so ``realized`` then covers them.
        With ``since``, only the subsets whose last point is at least
        ``since``, so not ``()``. The points are those bound at the call:
        points appended while the walk is suspended are not in its rows.

        Each size is walked depth-first over prefixes: a prefix shifts its
        rows once, each subset ORs them with its last point's code column,
        and the subsets of one prefix are yielded as a batch. A subset's
        form is read from its prefix's form, in ``children`` under the last
        point's row over the prefix, and is filled by ``form`` when missing.
        That key is exact in a valid structure: the row holds the codes from
        the last point to the prefix, and with strict ranks inside each scale
        the codes the other way are the same with below and above swapped,
        so the prefix's code matrix and the row fix the subset's. Like every
        form table, the children survive ``extend``.

        Yielding size by size, lazily, builds each prefix's rows again for
        every larger size: at k = 3 over 20 points, 1,558 row builds for
        1,351 subsets (12,464 for 10,808 over the eight structures of a
        ``pipeline`` benchmark pass). One preorder walk would build each
        once, but would have to hold every subset's rows until its size
        comes."""
        n = self.n
        to = self._to
        root = self.form(())
        if k >= 0 and since is None:
            yield (), root, [0] * n, self._fill(root, (), [0] * n)
        for size in range(1, min(k, n) + 1):
            for batch in self._walk(to, since or 0, (), [0] * n, root, size):
                yield from batch

    def _walk(self, to, first, prefix, rows, form, depth):
        """``sweep``'s batches below ``prefix``; a method, as a recursive closure is a cycle."""
        n, w = len(rows), self.width
        children = form.children
        shifted = [r << w for r in rows]
        batch = []
        start = prefix[-1] + 1 if prefix else 0
        for b in range(max(start, first) if depth == 1 else start, n - depth + 1):
            A = prefix + (b,)
            child = children.get(rows[b])
            if child is None:
                child = children[rows[b]] = self.form(A)
            grown = list(map(or_, shifted, to[b]))
            if depth > 1:
                yield from self._walk(to, first, A, grown, child, depth - 1)
            else:
                batch.append((A, child, grown, self._fill(child, A, grown)))
        if batch:
            yield batch

    def register(self, z: int, k: int) -> None:
        """Enter z's row over each subset of at most k >= 1 of the points
        before it in its form's row table, walking prefixes as ``_walk`` does
        with the packed rows of the points up to z, z's last. An entry is a
        function of form and row (see ``_fill``), so fill order is free."""
        root = self.form(())
        if 0 not in root.rows:
            self._row_type(root, (), 0, z)
        self._register_walk(self._to, (), [0] * (z + 1), root, k)

    def _register_walk(self, to, prefix, rows, form, depth):
        """``register``'s entries below ``prefix``; a method, as a recursive closure is a cycle."""
        z, w = len(rows) - 1, self.width
        children = form.children
        shifted = [r << w for r in rows]
        for b in range(prefix[-1] + 1 if prefix else 0, z):
            A = prefix + (b,)
            child = children.get(rows[b])
            if child is None:
                child = children[rows[b]] = self.form(A)
            row = shifted[z] | to[b][z]
            if row not in child.rows:
                self._row_type(child, A, row, z)
            if depth > 1:
                self._register_walk(to, A, list(map(or_, shifted, to[b])), child, depth - 1)

    def scale_ranks(self, idx_a, delta) -> list[list[int] | None]:
        """Per order: sorted ranks of the base's distinct bottom classes in
        the new point's top class, or None when unconstrained. Memoized per
        delta for the most recent base."""
        base = tuple(idx_a)
        if base != self._scales_base:
            self._scales_base = base
            self._scales = {}
        out = self._scales.get(delta)
        if out is not None:
            return out
        out = []
        for bot, top, reps, rank in self.orders:
            pinned = False
            members = []
            for u, d in zip(idx_a, delta):
                if self.up[d] & (1 << bot):
                    pinned = True
                    break
                if self.up[d] & (1 << top):
                    members.append(u)
            if pinned or not members:
                out.append(None)
            else:
                out.append(sorted({rank[reps[u]] for u in members}))
        self._scales[delta] = out
        return out

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
    """The report of a full ``sweep(k)``. Pairs are tallied per form: a
    subset has its form's own rows, the None entries of its row table, and
    in a valid structure one realized type per distinct outside row.
    Patterns are read off the index: after the sweep every form is one of a
    subset of at most k points and every row has an entry, so ``keys`` are
    the patterns and ``realized`` the realized ones."""
    tallies: dict = {}     # form -> [subsets, distinct rows summed over them]
    missing_pairs = []
    for A, form, _, distinct in ctx.sweep(k):
        tally = tallies.setdefault(form, [0, 0])
        tally[0] += 1
        tally[1] += len(distinct)
        if len(missing_pairs) < 200:
            exact = set(map(form.rows.__getitem__, distinct))
            missing = [t for t in form.types.values() if t not in exact]
            if missing:
                names = tuple(ctx.points[a] for a in A)
                missing_pairs += [(names, OnePointType(names, *t.type))
                                  for t in missing[:200 - len(missing_pairs)]]
    pair_total = pair_realized = 0
    for form, (subsets, realized) in tallies.items():
        pair_total += subsets * len(form.types)
        pair_realized += realized - subsets * list(form.rows.values()).count(None)
    missing_patterns = sorted(repr(key) for p, key in enumerate(ctx.keys) if p not in ctx.realized)
    return SaturationReport(len(ctx.keys), len(ctx.realized),
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
    failures: list          # explicit (A, B, point, note) samples
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

    Pairs are grouped by canonical form, so the count runs over classes
    instead of the quadratic pair list; results are identical. A form's
    types map one to one onto its class's types in class coordinates, and
    in a valid structure its distinct outside rows onto its realized types,
    so the per-row tallies of one pass give each class's counts. Pattern
    failures are read off the index after that pass, as in
    ``_extension_report``: a class's missing patterns are its pattern
    numbers (the values of ``patterns``) not in ``realized``.
    """
    ctx = _check_context(s, m, "homogeneity_check")
    points = s.space.points
    tallies: dict = {}     # form -> ({row: points having it}, {row: subsets}, its class's subsets)
    members: dict = {}     # class -> (its subsets, its forms), in sweep order
    for A, form, rows, distinct in ctx.sweep(m):
        tally = tallies.get(form)
        if tally is None:
            subsets, forms = members.setdefault(form.cls, ([], []))
            forms.append(form)
            tally = tallies[form] = ({}, {}, subsets)
        counts, present, subsets = tally
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        for row in distinct:
            present[row] = present.get(row, 0) + 1
        subsets.append(A)

    @functools.cache
    def exact(A) -> dict:
        """The exact types over A in class coordinates, in order of first point."""
        return dict.fromkeys(t.local for t in ctx.exact_types(A))

    pairs_checked = 0
    misses = 0
    failures = []
    pattern_failures = len(ctx.keys) - len(ctx.realized)
    missing_patterns = []
    for cls, (subsets, forms) in members.items():
        autos = cls.autos
        class_counts: dict = {}    # type in class coordinates -> points
        class_present: dict = {}   # type in class coordinates -> subsets
        for form in forms:
            counts, present, _ = tallies[form]
            for row, count in present.items():
                t = form.rows[row]
                if t:
                    class_counts[t.local] = class_counts.get(t.local, 0) + counts[row]
                    class_present[t.local] = class_present.get(t.local, 0) + count
        n_members = len(subsets)
        class_misses = 0
        for a in autos:
            for u, total_count in class_counts.items():
                absent = n_members - class_present.get(_apply_perm_type(*u, a), 0)
                pairs_checked += total_count * n_members
                if absent:
                    class_misses += total_count * absent
        misses += class_misses
        missing = sorted(repr(ctx.keys[p][1]) for p in set(cls.patterns.values()) - ctx.realized)
        missing_patterns += [(repr(cls.matrix), u) for u in missing[:50 - len(missing_patterns)]]
        if class_misses and len(failures) < 20:
            # surface a concrete example for the report
            failures.extend(itertools.islice((
                (tuple(points[i] for i in A), tuple(points[i] for i in B), repr(u),
                 "no matching extension point")
                for a in autos for A in subsets for B in subsets
                for u in exact(A) if _apply_perm_type(*u, a) not in exact(B)), 1))
    return HomogeneityReport(pairs_checked, misses, pattern_failures, failures, missing_patterns)
