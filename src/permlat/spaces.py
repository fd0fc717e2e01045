"""Finite lattice-valued ultrametric spaces, their equivalence-system
presentation, and amalgamation.

A space over a lattice L assigns every point pair a distance in L; the
triangle inequality uses join instead of addition. The canonical amalgam of
two extensions of a common base completes cross distances with the meet of
all join-paths through the base, which is the pointwise-largest valid
completion. When the lattice bottom is meet-reducible that completion can
force two cross points to distance bottom; the amalgam then identifies them
(recorded in the result), which is exactly what keeps amalgamation working on
every distributive lattice.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field

from .canon import canonical_key
from .errors import InvalidFactorError, SizeCapError
from .lattice import FiniteLattice, require_distributive
from .validation import ValidationReport


class LambdaSpace:
    """Finite point set with a lattice-valued metric, stored as an index matrix."""

    def __init__(self, lattice: FiniteLattice, points: tuple[str, ...], dist: tuple[tuple[int, ...], ...]):
        if len(set(points)) != len(points):
            raise ValueError(f"duplicate point ids: {points}")
        self.lattice = lattice
        self.points = tuple(points)
        self.dist = tuple(tuple(row) for row in dist)
        self.pindex = {p: i for i, p in enumerate(self.points)}
        self.n = len(self.points)
        self._class_reps: dict[int, tuple[int, ...]] = {}  # level -> class_reps

    def d(self, x: str, y: str) -> str:
        return self.lattice.elements[self.dist[self.pindex[x]][self.pindex[y]]]

    def extended(self, name: str, row) -> "LambdaSpace":
        """This space with one point ``name`` appended at distance ``row[i]``
        from point i."""
        dist = tuple(r + (x,) for r, x in zip(self.dist, row))
        return LambdaSpace(self.lattice, self.points + (name,),
                           dist + (tuple(row) + (self.lattice.bottom_idx,),))

    def __eq__(self, other):
        return (isinstance(other, LambdaSpace) and self.lattice == other.lattice
                and self.points == other.points and self.dist == other.dist)

    def __hash__(self):
        return hash((self.lattice, self.points, self.dist))

    def __repr__(self):
        return f"LambdaSpace(points={self.points!r})"


def _meet_of_joins(lat: FiniteLattice, row1, row2) -> int:
    """The canonical distance between two points given by their distance rows
    over the same base points: the meet over the base of the joins of the two
    rows' entries, the lattice top over an empty base. It is the largest
    distance that keeps every join-triangle through a base point."""
    join, meet = lat._join, lat._meet
    m = lat.top_idx
    for x, y in zip(row1, row2):
        m = meet[m][join[x][y]]
    return m


@functools.lru_cache(maxsize=64)
def _triangles(lat: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    """The join-triangle as a table: bit c of ``[a][b]`` is set iff each of
    the distances a, b, c lies below the join of the other two. The rule is
    symmetric in a, b and c, so the table is too."""
    up, join = lat.poset.up, lat._join
    elems = range(lat.n)
    return tuple(tuple(sum(1 << c for c in elems if up[a] >> join[b][c] & 1
                           and up[b] >> join[a][c] & 1 and up[c] >> join[a][b] & 1)
                       for b in elems) for a in elems)


def _triangle_rows(lat: FiniteLattice, base_dist) -> list[tuple[int, ...]]:
    """Every row of nonzero distances from one new point to the points of
    ``base_dist`` (a square distance matrix) that keeps each join-triangle
    through two base points, in lexicographic order."""
    tri = _triangles(lat)
    nonzero = lat.nonzero_idx()
    rows = [()]
    for dv in base_dist:
        grown = []
        for row in rows:
            # bit z: (row[u], dv[u], z) keeps the triangle for every u
            allowed = -1
            for x, y in zip(row, dv):
                allowed &= tri[x][y]
            grown.extend(row + (z,) for z in nonzero if allowed >> z & 1)
        rows = grown
    return rows


def validate_space(s: LambdaSpace) -> ValidationReport:
    """All metric axioms, join-triangle included; violations carry witnesses.
    The per-pair and per-triple scans run only once a whole-matrix test fails."""
    report = ValidationReport(subject="space")
    lat, dist, n, bot = s.lattice, s.dist, s.n, s.lattice.bottom_idx
    if dist != tuple(zip(*dist)) or any(row[i] != bot or row.count(bot) != 1
                                        for i, row in enumerate(dist)):
        for i in range(n):
            if dist[i][i] != bot:
                report.add("self-distance", (s.points[i],), "d(x,x) must be the lattice bottom")
        for i, j in itertools.combinations(range(n), 2):
            if dist[i][j] != dist[j][i]:
                report.add("symmetric", (s.points[i], s.points[j]), "asymmetric distance")
            if dist[i][j] == bot:
                report.add("indiscernible", (s.points[i], s.points[j]),
                           "distinct points at distance bottom")
    elif n < 3 or _triangles_hold(lat, dist):
        return report
    for i, j, k in itertools.permutations(range(n), 3):
        if not lat.leq_idx(dist[i][k], lat.join_idx(dist[i][j], dist[j][k])):
            report.add("join-triangle", (s.points[i], s.points[j], s.points[k]),
                       f"d({s.points[i]},{s.points[k]}) > d(.,{s.points[j]}) join d({s.points[j]},.)")
    return report


def _triangles_hold(lat: FiniteLattice, dist) -> bool:
    """Whether every join-triangle of a symmetric matrix with the bottom on
    its diagonal holds: iff each level's relation x R y, d(x, y) <= λ, is
    transitive, as d(x, y) join d(y, z) is the least λ with x R y R z. A
    row read through a level's table (an index below λ to "1", others to
    "0") is a binary numeral M[x], point 0 the top bit, so r(x) = N -
    M[x].bit_length() is its least point. R is reflexive and symmetric, so
    it is transitive iff M[x] = M[r(x)] for each x: if x R y, y in M[r(x)]
    and x in M[r(y)] give r(y) <= r(x) <= r(y), so M[x] = M[y]. N·|L| mask
    operations, not C(N, 3) lookups."""
    n, elements, rows = len(dist), bytes(range(lat.n)), list(map(bytes, dist))
    for d in lat.poset.down:
        table = bytes.maketrans(elements, bytes(49 if d >> e & 1 else 48 for e in elements))
        masks = [int(row.translate(table), 2) for row in rows]
        if any(m != masks[n - m.bit_length()] for m in masks):
            return False
    return True


# ---------------------------------------------------------------------------
# equivalence-system presentation


@dataclass
class EquivalenceSystem:
    """One equivalence relation per lattice element, as partitions of the points."""

    lattice: FiniteLattice
    points: tuple[str, ...]
    classes: dict[str, tuple[tuple[str, ...], ...]]  # element -> sorted partition

    def partition(self, lam: str) -> tuple[tuple[str, ...], ...]:
        return self.classes[lam]

    def validate(self) -> ValidationReport:
        report = ValidationReport(subject="equivalence-system")
        lat = self.lattice
        block_of = {}
        for lam, part in self.classes.items():
            seen = [p for block in part for p in block]
            if sorted(seen) != sorted(self.points):
                report.add("partition", (lam,), "blocks do not partition the points")
            block_of[lam] = {p: bi for bi, block in enumerate(part) for p in block}
        if set(self.classes) != set(lat.elements):
            report.add("coverage", (), "one partition per lattice element required")
            return report
        bot, top = lat.bottom, lat.top
        if any(len(b) != 1 for b in self.classes[bot]):
            report.add("bottom-discrete", (bot,), "partition at bottom must be discrete")
        if len(self.classes[top]) != 1:
            report.add("top-trivial", (top,), "partition at top must be a single class")
        for l1, l2 in itertools.permutations(lat.elements, 2):
            if lat.leq(l1, l2):
                for x, y in itertools.combinations(self.points, 2):
                    if block_of[l1][x] == block_of[l1][y] and block_of[l2][x] != block_of[l2][y]:
                        report.add("monotone", (l1, l2, x, y),
                                   "finer relation not refined by coarser one")
        for l1, l2 in itertools.combinations(lat.elements, 2):
            m = lat.meet(l1, l2)
            for x, y in itertools.combinations(self.points, 2):
                both = block_of[l1][x] == block_of[l1][y] and block_of[l2][x] == block_of[l2][y]
                if both != (block_of[m][x] == block_of[m][y]):
                    report.add("meet-preserving", (l1, l2, x, y),
                               "partition at the meet is not the common refinement")
        return report


def class_reps(space: LambdaSpace, level_idx: int) -> tuple[int, ...]:
    """Map each point index to the index of its class representative at the
    given lattice level (first member in point order). Computed once per
    space and level."""
    reps = space._class_reps.get(level_idx)
    if reps is None:
        below = space.lattice.poset.down[level_idx]
        out = list(range(space.n))
        for i, row in enumerate(space.dist):
            for j in range(i):
                if below >> row[j] & 1:
                    out[i] = out[j]
                    break
        reps = space._class_reps[level_idx] = tuple(out)
    return reps


def equivalences_from_space(s: LambdaSpace) -> EquivalenceSystem:
    """Group x,y at level lam iff d(x,y) <= lam."""
    lat = s.lattice
    classes = {}
    for e in range(lat.n):
        blocks: dict[int, list[str]] = {}
        for p, rep in zip(s.points, class_reps(s, e)):
            blocks.setdefault(rep, []).append(p)
        classes[lat.elements[e]] = tuple(map(tuple, blocks.values()))
    return EquivalenceSystem(lat, s.points, classes)


def space_from_equivalences(e: EquivalenceSystem) -> LambdaSpace:
    """d(x,y) = meet of all levels whose relation holds for (x,y)."""
    lat = e.lattice
    block_of = {lam: {p: bi for bi, block in enumerate(part) for p in block}
                for lam, part in e.classes.items()}
    n = len(e.points)
    dist = [[lat.bottom_idx] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        x, y = e.points[i], e.points[j]
        levels = [lat.index[lam] for lam in lat.elements
                  if block_of[lam][x] == block_of[lam][y]]
        d = lat.meet_many_idx(levels)
        dist[i][j] = d
        dist[j][i] = d
    return LambdaSpace(lat, e.points, tuple(map(tuple, dist)))


# ---------------------------------------------------------------------------
# amalgamation


@dataclass
class AmalgamResult:
    space: LambdaSpace
    merged: dict[str, str] = field(default_factory=dict)  # f2 point -> f1 point


def canonical_amalgam(base: LambdaSpace, f1: LambdaSpace, f2: LambdaSpace) -> AmalgamResult:
    """Free amalgam of two extensions of a common base.

    Cross distances are the meet over base points of d(a,c) join d(c,b)
    (``_meet_of_joins``); over an empty base the meet defaults to the lattice
    top. Every other valid completion is pointwise below this one. The result
    is f1 with the new points of f2 appended in f2's order, except those
    forced to bottom from some f1 point: each of these is identified with
    that twin and left out, so the result is always a genuine space when the
    lattice is distributive.
    """
    lat = base.lattice
    if f1.lattice is not lat or f2.lattice is not lat:
        raise InvalidFactorError("base and factors must share one lattice")
    require_distributive(lat, "amalgamation")
    for name, factor in (("f1", f1), ("f2", f2)):
        rep = validate_space(factor)
        if not rep.ok:
            raise InvalidFactorError(f"factor {name} is not a valid space",
                                     report=rep.as_dict())
        for p in base.points:
            if p not in factor.pindex:
                raise InvalidFactorError(f"base point {p} missing from factor {name}")
        for x, y in itertools.combinations(base.points, 2):
            if factor.d(x, y) != base.d(x, y):
                raise InvalidFactorError(
                    f"factor {name} does not restrict to the base at ({x}, {y})")
    new1 = [p for p in f1.points if p not in base.pindex]
    new2 = [p for p in f2.points if p not in base.pindex]
    clash = set(new1) & set(new2)
    if clash:
        raise InvalidFactorError(f"point-id collision outside the base: {sorted(clash)}")

    def over_base(f: LambdaSpace, p: str) -> list[int]:
        return [f.dist[f.pindex[p]][f.pindex[c]] for c in base.points]

    rows1 = {a: over_base(f1, a) for a in new1}
    merged: dict[str, str] = {}
    space = f1
    for b in new2:
        row2 = over_base(f2, b)
        cross = {a: _meet_of_joins(lat, rows1[a], row2) for a in new1}
        merged.update((b, a) for a, m in cross.items() if m == lat.bottom_idx)
        if b not in merged:
            # f2 gives the distances to the base and to the f2 points kept so far
            space = space.extended(b, [cross[p] if p in cross
                                       else f2.dist[f2.pindex[b]][f2.pindex[p]]
                                       for p in space.points])
    return AmalgamResult(space, merged)


# ---------------------------------------------------------------------------
# instance enumeration, the validity sweep of canonical completions, and the
# failure probe, which searches the sweep's faulty instances for any
# completion at all

MAX_BASE_POINTS = 4
MAX_NEW_POINTS = 2


def _base_spaces(lat: FiniteLattice, max_base: int):
    """Valid base spaces with 0..max_base points, one per isomorphism class.

    Each (k+1)-point class is a k-point class plus one triangle-valid row,
    kept the first time its key is seen (isomorph-free generation, McKay
    1998): on at most 3 points the sorted distances, as S3 permutes a
    triangle's sides freely, and ``canonical_key`` on more. Deleting a point
    of a space leaves one of a k-point class, so every class is reached. The
    cap bounds the sweep's run time only.
    """
    if max_base > MAX_BASE_POINTS:
        raise SizeCapError(f"bases are capped at {MAX_BASE_POINTS} points, got {max_base}: "
                           f"the cap bounds the sweep's run time")
    layer = [LambdaSpace(lat, (), ())]
    yield from layer
    for k in range(max_base):
        classes = {}
        for base in layer:
            sides = tuple(d for i, r in enumerate(base.dist) for d in r[:i])
            for row in _triangle_rows(lat, base.dist):
                classes.setdefault(tuple(sorted(sides + row)) if k < 3
                                   else canonical_key(base.extended("", row).dist), (base, row))
        layer = [base.extended(f"c{k}", row) for base, row in classes.values()]
        yield from layer


@dataclass(frozen=True)
class FailingInstance:
    base: LambdaSpace
    f1: LambdaSpace
    f2: LambdaSpace


def _has_pseudo_completion(lat: FiniteLattice, base: LambdaSpace,
                           f1: LambdaSpace, f2: LambdaSpace) -> bool:
    """Whether ANY assignment of cross distances (bottom = identification
    allowed) satisfies every join-triangle on the union."""
    new1 = [p for p in f1.points if p not in base.pindex]
    new2 = [p for p in f2.points if p not in base.pindex]
    # the union of the factors, with the cross distances unknown (None)
    union = f1
    for b in new2:
        union = union.extended(b, [f2.dist[f2.pindex[b]][f2.pindex[p]] if p in f2.pindex
                                   else None for p in union.points])
    d = [list(row) for row in union.dist]
    n = union.n
    cross_pairs = [(union.pindex[a], union.pindex[b]) for a in new1 for b in new2]

    tri = _triangles(lat)

    def consistent(i, j) -> bool:
        return all(d[i][k2] is None or d[k2][j] is None
                   or tri[d[i][j]][d[i][k2]] >> d[k2][j] & 1 for k2 in range(n))

    def assign(pos: int) -> bool:
        if pos == len(cross_pairs):
            return True
        i, j = cross_pairs[pos]
        for v in range(lat.n):
            d[i][j] = d[j][i] = v
            if consistent(i, j) and assign(pos + 1):
                return True
        d[i][j] = d[j][i] = None
        return False

    return assign(0)


def amalgamation_failure_probe(lat: FiniteLattice, max_base: int = 3,
                               max_new: int = 2) -> FailingInstance | None:
    """Search for a base/factor pair with no amalgam at all: the first of
    the sweep's faulty instances, in sweep order, that resists every
    completion, identification included.

    Only faulty instances can resist: where the canonical completion passes
    the sweep's checks it is itself a completion, since it keeps every
    triangle through a cross pair and puts bottom only between equal rows. On a distributive lattice the sweep finds no fault; on a
    non-distributive one some instance in this space has no completion.
    """
    for inst in _sweep(lat, max_base, max_new):
        if not _has_pseudo_completion(lat, inst.base, inst.f1, inst.f2):
            return inst
    return None


@dataclass
class SweepReport:
    instances: int
    failures: list[FailingInstance]


def _extensions(lat: FiniteLattice, base: LambdaSpace, max_new: int):
    """The triangle-valid rows over the base, and the extensions as (row
    indices, mutual distance) pairs, unordered in the new points; an
    extension by one point has mutual distance None. With ``max_new`` below
    1 there is no extension.

    Rows r1 and r2 may stand at a nonzero mutual distance m iff m keeps the
    triangle (r1[c], r2[c], m) through every base point c: bit m of the AND
    over the base of ``_triangles(lat)[r2[c]][r1[c]]``. The rows themselves
    keep every triangle through two base points."""
    if max_new > MAX_NEW_POINTS:
        raise SizeCapError(f"extensions are capped at {MAX_NEW_POINTS} new points, got {max_new}")
    rows = _triangle_rows(lat, base.dist)
    exts = [((i,), None) for i in range(len(rows))] if max_new >= 1 else []
    if max_new >= 2:
        tri, nonzero = _triangles(lat), lat.nonzero_idx()
        for i1, r1 in enumerate(rows):
            for i2 in range(i1, len(rows)):
                allowed = -1
                for x, y in zip(rows[i2], r1):
                    allowed &= tri[x][y]
                exts.extend(((i1, i2), m) for m in nonzero if allowed >> m & 1)
    return rows, exts


def _materialize(base, rows, ext, prefix) -> LambdaSpace:
    """The factor an extension stands for: the base plus its new points,
    named ``prefix`` followed by 0 and 1."""
    idx, mutual = ext
    space = base
    for a, i in enumerate(idx):
        space = space.extended(f"{prefix}{a}", rows[i] + ((mutual,) if a else ()))
    return space


def amalgam_validity_sweep(lat: FiniteLattice, max_base: int = 3,
                           max_new: int = 2) -> SweepReport:
    """Exhaustively amalgamate every instance (bases up to isomorphism) and
    check that each canonical completion is a valid space. Reports the number
    of instances and every faulty one (see ``_sweep``); on the distributive
    lattices it accepts there is none.

    Maximality needs no search: the join-triangle through a base point c
    bounds any valid cross distance d(a,b) by d(a,c) join d(c,b), so every
    valid completion lies below the canonical one.
    """
    require_distributive(lat, "validity sweep")
    report = SweepReport(0, [])
    report.failures.extend(_sweep(lat, max_base, max_new, report))
    return report


def _sweep(lat: FiniteLattice, max_base: int, max_new: int,
           report: SweepReport | None = None):
    """Every faulty instance as a ``FailingInstance``, lazily and in sweep
    order (bases, then f1 over the extensions, then f2 from f1's position
    on); adds the number of instances to ``report.instances`` base by base.

    An instance is faulty when its canonical completion breaks a triangle
    through a cross pair or puts two distinct rows at distance bottom
    (factor-internal triangles hold by the enumeration). That depends only
    on pairs of rows: per base, one table holds each row pair's cross
    distance, one fault mask per row marks its pair faults (bottom between
    distinct rows, a broken base triangle), and each extension gets a mask
    of its rows and a mask of the rows it faults against, by a pair fault or
    by a triangle through its other new point (mutual distance m): bit m of
    ``ok[u][v]`` for the cross distances u, v of its two rows to that row, as
    ``ok`` is symmetric in its three sides. An instance is faulty exactly
    when either factor's fault mask meets the other's rows, so only the pairs
    with a fault mask set on some side are visited, in sweep order (none, on
    a distributive lattice). Only faulty instances are built as spaces.
    """
    bot, top = lat.bottom_idx, lat.top_idx
    ok = _triangles(lat)
    for base in _base_spaces(lat, max_base):
        rows, exts = _extensions(lat, base, max_new)
        nrows = len(rows)
        cross = [[top] * nrows for _ in range(nrows)]
        faulty = [0] * nrows
        for i, ri in enumerate(rows):
            for j in range(i, nrows):
                rj = rows[j]
                m = _meet_of_joins(lat, ri, rj)
                cross[i][j] = cross[j][i] = m
                okm = ok[m]
                if m == bot and i != j or not all(okm[x] >> y & 1 for x, y in zip(ri, rj)):
                    faulty[i] |= 1 << j
                    faulty[j] |= 1 << i
        masks = []
        pair = None
        for idx, m in exts:
            own = bad = 0
            for i in idx:
                own |= 1 << i
                bad |= faulty[i]
            if m is not None:
                if idx != pair:  # sib[r]: the m keeping row r's sibling triangle
                    pair, sib = idx, [ok[u][v] for u, v in zip(cross[idx[0]], cross[idx[1]])]
                    keep = functools.reduce(int.__and__, sib)
                if not keep >> m & 1:
                    bad |= sum(1 << r for r, s in enumerate(sib) if not s >> m & 1)
            masks.append((own, bad))
        if report is not None:
            report.instances += len(exts) * (len(exts) + 1) // 2
        faulty_exts = [e for e, (_, bad) in enumerate(masks) if bad]
        if not faulty_exts:
            continue
        for e1, (own1, bad1) in enumerate(masks):
            partners = (range(e1, len(masks)) if bad1
                        else faulty_exts[bisect.bisect_left(faulty_exts, e1):])
            for e2 in partners:
                own2, bad2 = masks[e2]
                if bad1 & own2 or bad2 & own1:
                    yield FailingInstance(base, _materialize(base, rows, exts[e1], "x"),
                                          _materialize(base, rows, exts[e2], "y"))
