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

    @classmethod
    def from_distances(cls, lattice: FiniteLattice, points, distances: dict) -> "LambdaSpace":
        """``distances`` maps unordered point pairs to element names."""
        points = tuple(points)
        idx = {p: i for i, p in enumerate(points)}
        n = len(points)
        bot = lattice.bottom_idx
        dist = [[bot] * n for _ in range(n)]
        for (x, y), lam in distances.items():
            i, j = idx[x], idx[y]
            e = lattice.index[lam]
            dist[i][j] = e
            dist[j][i] = e
        return cls(lattice, points, tuple(map(tuple, dist)))

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


def _triangle_rows(lat: FiniteLattice, base_dist,
                   prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Every row of nonzero distances from one new point to the points of
    ``base_dist`` (a square distance matrix) that keeps each join-triangle
    through two base points, in lexicographic order. The row starts with
    ``prefix``, taken as given."""
    tri = _triangles(lat)
    nonzero = lat.nonzero_idx()
    rows = [tuple(prefix)]
    for v in range(len(prefix), len(base_dist)):
        dv = base_dist[v]
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
    """All metric axioms, join-triangle included; violations carry witnesses."""
    report = ValidationReport(subject="space")
    lat = s.lattice
    bot = lat.bottom_idx
    for i in range(s.n):
        if s.dist[i][i] != bot:
            report.add("self-distance", (s.points[i],), "d(x,x) must be the lattice bottom")
    for i, j in itertools.combinations(range(s.n), 2):
        if s.dist[i][j] != s.dist[j][i]:
            report.add("symmetric", (s.points[i], s.points[j]), "asymmetric distance")
        if s.dist[i][j] == bot:
            report.add("indiscernible", (s.points[i], s.points[j]),
                       "distinct points at distance bottom")
    if s.n < 3 or (report.ok and _triangles_hold(lat, s.dist)):
        return report
    # a triangle fails (or the matrix is asymmetric): collect the witnesses
    for i, j, k in itertools.permutations(range(s.n), 3):
        if not lat.leq_idx(s.dist[i][k], lat.join_idx(s.dist[i][j], s.dist[j][k])):
            report.add("join-triangle", (s.points[i], s.points[j], s.points[k]),
                       f"d({s.points[i]},{s.points[k]}) > d(.,{s.points[j]}) join d({s.points[j]},.)")
    return report


@functools.lru_cache(maxsize=64)
def _broken_triangles(lat: FiniteLattice) -> list[set[tuple[int, int]]]:
    """Per distance d: the pairs (a, b) for which (d, a, b) breaks the
    join-triangle; a set view of ``_triangles`` that ``_triangles_hold``
    scans with ``isdisjoint``."""
    tri = _triangles(lat)
    elems = range(lat.n)
    return [{(a, b) for a in elems for b in elems if not tri[d][a] >> b & 1} for d in elems]


def _triangles_hold(lat: FiniteLattice, dist) -> bool:
    """Whether every join-triangle of a symmetric distance matrix holds, in
    one pass over the point pairs."""
    broken = _broken_triangles(lat)
    for i, j in itertools.combinations(range(len(dist)), 2):
        if not broken[dist[i][j]].isdisjoint(zip(dist[i][j + 1:], dist[j][j + 1:])):
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


def _base_spaces(lat: FiniteLattice, max_base: int):
    """Valid base spaces with 0..max_base points, one per isomorphism class.

    Each (k+1)-point class is a k-point class plus one triangle-valid row,
    kept the first time its canonical key is seen (isomorph-free generation,
    McKay 1998). Deleting any point of a space leaves a space of some k-point
    class, so every class is reached. The cap bounds the sweep's run time
    only.
    """
    if max_base > MAX_BASE_POINTS:
        raise SizeCapError(f"bases are capped at {MAX_BASE_POINTS} points, got {max_base}: "
                           f"the cap bounds the sweep's run time")
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
    """Search for a base/factor pair with no amalgam at all: the first
    instance, in sweep order, that resists every completion, identification
    included.

    Only the sweep's faulty instances can resist: where the canonical
    completion passes the sweep's checks it is itself a completion, since it
    keeps every triangle through a cross pair and puts bottom only between
    equal rows. On a distributive lattice the sweep finds no fault; on a
    non-distributive one some instance in this space has no completion.
    """
    for base, f1, f2, _ in _sweep(lat, max_base, max_new):
        if not _has_pseudo_completion(lat, base, f1, f2):
            return FailingInstance(base, f1, f2)
    return None


@dataclass
class SweepReport:
    instances: int
    failures: list


def _extensions(lat: FiniteLattice, base: LambdaSpace, max_new: int):
    """The triangle-valid rows over the base, and the extensions as (row
    indices, mutual distance) pairs, unordered in the new points; an
    extension by one point has mutual distance None. With ``max_new`` below
    1 there is no extension."""
    if max_new > 2:
        raise SizeCapError(f"extensions are capped at 2 new points, got {max_new}")
    rows = _triangle_rows(lat, base.dist)
    exts = [((i,), None) for i in range(len(rows))] if max_new >= 1 else []
    if max_new >= 2:
        for i1, r1 in enumerate(rows):
            # mutual distances: rows over the base plus the first new point
            with_r1 = [row + (r1[c],) for c, row in enumerate(base.dist)] + [r1 + (lat.bottom_idx,)]
            for i2 in range(i1, len(rows)):
                exts.extend(((i1, i2), m) for *_, m in _triangle_rows(lat, with_r1, rows[i2]))
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
    of instances and every faulty one with its reason (see ``_sweep``).

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
    """Every faulty instance as (base, f1, f2, reason), lazily and in sweep
    order (bases, then f1 over the extensions, then f2 from f1's position
    on); adds the number of instances to ``report.instances`` base by base.

    An instance is faulty when its canonical completion breaks a triangle
    through a cross pair or puts two distinct rows at distance bottom
    (factor-internal triangles hold by the enumeration). That depends only
    on pairs of rows: per base, one table holds each row pair's cross
    distance and first fault, and each extension gets a mask of its rows and
    a mask of the rows it faults against, by a pair fault or by a triangle
    through its other new point. An instance is faulty exactly when either
    factor's fault mask meets the other's rows. Only faulty instances are
    built as spaces.
    """
    bot, top = lat.bottom_idx, lat.top_idx
    ok = _triangles(lat)
    for base in _base_spaces(lat, max_base):
        rows, exts = _extensions(lat, base, max_new)
        nrows = len(rows)
        cross = [[top] * nrows for _ in range(nrows)]
        fault = [[None] * nrows for _ in range(nrows)]
        for i, ri in enumerate(rows):
            for j in range(i, nrows):
                rj = rows[j]
                m = _meet_of_joins(lat, ri, rj)
                cross[i][j] = cross[j][i] = m
                if m == bot and i != j:
                    f = ("identification of distinct types",)
                else:
                    okm = ok[m]
                    f = next((("base triangle", c) for c, (x, y) in enumerate(zip(ri, rj))
                              if not okm[x] >> y & 1), None)
                fault[i][j] = fault[j][i] = f
        faulty = [sum(1 << j for j, f in enumerate(fi) if f) for fi in fault]
        masks = []
        for idx, m in exts:
            own = bad = 0
            for i in idx:
                own |= 1 << i
                bad |= faulty[i]
            if m is not None:
                okm = ok[m]
                bad |= sum(1 << r for r, (u, v) in enumerate(zip(cross[idx[0]], cross[idx[1]]))
                           if not okm[u] >> v & 1)
            masks.append((own, bad))
        if report is not None:
            report.instances += len(exts) * (len(exts) + 1) // 2
        for e1, (own1, bad1) in enumerate(masks):
            for e2, (own2, bad2) in enumerate(masks[e1:], e1):
                if bad1 & own2 or bad2 & own1:
                    yield (base, _materialize(base, rows, exts[e1], "x"),
                           _materialize(base, rows, exts[e2], "y"),
                           _reason(exts[e1], exts[e2], cross, fault, ok))


def _reason(ext1, ext2, cross, fault, ok) -> tuple:
    """The first fault of a faulty instance, scanning its cross pairs (a, b)
    in order: the pair's own fault, then the triangle through f1's other new
    point, then the one through f2's."""
    (idx1, m1), (idx2, m2) = ext1, ext2
    for a, i in enumerate(idx1):
        for b, j in enumerate(idx2):
            if fault[i][j]:
                name, *at = fault[i][j]
                return (name, a, b, *at)
            if m1 is not None and not ok[cross[i][j]][m1] >> cross[idx1[1 - a]][j] & 1:
                return ("f1 sibling triangle", a, b)
            if m2 is not None and not ok[cross[i][j]][m2] >> cross[i][idx2[1 - b]] & 1:
                return ("f2 sibling triangle", a, b)


def all_spaces(lat: FiniteLattice, n_points: int):
    """Every valid space on n_points named points (test helper)."""
    names = tuple(f"p{i}" for i in range(n_points))
    pairs = list(itertools.combinations(range(n_points), 2))
    for values in itertools.product(lat.nonzero_idx(), repeat=len(pairs)):
        dist = [[lat.bottom_idx] * n_points for _ in range(n_points)]
        for (i, j), v in zip(pairs, values):
            dist[i][j] = dist[j][i] = v
        s = LambdaSpace(lat, names, tuple(map(tuple, dist)))
        if validate_space(s).ok:
            yield s
