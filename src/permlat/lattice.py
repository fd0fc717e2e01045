"""Finite posets and lattices: validation, distributivity, meet-irreducibles,
chain covers, dimension bounds (the upper one from an exact cheapest-cover
search), and exhaustive enumeration at desk scale.

Elements are opaque string ids. Order relations are stored as bitmask rows,
meet/join as explicit tables (sizes stay at or below 16, so table lookups are
the cheapest possible representation for the hot loops downstream).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, inf, log2

from .canon import canonical_key
from .errors import NonDistributiveError, NotALatticeError, SizeCapError
from .validation import ValidationReport

MAX_ELEMENTS = 16
MAX_DISTRIBUTIVE_ENUM = 8   # largest size enumerate_distributive_lattices takes


def _transpose(masks) -> tuple[int, ...]:
    """Row i of the result has bit j set iff row j of ``masks`` has bit i."""
    n = len(masks)
    return tuple(sum(1 << j for j in range(n) if masks[j] >> i & 1) for i in range(n))


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """Immutable finite partial order. ``up[i]`` is the bitmask of j with i <= j."""

    def __init__(self, elements: tuple[str, ...], up: tuple[int, ...]):
        if len(set(elements)) != len(elements):
            raise ValueError(f"duplicate element ids: {elements}")
        self.elements = tuple(elements)
        self.up = tuple(up)
        self.n = len(elements)
        self.index = {e: i for i, e in enumerate(elements)}

    @classmethod
    def from_leq_pairs(cls, elements, pairs) -> "FinitePoset":
        """Build from the full (or cover) relation; reflexive-transitive closure applied."""
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            up[idx[a]] |= 1 << idx[b]
        # transitive closure (Warshall on bitmasks)
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= up[k]
        return cls(elements, tuple(up))

    def leq(self, a: str, b: str) -> bool:
        return bool(self.up[self.index[a]] & (1 << self.index[b]))

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.up[i] & (1 << j))

    @cached_property
    def down(self) -> tuple[int, ...]:
        """``down[i]`` is the bitmask of j with j <= i."""
        return _transpose(self.up)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) with j covering i: the interval [i, j] is {i, j}."""
        up, down = self.up, self.down
        return tuple((i, j) for i in range(self.n) for j in range(self.n)
                     if i != j and up[i] & down[j] == 1 << i | 1 << j)

    def upper_covers_idx(self, i: int) -> list[int]:
        return [j for a, j in self.covers if a == i]

    def validate(self) -> ValidationReport:
        report = ValidationReport(subject="poset")
        els, up = self.elements, self.up
        for i in range(self.n):
            if not up[i] & (1 << i):
                report.add("reflexive", (els[i],), f"{els[i]} not <= itself")
        for i in range(self.n):
            for j in _bits(up[i] & self.down[i] & ~(1 << i)):
                report.add("antisymmetric", (els[i], els[j]), "mutual strict order")
        for i in range(self.n):
            for j in _bits(up[i]):
                for k in _bits(up[j] & ~up[i]):
                    report.add("transitive", (els[i], els[j], els[k]), "missing composite relation")
        return report

    def key(self) -> tuple:
        up, n = self.up, self.n
        return canonical_key([[(i == j, up[i] >> j & 1, up[j] >> i & 1) for j in range(n)]
                              for i in range(n)])

    def subposet(self, names: list[str]) -> "FinitePoset":
        idxs = [self.index[x] for x in names]
        return FinitePoset(tuple(names), tuple(
            sum(1 << pos for pos, b in enumerate(idxs) if self.up[a] >> b & 1) for a in idxs))

    def __repr__(self):
        return f"FinitePoset({self.elements!r})"


class FiniteLattice:
    """Meet/join tables over a finite poset; table entries are element indices
    (or None where the bound does not exist, which validation reports)."""

    def __init__(self, poset: FinitePoset, meet_table, join_table, bottom: str, top: str):
        if poset.n > MAX_ELEMENTS:
            raise SizeCapError(f"lattices are capped at {MAX_ELEMENTS} elements, got {poset.n}")
        self.poset = poset
        self.elements = poset.elements
        self.index = poset.index
        self.n = poset.n
        self._meet = meet_table
        self._join = join_table
        self.bottom = bottom
        self.top = top
        self.bottom_idx = poset.index[bottom]
        self.top_idx = poset.index[top]
        self._tables_from_order = False  # from_poset sets it

    @classmethod
    def from_poset(cls, poset: FinitePoset) -> "FiniteLattice":
        """Compute GLB/LUB tables; missing bounds stay None for the validator."""
        n = poset.n
        if not n:
            raise NotALatticeError("a lattice has at least one element")
        down = poset.down
        up = poset.up
        principal_down = {down[i]: i for i in range(n)}
        principal_up = {up[i]: i for i in range(n)}
        meet = [[principal_down.get(down[i] & down[j]) for j in range(n)] for i in range(n)]
        join = [[principal_up.get(up[i] & up[j]) for j in range(n)] for i in range(n)]
        bottoms = [i for i in range(n) if down[i] == 1 << i]
        tops = [i for i in range(n) if up[i] == 1 << i]
        all_mask = (1 << n) - 1
        bottom = next((i for i in range(n) if up[i] == all_mask), bottoms[0] if bottoms else 0)
        top = next((i for i in range(n) if down[i] == all_mask), tops[0] if tops else n - 1)
        lat = cls(poset, tuple(map(tuple, meet)), tuple(map(tuple, join)),
                  poset.elements[bottom], poset.elements[top])
        lat._tables_from_order = True
        return lat

    @classmethod
    def from_cover_relations(cls, elements, covers) -> "FiniteLattice":
        return cls.from_poset(FinitePoset.from_leq_pairs(elements, covers))

    # -- name-level API ------------------------------------------------

    def leq(self, a: str, b: str) -> bool:
        return self.poset.leq(a, b)

    def meet(self, a: str, b: str) -> str:
        return self.elements[self.meet_idx(self.index[a], self.index[b])]

    def join(self, a: str, b: str) -> str:
        return self.elements[self.join_idx(self.index[a], self.index[b])]

    # -- index-level API (hot loops elsewhere) -------------------------

    def leq_idx(self, i: int, j: int) -> bool:
        return self.poset.leq_idx(i, j)

    def meet_idx(self, i: int, j: int) -> int:
        m = self._meet[i][j]
        if m is None:
            raise NotALatticeError(
                f"no meet for ({self.elements[i]}, {self.elements[j]})")
        return m

    def join_idx(self, i: int, j: int) -> int:
        j2 = self._join[i][j]
        if j2 is None:
            raise NotALatticeError(
                f"no join for ({self.elements[i]}, {self.elements[j]})")
        return j2

    def meet_many_idx(self, idxs) -> int:
        out = self.top_idx
        for i in idxs:
            out = self.meet_idx(out, i)
        return out

    def join_many_idx(self, idxs) -> int:
        out = self.bottom_idx
        for i in idxs:
            out = self.join_idx(out, i)
        return out

    def nonzero_idx(self) -> list[int]:
        return [i for i in range(self.n) if i != self.bottom_idx]

    def key(self) -> tuple:
        return self.poset.key()

    def __eq__(self, other):
        return (isinstance(other, FiniteLattice)
                and self.elements == other.elements
                and self.poset.up == other.poset.up)

    def __hash__(self):
        return hash((self.elements, self.poset.up))

    def __repr__(self):
        return f"FiniteLattice({self.elements!r}, bottom={self.bottom!r}, top={self.top!r})"


def lattices_isomorphic(a: FiniteLattice, b: FiniteLattice) -> bool:
    # order isomorphism suffices: meet/join are determined by the order
    return a.n == b.n and a.key() == b.key()


# ---------------------------------------------------------------------------
# validation


def validate_lattice(candidate: FiniteLattice) -> ValidationReport:
    """Confirm the lattice invariants or list each violation with a witness.
    Every meet and join entry is checked to be the exact glb or lub, and
    exact bounds satisfy the lattice laws, so those are not checked again."""
    report = candidate.poset.validate()
    report.subject = "lattice"
    if not report.ok:
        return report
    n = candidate.n
    els = candidate.elements
    poset = candidate.poset
    down = poset.down
    up = poset.up
    all_mask = (1 << n) - 1
    if up[candidate.bottom_idx] != all_mask:
        report.add("bottom", (candidate.bottom,), "declared bottom is not below every element")
    if down[candidate.top_idx] != all_mask:
        report.add("top", (candidate.top,), "declared top is not above every element")
    for i in range(n):
        for j in range(i, n):
            m = candidate._meet[i][j]
            if m is None:
                report.add("meet-total", (els[i], els[j]), "no greatest lower bound")
            elif down[m] != down[i] & down[j]:
                report.add("meet-glb", (els[i], els[j], els[m]),
                           "meet table entry is not the greatest lower bound")
            jn = candidate._join[i][j]
            if jn is None:
                report.add("join-total", (els[i], els[j]), "no least upper bound")
            elif up[jn] != up[i] & up[j]:
                report.add("join-lub", (els[i], els[j], els[jn]),
                           "join table entry is not the least upper bound")
            if m is not None and candidate._meet[j][i] != m:
                report.add("meet-commutative", (els[i], els[j], els[m]), "meet table asymmetric")
            if jn is not None and candidate._join[j][i] != jn:
                report.add("join-commutative", (els[i], els[j], els[jn]), "join table asymmetric")
    return report


def require_lattice(lat: FiniteLattice, where: str) -> FiniteLattice:
    """Return ``lat``, or raise NotALatticeError naming ``where`` and the first
    violated rule with its witness."""
    report = validate_lattice(lat)
    if not report.ok:
        v = report.violations[0]
        raise NotALatticeError(f"{where}: not a lattice: {v.rule} {v.witness} ({v.message})",
                               report=report.as_dict())
    return lat


# ---------------------------------------------------------------------------
# distributivity


@dataclass(frozen=True)
class DistributivityResult:
    """Birkhoff's verdict; ``witness``, the first M3 or N5 sublattice as a
    5-tuple in element-id order, and its ``kind`` are found when first read."""
    distributive: bool
    _lattice: FiniteLattice | None = field(default=None, repr=False, compare=False)

    def __bool__(self):
        return self.distributive

    @cached_property
    def _found(self) -> tuple[tuple[str, ...] | None, str | None]:
        for subset in itertools.combinations(range(self._lattice.n) if self._lattice else (), 5):
            if kind := _sublattice_shape(self._lattice, subset):
                return tuple(self._lattice.elements[i] for i in subset), kind
        return None, None

    witness = property(lambda self: self._found[0])
    kind = property(lambda self: self._found[1])  # "M3" or "N5"


def _sublattice_shape(lat: FiniteLattice, subset: tuple[int, ...]) -> str | None:
    """Classify a 5-element meet/join-closed subset as M3, N5, or neither."""
    sset = set(subset)
    for a, b in itertools.combinations(subset, 2):
        if lat.meet_idx(a, b) not in sset or lat.join_idx(a, b) not in sset:
            return None
    bot = lat.meet_many_idx(subset)
    top_ = lat.join_many_idx(subset)
    if bot not in sset or top_ not in sset:
        return None
    mids = [x for x in subset if x not in (bot, top_)]
    if len(mids) != 3:
        return None
    up, down = lat.poset.up, lat.poset.down
    incomp = [(x, y) for x, y in itertools.combinations(mids, 2)
              if not (up[x] | down[x]) >> y & 1]
    # three incomparable middles make M3, two (one comparable pair) make N5
    if len(incomp) < 2 or not all(lat.meet_idx(x, y) == bot and lat.join_idx(x, y) == top_
                                  for x, y in incomp):
        return None
    return "M3" if len(incomp) == 3 else "N5"


def is_distributive(lat: FiniteLattice) -> DistributivityResult:
    """Distributivity by Birkhoff's count: x -> the join-irreducibles below x
    embeds a lattice into the down-sets of its join-irreducibles (elements
    with one lower cover), onto them iff it is distributive. So it is iff
    they have exactly n down-sets; the count stops past n.

    A lattice failing the count has an M3 or N5 sublattice (Dedekind and
    Birkhoff), found when the witness is read. Objects that may be no lattice
    are scanned at the call: all but complete tables of a reflexive,
    antisymmetric order from ``from_poset`` (exact meets make it transitive).
    """
    down = lat.poset.down
    principal = set(down)
    # join-irreducibles: their strict down-set has a top (so is not empty)
    joins = [j for j in range(lat.n) if down[j] ^ 1 << j in principal]
    joins.sort(key=lambda j: down[j].bit_count())  # a linear extension, as _ideals needs
    label = {j: k for k, j in enumerate(joins)}
    jdown = tuple(sum(1 << label[i] for i in _bits(down[j]) if i in label) for j in joins)
    if len(_ideals(jdown, lat.n)) == lat.n:
        return DistributivityResult(True)
    result = DistributivityResult(False, lat)
    return result if _vouched(lat) or result.witness else DistributivityResult(True)


def _vouched(lat: FiniteLattice) -> bool:
    """Whether ``from_poset`` read complete tables off a reflexive, antisymmetric order."""
    return (lat._tables_from_order and None not in itertools.chain(*lat._meet, *lat._join)
            and all(u & d == 1 << i for i, (u, d) in enumerate(zip(lat.poset.up, lat.poset.down))))


def require_distributive(lat: FiniteLattice, what: str) -> None:
    """Raise NotALatticeError unless the object is a lattice (checked only
    where ``_vouched`` fails), then NonDistributiveError, naming ``what``
    and the M3/N5 witness of ``is_distributive``, unless it is distributive."""
    if not _vouched(lat):
        require_lattice(lat, what)
    dist = is_distributive(lat)
    if not dist:
        raise NonDistributiveError(f"{what}: the lattice is not distributive "
                                   f"({dist.kind} sublattice {dist.witness})",
                                   witness=dist.witness)


def distributive_law_holds(lat: FiniteLattice) -> bool:
    """Direct a^(b v c) = (a^b) v (a^c) check over all triples (test oracle)."""
    for a, b, c in itertools.product(range(lat.n), repeat=3):
        if lat.meet_idx(a, lat.join_idx(b, c)) != lat.join_idx(lat.meet_idx(a, b), lat.meet_idx(a, c)):
            return False
    return True


# ---------------------------------------------------------------------------
# meet-irreducibles and chain covers


@dataclass(frozen=True)
class MeetIrreducibles:
    elements: tuple[str, ...]
    cover: dict[str, str]  # x -> its unique upper cover x+


def meet_irreducibles(lat: FiniteLattice) -> MeetIrreducibles:
    """Elements (top excluded) with a unique upper cover."""
    els, cover = [], {}
    for i in range(lat.n):
        if i == lat.top_idx:
            continue
        ups = lat.poset.upper_covers_idx(i)
        if len(ups) == 1:
            els.append(lat.elements[i])
            cover[lat.elements[i]] = lat.elements[ups[0]]
    return MeetIrreducibles(tuple(els), cover)


def lambda0_poset(lat: FiniteLattice) -> FinitePoset:
    """Sub-poset of meet-irreducibles with bottom and top removed."""
    mi = meet_irreducibles(lat)
    names = [x for x in mi.elements if x not in (lat.bottom, lat.top)]
    return lat.poset.subposet(names)


@dataclass(frozen=True)
class ChainCover:
    chains: tuple[tuple[str, ...], ...]

    def __len__(self):
        return len(self.chains)


def _max_matching(n: int, adj: list[list[int]]) -> dict[int, int]:
    """Kuhn's augmenting-path matching; returns left->right assignment."""
    match_r: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_r or try_augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    for u in range(n):
        try_augment(u, set())
    return {u: v for v, u in match_r.items()}


def min_chain_cover(p: FinitePoset) -> ChainCover:
    """Minimum chain cover via Dilworth (bipartite matching on the strict order).

    The cover is a partition; its size equals the poset width.
    """
    n = p.n
    adj = [list(_bits(p.up[i] & ~(1 << i))) for i in range(n)]
    succ = _max_matching(n, adj)
    has_pred = set(succ.values())
    chains = []
    for start in range(n):
        if start in has_pred:
            continue
        chain = [start]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(tuple(p.elements[i] for i in chain))
    chains.sort()
    return ChainCover(tuple(chains))


# ---------------------------------------------------------------------------
# dimension bounds


@dataclass(frozen=True)
class DimensionBounds:
    lower: int
    upper: int
    cover: ChainCover
    exhaustive: bool  # always True: the cover search is exact on every lattice
    notes: tuple[str, ...]


def _chain_cost(length: int) -> int:
    return 1 + ceil(log2(length + 1))


def _cheapest_cover(p: FinitePoset) -> tuple[int, list[tuple[int, ...]]]:
    """A partition of ``p`` into chains of least total ``_chain_cost``, as
    (cost, chains of ascending indices). Ties go to the first cheapest
    partition found.

    Elements are placed in a linear extension (by down-set size, ties by
    index), each on an open chain whose last element lies below it, or on a
    new chain; this reaches every partition into chains exactly once. A
    branch is cut once its cost reaches the best found so far: placing an
    element never lowers a cost, so the cut loses no cheaper partition."""
    down = p.down
    order = sorted(range(p.n), key=lambda i: down[i].bit_count())
    chains: list[list[int]] = []
    best_cost, best = inf, []

    def place(pos: int, cost: int):
        nonlocal best_cost, best
        if cost >= best_cost:
            return
        if pos == len(order):
            best_cost, best = cost, [tuple(c) for c in chains]
            return
        e = order[pos]
        for c in chains:
            if down[e] >> c[-1] & 1:
                c.append(e)
                place(pos + 1, cost + _chain_cost(len(c)) - _chain_cost(len(c) - 1))
                c.pop()
        chains.append([e])
        place(pos + 1, cost + _chain_cost(1))
        chains.pop()

    place(0, 0)
    return best_cost, best


def dimension_bounds(lat: FiniteLattice) -> DimensionBounds:
    """Lower bound 2*ell, ell the width of Lambda0, and the upper bound of
    the cheapest chain cover of Lambda0 (``_cheapest_cover``), on the order
    count needed to present the lattice.

    Neither bound is tight in general; the report never claims tightness.
    """
    require_lattice(lat, "dimension bounds")
    require_distributive(lat, "dimension bounds")
    p0 = lambda0_poset(lat)
    cost, chains = _cheapest_cover(p0)
    notes = () if p0.n else (
        "lattice has no internal meet-irreducibles; at least one order "
        "is still needed to present a structure (bound concerns the lattice only)",)
    cover = ChainCover(tuple(sorted(tuple(p0.elements[i] for i in c) for c in chains)))
    return DimensionBounds(2 * len(min_chain_cover(p0)), cost, cover, True, notes)


# ---------------------------------------------------------------------------
# enumeration


def _ideals(down: tuple[int, ...], cap: float = inf) -> list[int]:
    """The down-sets of a naturally labelled poset (element k lies above
    only elements < k), given by its down masks, in increasing order. An
    ideal containing k is an ideal below k plus k, if that holds all of k's
    strict down-set. Stops once past ``cap`` down-sets: those of the first
    k elements are down-sets of the whole poset."""
    ideals = [0]
    for k, d in enumerate(down):
        ideals += [s | 1 << k for s in ideals if d & ~s == 1 << k]
        if len(ideals) > cap:
            break
    return ideals


def _natural_posets(max_size: int, lattice_of):
    """One naturally labelled poset (labels form a linear extension) of
    1..max_size points per isomorphism class that ``lattice_of`` keeps, as
    ``(key, lattice poset)`` in walk order: ``lattice_of(down)`` gives the
    poset of the lattice a candidate stands for, or None to cut it. Each
    layer puts a new top label over each ideal of each poset kept before."""
    # The walk keeps the representatives that walking every poset and keeping
    # the first of each class would keep. Candidates are isomorphic iff their
    # lattices are: an isomorphism fixes an adjoined top, and Birkhoff holds
    # for ideal lattices. A copy of an earlier candidate is dropped, as an
    # isomorphism carries its ideals onto the earlier one's, so each of its
    # children copies an earlier child. A cut drops only candidates whose
    # children it drops too, so the first of a class has a kept parent: a
    # meet that fails among old points fails with a new top point (whose
    # down-set is no meet of old points), and a child has all its parent's
    # ideals. Lattices of two layers differ in size or in their number of
    # join-irreducibles, so no key repeats across layers.
    layer: list[tuple[int, ...]] = [()]
    for size in range(max_size):
        kept: dict = {}
        for p in layer:
            for ideal in _ideals(p):
                down = p + (ideal | 1 << size,)
                poset = lattice_of(down)
                if poset is not None:
                    kept.setdefault(poset.key(), (down, poset))
        layer = [down for down, _ in kept.values()]
        yield from ((key, poset) for key, (_, poset) in kept.items())


def _with_top(down: tuple[int, ...]) -> FinitePoset | None:
    """A meet-semilattice with a top adjoined, or None for any other poset.
    The walk extends only meet-semilattices: only the last point's meets are new."""
    principal = set(down)
    if any(d & down[-1] not in principal for d in down):
        return None
    down += ((1 << len(down) + 1) - 1,)
    poset = FinitePoset(tuple(f"x{i}" for i in range(len(down))), _transpose(down))
    poset.down = down  # from_poset reads it: spare transposing back
    return poset


def _ideal_lattice(down: tuple[int, ...], max_size: int) -> FinitePoset | None:
    """The lattice of ideals of a poset, or None past ``max_size`` ideals."""
    ideals = _ideals(down, max_size)
    if len(ideals) > max_size:
        return None
    up = tuple(sum(1 << b for b, sb in enumerate(ideals) if sa & ~sb == 0) for sa in ideals)
    return FinitePoset(tuple(f"i{i}" for i in range(len(ideals))), up)


def enumerate_lattices(max_size: int):
    """One representative per isomorphism class of lattices with 2..max_size
    elements, via meet-semilattices of size max_size-1 with a new top adjoined."""
    if max_size > MAX_ELEMENTS:
        raise SizeCapError(f"max_size {max_size} exceeds cap {MAX_ELEMENTS}")
    for _, poset in _natural_posets(max_size - 1, _with_top):
        yield FiniteLattice.from_poset(poset)


def enumerate_distributive_lattices(max_size: int):
    """Downset lattices of all posets with < max_size elements (Birkhoff),
    one per isomorphism class, by size then key. Desk scale: max_size <= 8."""
    if max_size > MAX_DISTRIBUTIVE_ENUM:
        raise SizeCapError(f"enumerate_distributive_lattices is capped at "
                           f"{MAX_DISTRIBUTIVE_ENUM}, got {max_size}")
    found = _natural_posets(max_size - 1, lambda down: _ideal_lattice(down, max_size))
    for _, poset in sorted(found, key=lambda t: (t[1].n, t[0])):
        yield FiniteLattice.from_poset(poset)


# ---------------------------------------------------------------------------
# stock lattices


def chain_lattice(n: int, names: list[str] | None = None) -> FiniteLattice:
    if names is None:
        names = [f"c{i}" for i in range(n)]
    covers = [(names[i], names[i + 1]) for i in range(n - 1)]
    return FiniteLattice.from_cover_relations(names, covers)


def boolean2(names: tuple[str, str, str, str] = ("0", "a", "b", "1")) -> FiniteLattice:
    z, a, b, o = names
    return FiniteLattice.from_cover_relations(names, [(z, a), (z, b), (a, o), (b, o)])


def m3() -> FiniteLattice:
    els = ("0", "p", "q", "r", "1")
    return FiniteLattice.from_cover_relations(
        els, [("0", m) for m in ("p", "q", "r")] + [(m, "1") for m in ("p", "q", "r")])


def n5() -> FiniteLattice:
    els = ("0", "x", "w", "v", "1")
    return FiniteLattice.from_cover_relations(
        els, [("0", "x"), ("x", "w"), ("w", "1"), ("0", "v"), ("v", "1")])


def vertical_sum(lower: FiniteLattice, upper: FiniteLattice) -> FiniteLattice:
    """Stack: every element of ``lower`` below every element of ``upper``."""
    lo = [f"l.{e}" for e in lower.elements]
    hi = [f"u.{e}" for e in upper.elements]
    pairs = [(lo[i], lo[j]) for i, j in lower.poset.covers]
    pairs += [(hi[i], hi[j]) for i, j in upper.poset.covers]
    pairs += [(a, b) for a in lo for b in hi]
    return FiniteLattice.from_cover_relations(lo + hi, pairs)


def product_lattice(a: FiniteLattice, b: FiniteLattice) -> FiniteLattice:
    """Componentwise order: covers move one coordinate along one factor cover."""
    els = [f"{x}*{y}" for x in a.elements for y in b.elements]
    pairs = [(f"{a.elements[i]}*{y}", f"{a.elements[j]}*{y}")
             for i, j in a.poset.covers for y in b.elements]
    pairs += [(f"{x}*{b.elements[i]}", f"{x}*{b.elements[j]}")
              for x in a.elements for i, j in b.poset.covers]
    return FiniteLattice.from_cover_relations(els, pairs)


def b2_plus_top() -> FiniteLattice:
    """Boolean-on-2-atoms with one extra point stacked on top."""
    return vertical_sum(boolean2(), chain_lattice(1, ["t"]))
