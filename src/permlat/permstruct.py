"""Finite n-dimensional permutation structures: encoding catalog structures
into tuples of linear orders and decoding the lattice of definable
equivalence relations back out.

Encoding plan. Pick a family of chains covering the internal
meet-irreducibles; each chain is padded to a node chain from bottom to top,
with each input subquotient order hosted on a chain where its bottom and top
sit as consecutive nodes (a new chain is opened when no existing one can take
it). Each node segment takes its hosted input order, or a seeded generic
filler. Per chain the base linear order is one stacked composition of the
segments' orders (``compose_lex``); each of the ceil(log2(m+1)) companion
orders for the chain's m credited relations stacks the same orders or their
reverses: on a segment at level l (the number of credited relations at or
below the segment's lower node) companion j keeps the order iff bit j of l
is set. A pair's agreement bits therefore spell out its level, which is
what the decoder reads. Every credited relation, and every input order, is
then a union of orientation types recorded in the codebook.
"""

from __future__ import annotations

import itertools
import random
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, comb, log2
from operator import lshift, or_

from .errors import MissingMeetIrreducibleError, SizeCapError
from .lattice import (MAX_ELEMENTS, FiniteLattice, FinitePoset, _bits, _cheapest_cover,
                      is_distributive, lambda0_poset, meet_irreducibles, require_distributive)
from .sqorders import OrderedLambdaStructure, SubquotientOrder, compose_lex, generic_filler

MAX_PROFILE_K = 4   # profile is exhaustive over k-subsets


class PermStructure:
    """N points, each with a rank in each of n strict total orders."""

    def __init__(self, points: tuple[str, ...], ranks: tuple[tuple[int, ...], ...]):
        self.points = tuple(points)
        self.ranks = tuple(tuple(r) for r in ranks)  # one rank tuple per order
        self.n = len(self.ranks)
        self.N = len(self.points)
        self.pindex = {p: i for i, p in enumerate(self.points)}
        for r in self.ranks:
            if sorted(r) != list(range(self.N)):
                raise ValueError("each order must be a strict total order on all points")

    @cached_property
    def _descending(self) -> tuple[list[int], ...]:
        """The rank kernel: per order, the points sorted by rank, last first.
        A running OR down it gives each point the points after it."""
        return tuple(sorted(range(self.N), key=r.__getitem__, reverse=True)
                     for r in self.ranks)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """The orientation table: ``[i][j]`` has bit t set iff i precedes j
        in order t (0 on the diagonal).

        Row i is built as one numeral with digit j = vec(i, j), w bytes per
        digit, w = max(1, ceil(n / 8)): a running OR down each order t, of
        ``1 << t`` in the digit of each point passed, gives each point bit t
        in the digits of the points after it, n ORs per row. The digits are
        then read off the numeral's little-endian bytes: byte k of every
        digit is one stride-w slice, shifted into place."""
        N, w = self.N, max(1, (self.n + 7) // 8)
        rows = [0] * N
        for t, order in enumerate(self._descending):
            wide = 0
            for i in order:
                rows[i] |= wide
                wide |= 1 << 8 * w * i + t
        table = []
        for num in rows:
            b = num.to_bytes(N * w, "little")
            row = b[::w]
            for k in range(1, w):
                row = map(or_, row, map(lshift, b[k::w], itertools.repeat(8 * k)))
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def _at(self) -> tuple[dict[int, int], ...]:
        """``[i][v]``: the bit mask of the points k != i with vec(i, k) = v,
        for the v where it is nonzero. The other points of i start in one
        class at v = 0 and are split order by order: per order t, a running
        OR gives the mask of the points after i, and those move to
        v | 1 << t."""
        everyone = (1 << self.N) - 1
        at = [{0: everyone ^ 1 << i} if self.N > 1 else {} for i in range(self.N)]
        for t, order in enumerate(self._descending):
            bit, later = 1 << t, 0
            for i in order:
                split = {}
                for v, m in at[i].items():
                    hi = m & later
                    if hi:
                        split[v | bit] = hi
                    if hi != m:
                        split[v] = m ^ hi
                at[i] = split
                later |= 1 << i
        return tuple(at)

    @cached_property
    def realized(self) -> tuple[int, ...]:
        """The vectors of the pairs of distinct points, ascending: the keys
        of ``_at``."""
        return tuple(sorted(set().union(*self._at)))

    def vector_idx(self, i: int, j: int) -> int:
        """Orientation of the ordered pair as a bitmask: bit t set iff i
        precedes j in order t."""
        return self.vectors[i][j]

    def less(self, order: int, x: str, y: str) -> bool:
        return bool(self.vector_idx(self.pindex[x], self.pindex[y]) >> order & 1)

    def vector(self, x: str, y: str) -> tuple[int, ...]:
        v = self.vector_idx(self.pindex[x], self.pindex[y])
        return tuple(v >> t & 1 for t in range(self.n))

    def __eq__(self, other):
        return (isinstance(other, PermStructure)
                and self.points == other.points and self.ranks == other.ranks)

    def __hash__(self):
        return hash((self.points, self.ranks))

    def __repr__(self):
        return f"PermStructure(n={self.n}, N={self.N})"


# ---------------------------------------------------------------------------
# encoding


@dataclass
class ChainPlan:
    credited: list[str]           # covered internal meet-irreducibles, ascending
    nodes: list[str]              # full node chain including bottom and top
    hosted: dict[tuple[str, str], int]  # segment -> input order index
    base_index: int = -1
    companion_indices: list[int] = field(default_factory=list)


@dataclass
class Codebook:
    chains: list[ChainPlan]
    relation_vectors: dict[str, frozenset]       # lattice element -> vectors
    order_vectors: dict[int, frozenset]          # input order index -> vectors


@dataclass
class EncodeResult:
    perm: PermStructure
    codebook: Codebook
    emitted: int
    bound: int  # |cover| + sum ceil(log2(|L|+1)) for the chosen cover


def _bottom_up(lat: FiniteLattice, elements) -> list[str]:
    """The elements of a chain, sorted from the bottom up."""
    return sorted(elements, key=lambda x: lat.poset.down[lat.index[x]].bit_count())


def _plan_chains(lat: FiniteLattice, signature, cover_chains) -> list[ChainPlan]:
    plans = [ChainPlan(list(chain), [], {}) for chain in cover_chains]

    def comparable(a: str, b: str) -> bool:
        return lat.leq(a, b) or lat.leq(b, a)

    def strictly_between(x: str, lo: str, hi: str) -> bool:
        return lat.leq(lo, x) and lat.leq(x, hi) and x not in (lo, hi)

    for idx, (bottom, top) in enumerate(signature):
        placed = False
        for plan in plans:
            occupied = set(plan.credited) | {n for seg in plan.hosted for n in seg}
            if (bottom, top) in plan.hosted:
                continue
            if not all(comparable(x, bottom) and comparable(x, top) for x in occupied):
                continue
            if any(strictly_between(x, bottom, top) for x in occupied):
                continue
            if any(strictly_between(bottom, lo, hi) or strictly_between(top, lo, hi)
                   for lo, hi in plan.hosted):
                continue
            plan.hosted[(bottom, top)] = idx
            placed = True
            break
        if not placed:
            plans.append(ChainPlan([], [], {(bottom, top): idx}))
    for plan in plans:
        nodes = set(plan.credited) | {n for seg in plan.hosted for n in seg}
        nodes |= {lat.bottom, lat.top}
        plan.nodes = _bottom_up(lat, nodes)
    return plans


def encode_orders(s: OrderedLambdaStructure, cover: str | list = "auto",
                  seed: int = 0) -> EncodeResult:
    """Emit linear orders presenting the catalog structure, with a codebook
    mapping every lattice relation and every input order to its defining
    union of orientation types."""
    lat = s.space.lattice
    if lat.n == 1 and s.orders:
        raise SizeCapError("encoding an order needs a lattice of at least 2 elements: "
                           "a one-element lattice has no chain segment to host it")
    require_distributive(lat, "encoding")
    mi = meet_irreducibles(lat)
    bottoms = {o.bottom for o in s.orders}
    missing = [e for e in mi.elements if e not in bottoms]
    if missing:
        raise MissingMeetIrreducibleError(
            f"meet-irreducibles without a subquotient order: {missing}", missing=missing)
    p0 = lambda0_poset(lat)
    if cover == "auto":  # the cheapest cover, whose cost lattice bounds reports
        cover_chains = sorted([p0.elements[i] for i in c] for c in _cheapest_cover(p0)[1])
    else:
        cover_chains = [_bottom_up(lat, c) for c in cover]
        covered = {x for c in cover_chains for x in c}
        uncovered = sorted(set(p0.elements) - covered)
        if uncovered:
            raise MissingMeetIrreducibleError(
                f"cover misses internal meet-irreducibles: {uncovered}", missing=uncovered)
    plans = _plan_chains(lat, s.signature(), cover_chains)

    rng = random.Random(seed)
    emitted: list[SubquotientOrder] = []
    for plan in plans:
        segments = list(zip(plan.nodes, plan.nodes[1:]))
        seg_orders = []
        for lo, hi in segments:
            if (lo, hi) in plan.hosted:
                seg_orders.append(s.orders[plan.hosted[(lo, hi)]])
            else:
                seg_orders.append(generic_filler(s.space, lo, hi, rng))
        levels = [sum(1 for lam in plan.credited if lat.leq(lam, lo)) for lo, _ in segments]
        plan.base_index = len(emitted)
        emitted.append(compose_lex(*seg_orders))
        bits = ceil(log2(len(plan.credited) + 1)) if plan.credited else 0
        for j in range(bits):
            plan.companion_indices.append(len(emitted))
            emitted.append(compose_lex(*(seg if (lvl >> j) & 1 else seg.reverse()
                                         for seg, lvl in zip(seg_orders, levels))))

    ranks = tuple(o.point_ranks for o in emitted)
    perm = PermStructure(s.space.points, ranks)
    n = len(emitted)

    # codebook: decode the level of each orientation vector per chain,
    # translate levels to a lattice distance, then collect vector sets
    def chain_level(v: int, plan: ChainPlan) -> int:
        base_bit = (v >> plan.base_index) & 1
        lvl = 0
        for j, ci in enumerate(plan.companion_indices):
            if ((v >> ci) & 1) == base_bit:
                lvl |= 1 << j
        return lvl

    relation_vectors: dict[str, set] = {e: set() for e in lat.elements}
    order_vectors: dict[int, set] = {idx: set() for plan in plans for idx in plan.hosted.values()}
    for v in range(1 << n):
        above = []
        for plan in plans:
            lvl = chain_level(v, plan)
            for pos, lam in enumerate(plan.credited, start=1):
                if lvl < pos:
                    above.append(lat.index[lam])
        dv = lat.meet_many_idx(above) if above else lat.top_idx
        vec = tuple((v >> t) & 1 for t in range(n))
        for e in range(lat.n):
            if lat.leq_idx(dv, e):
                relation_vectors[lat.elements[e]].add(vec)
        for plan in plans:
            if (v >> plan.base_index) & 1:
                for (lo, hi), idx in plan.hosted.items():
                    if lat.leq_idx(dv, lat.index[hi]) and not lat.leq_idx(dv, lat.index[lo]):
                        order_vectors[idx].add(vec)

    bound = len(plans) + sum(ceil(log2(len(p.credited) + 1)) for p in plans)
    codebook = Codebook(plans,
                        {e: frozenset(vs) for e, vs in relation_vectors.items()},
                        {i: frozenset(vs) for i, vs in order_vectors.items()})
    return EncodeResult(perm, codebook, n, bound)


# ---------------------------------------------------------------------------
# decoding


@dataclass
class RelationInfo:
    name: str
    vectors: frozenset            # orientation vectors (as 0/1 tuples) in the relation
    partition: tuple[tuple[str, ...], ...]
    convex_in_orders: tuple[int, ...]
    meet_irreducible: bool = False


@dataclass
class DecodeResult:
    relations: list[RelationInfo]
    lattice: FiniteLattice
    distributive: bool
    sample_size: int


def _transitive_closure_types(comp: dict, seed_set: frozenset) -> frozenset:
    out = set(seed_set)
    queue = list(seed_set)
    while queue:
        v1 = queue.pop()
        for v2 in list(out):
            for w in comp.get((v1, v2), ()):
                if w not in out:
                    out.add(w)
                    queue.append(w)
            for w in comp.get((v2, v1), ()):
                if w not in out:
                    out.add(w)
                    queue.append(w)
    return frozenset(out)


def _composition(p: PermStructure) -> dict[tuple[int, int], set]:
    """``comp[(a, b)]`` is the set of orientation vectors c for which some
    three distinct points i, j, k have vec(i, j) = a, vec(j, k) = b and
    vec(i, k) = c.

    Composed by masks, not over the N(N-1)(N-2) triples. The structure's
    per-point vector masks ``at[j][b]`` (the k != j with vec(j, k) = b) come
    from its rank kernel; ``packed[j]`` holds each in the N-bit slot of b.
    For a point i, ORing each ``packed[j]``, j != i, into the block of r
    slots of a = vec(i, j) puts in slot (a, b) exactly the k reached from i
    through some j at a and then b; one AND with ``at[i][c]`` in every slot
    keeps the k != i with vec(i, k) = c. So c is in comp[(a, b)] iff slot
    (a, b) of that AND is nonzero for some i: an OR over i keeps it."""
    N, vec, realized, at = p.N, p.vectors, p.realized, p._at
    r = len(realized)
    pos = {v: s for s, v in enumerate(realized)}
    every = sum(1 << s * N for s in range(r * r))
    packed = [sum(m << pos[v] * N for v, m in masks.items()) for masks in at]
    found: dict[int, int] = {}
    for i, row in enumerate(vec):
        reach: dict[int, int] = {}
        for j, a in enumerate(row):
            if j != i:
                reach[a] = reach.get(a, 0) | packed[j]
        wide = sum(m << pos[a] * r * N for a, m in reach.items())
        for c, mc in at[i].items():
            found[c] = found.get(c, 0) | wide & mc * every
    comp: dict[tuple[int, int], set] = {}
    for c, hit in found.items():
        s = -1
        while hit:   # s: the next nonzero slot, found by the lowest set bit
            skip = ((hit & -hit).bit_length() - 1) // N + 1
            s += skip
            hit >>= skip * N
            comp.setdefault((realized[s // r], realized[s % r]), set()).add(c)
    return comp


def decode_relations(p: PermStructure) -> DecodeResult:
    """Find every equivalence relation expressible as a union of orientation
    types on the sample, with their meet/join closure as a candidate lattice.

    Works on the closure system directly: a union of types is an equivalence
    iff it is closed under composition along sample triples, so the closed
    sets are enumerated Moore-family style instead of sweeping all subsets.
    The composition table, the partitions and the convexity checks all read
    the structure's rank kernel: its per-point vector masks and its ranks
    (see ``_composition``, ``_partition_from_types``, ``_convex_in_order``).
    Transitivity is only tested on the sample; small samples can only
    falsify, which is why the result carries the sample size. The search
    raises SizeCapError once it holds more closed sets than a lattice may
    have elements, rather than enumerating a family it would refuse.
    """
    N = p.N
    comp = _composition(p)
    full_mask = (1 << p.n) - 1
    atoms = sorted({frozenset((v, v ^ full_mask)) for v in p.realized}, key=sorted)
    closed: set[frozenset] = set()
    empty = frozenset()
    queue = [empty]
    closed.add(empty)
    while queue:
        base = queue.pop()
        for atom in atoms:
            if atom <= base:
                continue
            new = _transitive_closure_types(comp, base | atom)
            if new not in closed:
                closed.add(new)
                if len(closed) > MAX_ELEMENTS:
                    raise SizeCapError(f"lattices are capped at {MAX_ELEMENTS} elements, got more "
                                       f"than {MAX_ELEMENTS} closed unions of orientation types")
                queue.append(new)

    by_size = sorted(closed, key=lambda s: (len(s), tuple(sorted(s))))
    names = {s: f"R{i}" for i, s in enumerate(by_size)}
    # refinement order = inclusion of type sets
    elements = tuple(names[s] for s in by_size)
    pairs = [(names[a], names[b]) for a in by_size for b in by_size if a <= b]
    poset = FinitePoset.from_leq_pairs(elements, pairs)
    lattice = FiniteLattice.from_poset(poset)
    dist = is_distributive(lattice)

    relations = []
    for sset in by_size:
        blocks = _partition_from_types(p, sset)
        convex = tuple(t for t in range(p.n) if _convex_in_order(p, blocks, t))
        vecs = frozenset(tuple((v >> t) & 1 for t in range(p.n)) for v in sset)
        parts = tuple(tuple(p.points[i] for i in block) for block in blocks)
        relations.append(RelationInfo(names[sset], vecs, parts, convex))
    mi = set(meet_irreducibles(lattice).elements)
    for r in relations:
        r.meet_irreducible = r.name in mi
    return DecodeResult(relations, lattice, bool(dist), N)


def _partition_from_types(p: PermStructure, sset: frozenset) -> list[list[int]]:
    """Blocks of point indices joined by a pair whose vector is in
    ``sset``, each block ascending, blocks by their first point.

    The block of i is ``1 << i`` ORed with ``at[i][v]`` for each v in
    ``sset``: the points joined to i directly. With no union-find that is
    the whole block, because every set ``decode_relations`` passes is an
    equivalence on the sample. It is closed under complement, so i joined
    to j gives j joined to i (vec(j, i) = ~vec(i, j)). It is closed under
    composition along sample triples, so i joined to j and j to k, k != i,
    gives i joined to k (vec(i, k) is in comp[(vec(i, j), vec(j, k))]).
    The complement closure holds because the atoms are complement pairs and
    composing keeps it: a witness i, j, k of c in comp[(a, b)], read as
    k, j, i, witnesses ~c in comp[(~b, ~a)]."""
    at, seen, blocks = p._at, 0, []
    for i in range(p.N):
        if not seen >> i & 1:
            block = 1 << i | sum(m for v, m in at[i].items() if v in sset)  # disjoint masks
            seen |= block
            blocks.append(list(_bits(block)))
    return blocks


def _convex_in_order(p: PermStructure, blocks: list[list[int]], order: int) -> bool:
    """Each block is an interval of the order: the mask of its rank
    positions is one run of ones."""
    r = p.ranks[order]
    for block in blocks:
        m = sum(1 << r[i] for i in block)
        m //= m & -m   # the run moved down to bit 0
        if m & m + 1:
            return False
    return True


# ---------------------------------------------------------------------------
# profiles and the two-order catalog


def profile(p: PermStructure, k: int) -> Counter:
    """Multiset of k-point types: orbits of labeled k-tuples, keyed by the
    orientation matrix of the tuple (the vectors of its ordered pairs (u, v),
    u != v, row by row). Exhaustive, so refused above ``MAX_PROFILE_K``.

    Counted by orbits rather than over the k!·C(N, k) labeled tuples: the
    labeled tuple s∘σ of a sorted k-subset s and a permutation σ of its cells
    has key[(u, v)] = key_s[(σu, σv)], the sorted tuple's key with its cells
    permuted. So keys are counted over the C(N, k) sorted subsets, read off
    the orientation table, and each distinct key with multiplicity m adds m
    to each of its k! cell permutations (the labeled/unlabeled orbit count
    of Cameron, Oligomorphic Permutation Groups, 1990). Per (k-1)-prefix P,
    zipping P's constant cells with the slices of vec[P[u]] and of column
    P[v] from max(P) + 1 on gives the keys of P's subsets in sorted order."""
    if k > MAX_PROFILE_K:
        raise SizeCapError(f"profile is capped at k = {MAX_PROFILE_K}, got {k}")
    if k <= 1:   # one empty key per subset
        return Counter({(): comb(p.N, k)} if p.N >= k else {})
    vec, cols = p.vectors, list(zip(*p.vectors))
    last = k - 1
    cells = [(u, v) for u in range(k) for v in range(k) if u != v]
    sorted_keys: Counter = Counter()
    for pre in itertools.combinations(range(p.N - 1), last):
        start = pre[-1] + 1
        sorted_keys.update(zip(*(
            itertools.repeat(vec[pre[u]][pre[v]]) if v != last and u != last
            else vec[pre[u]][start:] if v == last else cols[pre[v]][start:]
            for u, v in cells)))
    # position in the sorted key of each entry of a permuted key
    spreads = [[cells.index((sigma[u], sigma[v])) for u, v in cells]
               for sigma in itertools.permutations(range(k))]
    out: Counter = Counter()
    for key, m in sorted_keys.items():
        for spread in spreads:
            out[tuple(key[x] for x in spread)] += m
    return out


def two_order_catalog_parameters() -> list[tuple[str, str]]:
    """Catalog structures presentable with two linear orders: the trivial
    lattice with the order pair equal, reversed, or independent, and the
    3-chain with its two block arrangements."""
    return [
        ("2chain", "equal"),
        ("2chain", "reversed"),
        ("2chain", "independent"),
        ("3chain", "within-reversed"),
        ("3chain", "between-reversed"),
    ]


@dataclass
class CameronResult:
    profiles: dict[tuple[str, str], tuple]
    distinct: int


def cameron_enumeration(sample_size: int, seed: int = 0) -> CameronResult:
    """Instantiate every two-order catalog structure at the given size and
    return the deduplicated 3-point profiles; the parameter sweep itself is
    the expected count."""
    from .generic import GenerationConfig, generate_generic
    from .lattice import chain_lattice

    c2 = chain_lattice(2, ["0", "1"])
    c3 = chain_lattice(3, ["0", "E", "1"])
    cfg = GenerationConfig(seed=seed, target_size=sample_size, saturation_depth=2)
    single = generate_generic(c2, [("0", "1")], cfg, with_saturation_report=False).structure
    o = single.orders[0]
    lin = o.point_ranks
    rev = tuple(len(lin) - 1 - r for r in lin)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate-signature lint is expected here
        double = generate_generic(c2, [("0", "1"), ("0", "1")], cfg,
                                  with_saturation_report=False).structure
    blocks = generate_generic(c3, [("0", "E"), ("E", "1")], cfg,
                              with_saturation_report=False).structure
    w, b = blocks.orders
    base = compose_lex(w, b)
    within_rev = compose_lex(w.reverse(), b)
    between_rev = compose_lex(w, b.reverse())

    instances = {
        ("2chain", "equal"): PermStructure(single.space.points, (lin, lin)),
        ("2chain", "reversed"): PermStructure(single.space.points, (lin, rev)),
        ("2chain", "independent"): PermStructure(
            double.space.points, tuple(x.point_ranks for x in double.orders)),
        ("3chain", "within-reversed"): PermStructure(
            blocks.space.points, (base.point_ranks, within_rev.point_ranks)),
        ("3chain", "between-reversed"): PermStructure(
            blocks.space.points, (base.point_ranks, between_rev.point_ranks)),
    }
    profiles = {}
    for key, inst in instances.items():
        prof = profile(inst, 3)
        profiles[key] = tuple(sorted(prof.items()))
    return CameronResult(profiles, len(set(profiles.values())))
