"""Finite n-dimensional permutation structures: encoding catalog structures
into tuples of linear orders and decoding the lattice of definable
equivalence relations back out.

Encoding plan. Pick a family of chains covering the internal
meet-irreducibles; each chain is padded to a node chain from bottom to top,
with each input subquotient order hosted on a chain where its bottom and top
sit as consecutive nodes (a new chain is opened when no existing one can take
it). Per chain one base linear order is composed along the node segments,
using the hosted input orders where present and seeded generic fillers
elsewhere, plus ceil(log2(m+1)) companion orders for the chain's m credited
relations: on a segment at level l (the number of credited relations at or
below the segment's lower node) companion j agrees with the base iff bit j
of l is set. A pair's agreement bits therefore spell out its level, which is
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
from math import ceil, log2

from .errors import MissingMeetIrreducibleError, SizeCapError
from .lattice import (FiniteLattice, FinitePoset, is_distributive, lambda0_poset,
                      meet_irreducibles, min_chain_cover, require_distributive)
from .sqorders import OrderedLambdaStructure, SubquotientOrder, compose_lex, generic_filler


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
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """The orientation table: ``[i][j]`` has bit t set iff i precedes j
        in order t (0 on the diagonal)."""
        rows = []
        for i in range(self.N):
            row = [0] * self.N
            for t, r in enumerate(self.ranks):
                bit, ri = 1 << t, r[i]
                row = [v | bit if ri < rj else v for v, rj in zip(row, r)]
            rows.append(tuple(row))
        return tuple(rows)

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


def _linear_ranks(order: SubquotientOrder) -> tuple[int, ...]:
    space = order.space
    return tuple(order.rank[space.points[order.bottom_reps[i]]] for i in range(space.n))


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
    if cover == "auto":
        cover_chains = [list(c) for c in min_chain_cover(p0).chains]
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
        base = seg_orders[0]
        for nxt in seg_orders[1:]:
            base = compose_lex(base, nxt)
        plan.base_index = len(emitted)
        emitted.append(base)
        bits = ceil(log2(len(plan.credited) + 1)) if plan.credited else 0
        for j in range(bits):
            comp = None
            for seg, lvl in zip(seg_orders, levels):
                piece = seg if (lvl >> j) & 1 else seg.reverse()
                comp = piece if comp is None else compose_lex(comp, piece)
            plan.companion_indices.append(len(emitted))
            emitted.append(comp)

    ranks = tuple(_linear_ranks(o) for o in emitted)
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

    Composed by masks, not over the N(N-1)(N-2) triples: ``at[j][b]`` is the
    bit set of the points k != j with vec(j, k) = b. For a point i, the
    points reached from i through some j at a and then b are the OR of
    ``at[j][b]`` over the j with vec(i, j) = a; c is in comp[(a, b)] iff
    that OR meets ``at[i][c]``. Each row keeps only the vectors it realizes,
    so no unrealized value is ever visited."""
    vec = p.vectors
    at = []
    for i, row in enumerate(vec):
        masks: dict[int, int] = {}
        for k, v in enumerate(row):
            if k != i:
                masks[v] = masks.get(v, 0) | 1 << k
        at.append(masks)
    comp: dict[tuple[int, int], set] = {}
    for i, row in enumerate(vec):
        reach: dict[int, dict[int, int]] = {}
        for j, a in enumerate(row):
            if j != i:
                via = reach.setdefault(a, {})
                for b, m in at[j].items():
                    via[b] = via.get(b, 0) | m
        mine = at[i].items()
        for a, via in reach.items():
            for b, m in via.items():
                for c, mc in mine:
                    if m & mc:
                        comp.setdefault((a, b), set()).add(c)
    return comp


def decode_relations(p: PermStructure) -> DecodeResult:
    """Find every equivalence relation expressible as a union of orientation
    types on the sample, with their meet/join closure as a candidate lattice.

    Works on the closure system directly: a union of types is an equivalence
    iff it is closed under composition along sample triples, so the closed
    sets are enumerated Moore-family style instead of sweeping all subsets.
    The composition table comes from per-point bit masks of the points at
    each realized vector (see ``_composition``), read off the structure's one
    orientation table. Transitivity is only tested on the sample; small
    samples can only falsify, which is why the result carries the sample
    size.
    """
    N = p.N
    realized = sorted({v for i, row in enumerate(p.vectors)
                       for j, v in enumerate(row) if i != j})
    comp = _composition(p)
    full_mask = (1 << p.n) - 1
    atoms = sorted({frozenset((v, v ^ full_mask)) for v in realized}, key=sorted)
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
    ``sset``, each block ascending, blocks by their first point."""
    parent = list(range(p.N))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(p.vectors):
        for j in range(i + 1, p.N):
            if row[j] in sset:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    blocks: dict[int, list[int]] = {}
    for i in range(p.N):
        blocks.setdefault(find(i), []).append(i)
    return [blocks[k] for k in sorted(blocks)]


def _convex_in_order(p: PermStructure, blocks: list[list[int]], order: int) -> bool:
    block_of = {}
    for bi, block in enumerate(blocks):
        for i in block:
            block_of[i] = bi
    by_rank = sorted(range(p.N), key=lambda i: p.ranks[order][i])
    seen_done = set()
    current = None
    for i in by_rank:
        b = block_of[i]
        if b != current:
            if b in seen_done:
                return False
            if current is not None:
                seen_done.add(current)
            current = b
    return True


# ---------------------------------------------------------------------------
# profiles and the two-order catalog


def profile(p: PermStructure, k: int) -> Counter:
    """Multiset of k-point types: orbits of labeled k-tuples, keyed by the
    orientation matrix of the tuple (the vectors of its ordered pairs (u, v),
    u != v, row by row). Exhaustive, so refused for k > 4.

    Counted by orbits rather than over the k!·C(N, k) labeled tuples: the
    labeled tuple s∘σ of a sorted k-subset s and a permutation σ of its cells
    has key[(u, v)] = key_s[(σu, σv)], the sorted tuple's key with its cells
    permuted. So keys are counted over the C(N, k) sorted subsets, read off
    the orientation table, and each distinct key with multiplicity m adds m
    to each of its k! cell permutations (the labeled/unlabeled orbit count
    of Cameron, Oligomorphic Permutation Groups, 1990)."""
    if k > 4:
        raise SizeCapError(f"profile is capped at k = 4, got {k}")
    vec = p.vectors
    cells = [(u, v) for u in range(k) for v in range(k) if u != v]
    sorted_keys = Counter(tuple(vec[sub[u]][sub[v]] for u, v in cells)
                          for sub in itertools.combinations(range(p.N), k))
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
    lin = _linear_ranks(o)
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
            double.space.points, tuple(_linear_ranks(x) for x in double.orders)),
        ("3chain", "within-reversed"): PermStructure(
            blocks.space.points, (_linear_ranks(base), _linear_ranks(within_rev))),
        ("3chain", "between-reversed"): PermStructure(
            blocks.space.points, (_linear_ranks(base), _linear_ranks(between_rev))),
    }
    profiles = {}
    for key, inst in instances.items():
        prof = profile(inst, 3)
        profiles[key] = tuple(sorted(prof.items()))
    return CameronResult(profiles, len(set(profiles.values())))
