"""Orthogonal factorization systems over the finite toolkit.

A system is a pair of morphism classes (E, M), each a predicate on index
tables.  Every system factorizes a morphism through its set image
(corestriction, then inclusion).  The validator brute-forces every law on
a supplied object pool, each decided on index tables: class properness,
composition closure, iso behaviour, factorization validity, stability of M
under pullback, the full orthogonality square sweep, and both completeness
directions (E is exactly the class left-orthogonal to M and dually).  It
numbers the pool once (`_Pool`).  Stability of M is decided once per
pullback key (the two source ids and m's fibre over each point's image),
since the pullback's table depends on nothing else, and its instances that
hold are counted in runs, as are the orthogonality pairs of a surjective e
with the injective, order-reflecting members of M.  A completeness law
reads each map's own factorization square first: a map outside E against
an injective member of M with its image (`_Pool.image_square`), a
surjective member of E with its kernel against a map outside M
(`_Pool.coimage_square`).  That square fails, and so settles the map,
unless the member is an iso; only then are the members of the other class
searched.  Every orthogonality test, the label-level `down_arrow_witness`
included, goes through one square search, `_Pool.bad_square`, whose
literal sweep is a join on hom tables grouped by their composite with e
(`_by_precomposite`), built once per e's table and target and end of m.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .core import (
    CheckResult,
    FiniteObject,
    Morphism,
    Report,
    _monotone_maps,
    componentwise,
    image_parts,
    inclusion,
    order_reflecting_table,
    points,
    pullback,
    restrict_masks,
    runs_around,
    serialize_morphism,
)


@dataclass(frozen=True)
class Factorization:
    e_part: Morphism
    m_part: Morphism

    def __post_init__(self):
        if self.e_part.target != self.m_part.source:
            raise ValueError("factorization parts do not meet in the middle")

    @property
    def mid(self) -> FiniteObject:
        return self.e_part.target


@dataclass(eq=False)
class FactorizationSystem:
    """The two classes, each a predicate on a map's index table, source
    up-masks, target size and target up-masks (None unordered), so a map
    need not be built to be classified.  The factorization of every system
    is the image factorization; the join of two admissible subobjects is
    then the union of their carriers."""

    name: str
    e_table: Callable[..., bool]
    m_table: Callable[..., bool]


def image_factorization(f: Morphism) -> Factorization:
    """Corestriction onto the set image followed by the literal inclusion."""
    mid = f.target.restrict(v for _, v in f.mapping)
    e = Morphism(f.source, mid, f.mapping)
    m = inclusion(mid, f.target)
    return Factorization(e, m)


class _Map(NamedTuple):
    """A map of a numbered pool: the ids of its source and target, its
    index table, and whether it is surjective and injective."""

    s: int
    t: int
    idx: tuple[int, ...]
    surj: bool
    inj: bool


class _Pool:
    """The objects of a pool, each given an int id in pool order, the first
    of equal objects winning.  Per id: the object, its size, its up-masks
    (None unordered) and the pairs (i, j), i != j, of its order (none
    unordered); per pair of ids read so far, `hom[i, j]`, the index tables
    of its hom set in enumeration order, as `hom_tables` gives them."""

    def __init__(self, objects: Sequence[FiniteObject], hom_tables):
        ids: dict[FiniteObject, int] = {}
        self.objects = objects
        self.ids = [ids.setdefault(x, len(ids)) for x in objects]
        self.obs = list(ids)
        self.size = [x.size for x in ids]
        self.up = [x.up_masks for x in ids]
        self.order = [() if up is None else tuple(
            (i, j) for i, row in enumerate(up) for j in points(row) if i != j)
            for up in self.up]
        self.hom: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self.hom_tables = hom_tables

    def read(self, p: int, q: int) -> list[_Map]:
        """The maps from the object at position p of the pool to the one
        at q, numbered, by one `hom_tables` call; records their tables as
        `hom` of the two ids."""
        tables = self.hom.setdefault((self.ids[p], self.ids[q]), self.hom_tables(
            self.objects[p], self.objects[q]))
        return [self.map(idx, p, q) for idx in tables]

    def map(self, idx, p: int, q: int) -> _Map:
        """The index table `idx`, from the object at position p to the one
        at q, numbered."""
        image_size = len(set(idx))
        t = self.ids[q]
        return _Map(self.ids[p], t, idx, image_size == self.size[t],
                    image_size == len(idx))

    def reflects(self, m: _Map) -> bool:
        """Whether m reflects the order of its source."""
        return order_reflecting_table(m.idx, self.up[m.s], self.up[m.t])

    def iso(self, g: _Map) -> bool:
        """Whether g is an iso: a bijection that reflects the order, which
        a monotone one does as soon as both orders have as many pairs (the
        image of the source's is then all of the target's), and always when
        either end is unordered."""
        return g.surj and g.inj and (
            self.up[g.s] is None or self.up[g.t] is None
            or len(self.order[g.s]) == len(self.order[g.t]))

    def image_square(self, f: _Map, m: _Map):
        """For m injective with f's target and image: the square of f
        against m with top u = m^-1.f and bottom v the identity, as (u, v)
        index tables, or None when u is not monotone.  A diagonal w needs
        m.w = v, so m onto and w = m^-1: the square has one diagonal when
        m is an iso (`iso`) and none otherwise."""
        inverse = dict(zip(m.idx, range(len(m.idx))))
        u = tuple([inverse[t] for t in f.idx])
        if _monotone(u, self.order[f.s], self.up[m.s]):
            return u, tuple(range(self.size[f.t]))
        return None

    def coimage_square(self, e: _Map, g: _Map):
        """Dually, for e surjective with g's source and kernel: the square
        of e against g with top u the identity and bottom v = g.e^-1, well
        defined since the kernels agree, as (u, v), or None when v is not
        monotone.  A diagonal w needs w.e = u, so e injective and w = e^-1:
        one diagonal when e is an iso, none otherwise."""
        v = [0] * self.size[e.t]
        for x, y in enumerate(e.idx):
            v[y] = g.idx[x]
        if _monotone(v, self.order[e.t], self.up[g.t]):
            return tuple(range(self.size[e.s])), tuple(v)
        return None

    def bad_square(self, e: _Map, m: _Map, reflects: bool, per_e: dict):
        """The first square v.e = m.u without exactly one diagonal, as (u,
        v, diagonal count) with u and v index tables, or None.  `reflects`
        says whether m reflects its source's order; `per_e` memoizes what
        depends on e and one end of m only, across the m of one e: each
        grouping, keyed on that end's id, reads only e's table and target,
        so it may be shared by every e with the same two; the fills read
        hom(a, c) too, so their key adds e's source id.

        For e surjective against m injective, the only possible diagonal
        of a square is the w with w.e = u, unique because e is epi, so a
        square fails exactly when w is not monotone while m.w is.  When m
        reflects, m.w is monotone exactly when w is, and no square fails.
        Otherwise the first of e's fills out of m's source
        (`_unmonotone_fills`, per source id) whose bottom m.w is monotone
        is the first failing square.  Any other pair is swept as a join
        (`_exhaustive_square`), on hom(b, d) grouped by v.e (the bottoms)
        and hom(b, c) grouped by w.e (the diagonals), one grouping per end
        id of m."""
        a, b, e_idx, e_surj, _ = e
        c, d, m_idx, _, m_inj = m
        if e_surj and m_inj:
            if reflects:
                return None
            b_order = self.order[b]
            cands = per_e.get(("fills", a, c))
            if cands is None:
                cands = per_e["fills", a, c] = _unmonotone_fills(
                    e_idx, self.size[b], b_order, self.up[c], self.hom[a, c])
            return _first_unfilled_square(m_idx, b_order, self.up[d], cands)
        tops = self.hom[a, c]
        if not tops:
            return None
        bottoms = per_e.get(d)
        if bottoms is None:
            bottoms = per_e[d] = _by_precomposite(e_idx, self.hom[b, d])
        diagonals = per_e.get(c)
        if diagonals is None:
            diagonals = per_e[c] = _by_precomposite(e_idx, self.hom[b, c])
        return _exhaustive_square(m_idx, tops, bottoms, diagonals)


def _monotone(idx, order, up) -> bool:
    """Whether the index table `idx` sends each pair (i, j) of `order`
    into the order with up-masks `up`; every map into an unordered object
    (None) is monotone."""
    return up is None or all(up[idx[i]] >> idx[j] & 1 for i, j in order)


def _kernel(idx) -> tuple[int, ...]:
    """The partition of the source the index table `idx` induces, as each
    point's block numbered in order of first appearance."""
    blocks: dict[int, int] = {}
    return tuple([blocks.setdefault(t, len(blocks)) for t in idx])


def _unmonotone_fills(e_idx, nb: int, b_order, c_up, homs_ac) -> list:
    """For e surjective onto an nb-point object whose order has the pairs
    `b_order` (i != j): the pairs (u, w) of index tables, u in `homs_ac`
    (into an object c with up-masks `c_up`) constant on the fibres of e
    and w the map with w.e = u, whose w is not monotone, in enumeration
    order.  They depend on e and c only, not on the m out of c."""
    fills: list = []
    if not b_order:
        return fills
    for u in homs_ac:
        w: list = [None] * nb
        for i, bi in enumerate(e_idx):
            if w[bi] is None:
                w[bi] = u[i]
            elif w[bi] != u[i]:
                break
        else:
            if not _monotone(w, b_order, c_up):
                fills.append((u, w))
    return fills


def _first_unfilled_square(m_idx, b_order, d_up, fills: list):
    """The first of `fills` whose bottom m.w is monotone into the object
    with up-masks `d_up`, as the square (u, m.w, 0), or None."""
    for u, w in fills:
        v = [m_idx[x] for x in w]
        if _monotone(v, b_order, d_up):
            return u, v, 0
    return None


def _by_precomposite(e_idx, homs) -> dict:
    """The index tables of `homs` grouped by their composite with e (index
    table `e_idx`), each group in enumeration order."""
    groups: dict = {}
    for h in homs:
        groups.setdefault(tuple([h[t] for t in e_idx]), []).append(h)
    return groups


def _exhaustive_square(m_idx, tops, bottoms, diagonals):
    """The literal sweep as a join: per top u (in `tops`, hom(a, c) in
    enumeration order), per bottom v with v.e = m.u (the group of m.u in
    `bottoms`, hom(b, d) by `_by_precomposite`), the diagonals w with m.w
    = v among those with w.e = u (the group of u in `diagonals`, hom(b, c)
    by `_by_precomposite`), counted up to two."""
    for u in tops:
        vs = bottoms.get(tuple([m_idx[t] for t in u]))
        if vs is None:
            continue
        mws = [tuple([m_idx[t] for t in w]) for w in diagonals.get(u, ())]
        for v in vs:
            count = min(mws.count(v), 2)
            if count != 1:
                return u, v, count
    return None


def _first_bad_square(e: Morphism, m: Morphism):
    """`_Pool.bad_square` of two label-level maps, on the pool of their
    four endpoints."""
    pool = _Pool((e.source, e.target, m.source, m.target),
                 lambda x, y: tuple(_monotone_maps(x, y, False)))
    for p, q in ((0, 2), (1, 3), (1, 2)):
        pool.read(p, q)
    m_map = pool.map(m.idx, 2, 3)
    return pool.bad_square(pool.map(e.idx, 0, 1), m_map, pool.reflects(m_map), {})


def down_arrow_witness(e: Morphism, m: Morphism):
    """Whether every commuting square v.e = m.u has exactly one diagonal,
    and, on failure, the offending square (and diagonal count)."""
    square = _first_bad_square(e, m)
    return square is None, square and _square_witness(e, m, *square)


def _square_witness(e, m, u_idx, v_idx, count):
    c, d = m.source.elements, m.target.elements
    return {
        "e": serialize_morphism(e),
        "m": serialize_morphism(m),
        "square_u": {k: c[t] for k, t in zip(e.source.elements, u_idx)},
        "square_v": {k: d[t] for k, t in zip(e.target.elements, v_idx)},
        "diagonals": count,
    }


def _fibres(idx, n: int) -> list[list[int]]:
    """Per point of an n-point target, the source points the index table
    `idx` sends there, ascending."""
    fibres: list[list[int]] = [[] for _ in range(n)]
    for b, t in enumerate(idx):
        fibres[t].append(b)
    return fibres


def _getter(idx) -> Callable:
    """A C-level getter of the entries at the index table `idx` of a list:
    a tuple, but the entry itself for a one-point table (which
    `operator.itemgetter` returns for one index), and () for the empty
    table (which it cannot make)."""
    return itemgetter(*idx) if idx else lambda _: ()


def _pullback_table(g_idx, x_up, fibres, y_up) -> tuple:
    """The class predicates' arguments of the first projection of the
    pullback of g: x -> d (index table `g_idx`, source up-masks `x_up`) and
    m: y -> d (`_fibres` of m, source up-masks `y_up`): on the points (a,
    b) with g(a) = m(b), a-major, then b ascending, as
    `core.pullback_pairs` lists them, ordered `componentwise`.  The same
    map as `pullback(g, m).p1` up to the order of its source points."""
    pairs = [(a, b) for a, t in enumerate(g_idx) for b in fibres[t]]
    up = None if x_up is None else componentwise(pairs, x_up, y_up)
    return tuple(a for a, _ in pairs), up, len(g_idx), x_up


def validate_system(sys: FactorizationSystem, objects: Sequence[FiniteObject],
                    ctx) -> Report:
    """Brute-force every factorization-system law over the object pool.

    Each law is a generator of outcomes, one per instance: None when it
    holds, the witness when it fails.  The pool is numbered once and each
    of its hom sets read once from the hom store of the context `ctx`;
    every law decides on ids and index tables, and a label-level map is
    built, by `ctx.morphism`, only for a witness."""
    pool = _Pool(objects, ctx.hom_tables)
    size, up = pool.size, pool.up
    maps = [g for p in range(len(objects)) for q in range(len(objects))
            for g in pool.read(p, q)]
    classes = [(g, sys.e_table(g.idx, up[g.s], size[g.t], up[g.t]),
                sys.m_table(g.idx, up[g.s], size[g.t], up[g.t])) for g in maps]
    e_list = [g for g, in_e, _ in classes if in_e]
    m_list = [g for g, _, in_m in classes if in_m]
    # Per target id, the maps into it in pool order, in blocks of one
    # source id: (source id, maps, per map a getter of its key's masks).
    blocks: dict[int, list[tuple]] = defaultdict(list)
    for g in maps:
        into = blocks[g.t]
        if not into or into[-1][0] != g.s:
            into.append((g.s, [], []))
        into[-1][1].append(g)
        into[-1][2].append(_getter(g.idx))

    def label_level(g: _Map) -> Morphism:
        return ctx.morphism(pool.obs[g.s], pool.obs[g.t], g.idx)

    def serialized(g: _Map) -> dict:
        return serialize_morphism(label_level(g))

    def each(members, holds):
        """Per map: None if `holds` of it, else the map."""
        return (None if holds(g) else {"morphism": serialized(g)} for g in members)

    def closed_under_composition(members, in_class):
        """Per composable pair of members, `in_class` on the composite's
        table."""
        by_source: dict[int, list[_Map]] = defaultdict(list)
        for g in members:
            by_source[g.s].append(g)
        for f in members:
            f_idx, src_up = f.idx, up[f.s]
            for g in by_source.get(f.t, ()):
                g_idx = g.idx
                yield (None if in_class(tuple(g_idx[t] for t in f_idx), src_up,
                                        size[g.t], up[g.t])
                       else {"first": serialized(f), "second": serialized(g)})

    def factorizations_valid():
        """The e-part is the corestriction onto the image mask, with the
        order the target induces there; the m-part its inclusion."""
        for g in maps:
            mask, cor = image_parts(g.idx)
            pts, t_up = points(mask), up[g.t]
            mid_up = None if t_up is None else restrict_masks(t_up, pts)
            e_in = sys.e_table(cor, up[g.s], len(pts), mid_up)
            m_in = sys.m_table(pts, mid_up, size[g.t], t_up)
            yield (None if e_in and m_in
                   else {"morphism": serialized(g),
                         "e_part_in_e": e_in, "m_part_in_m": m_in})

    def m_stable_under_pullback():
        """On index pullbacks.  The table of g's pullback along m depends on
        g's source, m's source and, per point a of g's source, the fibre of
        m over g(a) only, so it is decided once per such key, on ids and
        fibre masks, memoized per pair of source ids; the label-level
        pullback is built only for a witness.  The maps g into m's target
        come in blocks of one source id, whose keys' masks are read by one
        getter per map; a block all of whose keys are decided to hold is
        one run, and any other block is decided map by map.  Consecutive
        instances that hold are yielded as one run."""
        decided: dict[tuple[int, int], dict] = {}
        run = 0
        for m in m_list:
            fibres, m_up = _fibres(m.idx, size[m.t]), up[m.s]
            masks = [sum(1 << b for b in fibre) for fibre in fibres]
            for s, block, getters in blocks[m.t]:
                memo = decided.setdefault((s, m.s), {})
                keys = [get(masks) for get in getters]
                if all(map(memo.get, keys)):
                    run += len(block)
                    continue
                for g, key in zip(block, keys):
                    holds = memo.get(key)
                    if holds is None:
                        holds = memo[key] = sys.m_table(
                            *_pullback_table(g.idx, up[s], fibres, m_up))
                    if holds:
                        run += 1
                        continue
                    if run:
                        yield run
                        run = 0
                    yield {"m": serialized(m), "along": serialized(g),
                           "pulled_back": serialize_morphism(
                               pullback(label_level(g), label_level(m)).p1)}
        if run:
            yield run

    # Whether each member of M reflects its source's order, decided once.
    m_reflects = [(m, pool.reflects(m)) for m in m_list]
    # The positions of M a surjective e is not settled against by
    # `bad_square`'s first branch: those of the members that are not
    # injective and order-reflecting.
    unsettled = sum(1 << k for k, (m, reflects) in enumerate(m_reflects)
                    if not (m.inj and reflects))

    def pair(e, per_e, k):
        m, reflects = m_reflects[k]
        square = pool.bad_square(e, m, reflects, per_e)
        return square and _square_witness(label_level(e), label_level(m), *square)

    def orthogonality():
        """Per pair, what depends on e and one end of m memoized per e; the
        pairs of a surjective e with the injective, order-reflecting members
        hold, as runs between the others."""
        for e in e_list:
            instance = partial(pair, e, {})
            if e.surj:
                yield from runs_around(unsettled, len(m_reflects), instance)
            else:
                yield from map(instance, range(len(m_reflects)))

    def outside(g, reason):
        return {"morphism": serialized(g), "reason": reason}

    def e_complete():
        """Each map f outside E fails orthogonality against some member of
        M.  The square of f against an injective member with f's target and
        image (`_Pool.image_square`) fails unless that member is an iso, and
        then settles f; otherwise only members are searched, with what
        depends on one end of m shared by the maps of one table and target,
        and dropped after the last of them."""
        by_image: dict[tuple, list[_Map]] = defaultdict(list)
        for m in m_list:
            if m.inj:
                by_image[m.t, frozenset(m.idx)].append(m)
        maps = [g for g, in_e, _ in classes if not in_e]
        keys = [(f.idx, f.t) for f in maps]
        last = {key: k for k, key in enumerate(keys)}
        per_table: dict = {}
        for k, (f, key) in enumerate(zip(maps, keys)):
            if any(not pool.iso(m) and pool.image_square(f, m)
                   for m in by_image.get((f.t, frozenset(f.idx)), ())):
                yield None
            else:
                per_e = per_table.setdefault(key, {})
                yield None if any(pool.bad_square(f, m, reflects, per_e)
                                  for m, reflects in m_reflects) else outside(
                    f, "left-orthogonal to all of M but not in E")
            if last[key] == k:
                per_table.pop(key, None)

    def m_complete():
        """Dually, each map g outside M fails against some member of E.  The
        square of a surjective member with g's source and kernel against g
        (`_Pool.coimage_square`) settles g unless that member is an iso;
        otherwise the members are searched smallest first, with what
        depends on each member and one end of the map memoized across the
        maps."""
        by_kernel: dict[tuple, list[_Map]] = defaultdict(list)
        for e in e_list:
            if e.surj:
                by_kernel[e.s, _kernel(e.idx)].append(e)
        small_first = sorted(e_list, key=lambda e: (size[e.s], size[e.t]))
        per_e: dict = defaultdict(dict)
        for g in (g for g, _, in_m in classes if not in_m):
            if any(not pool.iso(e) and pool.coimage_square(e, g)
                   for e in by_kernel.get((g.s, _kernel(g.idx)), ())):
                yield None
                continue
            reflects = pool.reflects(g)
            yield None if any(pool.bad_square(e, g, reflects, per_e[k])
                              for k, e in enumerate(small_first)) else outside(
                g, "right-orthogonal to all of E but not in M")

    return Report(f"factorization[{sys.name}]", (
        CheckResult.of("e_members_are_epi", each(e_list, lambda g: g.surj)),
        CheckResult.of("m_members_are_mono", each(m_list, lambda g: g.inj)),
        CheckResult.of("isos_belong_to_both", (
            None if in_e and in_m else {"morphism": serialized(g)}
            for g, in_e, in_m in classes if pool.iso(g))),
        CheckResult.of("e_cap_m_is_iso", each(
            [g for g, in_e, in_m in classes if in_e and in_m], pool.iso)),
        CheckResult.of("e_closed_under_composition",
                       closed_under_composition(e_list, sys.e_table)),
        CheckResult.of("m_closed_under_composition",
                       closed_under_composition(m_list, sys.m_table)),
        CheckResult.of("factorizations_valid", factorizations_valid()),
        CheckResult.of("m_stable_under_pullback", m_stable_under_pullback()),
        CheckResult.of("orthogonality", orthogonality()),
        CheckResult.of("e_complete", e_complete()),
        CheckResult.of("m_complete", m_complete())))
