"""Orthogonal factorization systems over the finite toolkit.

A system is a pair of morphism classes (E, M), each a predicate on index
tables.  Every system factorizes a morphism through its set image
(corestriction, then inclusion).  The validator brute-forces every law on
a supplied object pool: class properness,
composition closure, iso behaviour, factorization validity, stability of M
under pullback (decided on index pullbacks), the full orthogonality square
sweep, and both completeness directions (E is exactly the class
left-orthogonal to M and dually).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    CheckResult,
    FiniteObject,
    Morphism,
    Report,
    compose,
    compose_idx,
    componentwise,
    enumerate_morphisms,
    inclusion,
    is_injective,
    is_iso,
    is_surjective,
    pullback,
    pullback_pairs,
    serialize_morphism,
    table_of,
    up_masks_or_none,
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
    """The two classes, each a predicate on `core.table_of(f)`: index
    table, source up-masks, target size and target up-masks (None
    unordered), so a map need not be built to be classified.  The
    factorization of every system is the image factorization; the join of
    two admissible subobjects is then the union of their carriers."""

    name: str
    e_table: Callable[..., bool]
    m_table: Callable[..., bool]

    def in_e(self, f: Morphism) -> bool:
        return self.e_table(*table_of(f))

    def in_m(self, f: Morphism) -> bool:
        return self.m_table(*table_of(f))


def image_factorization(f: Morphism) -> Factorization:
    """Corestriction onto the set image followed by the literal inclusion."""
    mid = f.target.restrict(f.image_labels)
    e = Morphism(f.source, mid, f.mapping)
    m = inclusion(mid, f.target)
    return Factorization(e, m)


def down_arrow(e: Morphism, m: Morphism) -> bool:
    """Whether every commuting square v.e = m.u has exactly one diagonal."""
    return _first_bad_square(e, m) is None


def down_arrow_witness(e: Morphism, m: Morphism):
    """down_arrow plus, on failure, the offending square (and diagonal count)."""
    square = _first_bad_square(e, m)
    return square is None, square and _square_witness(e, m, *square)


def _first_bad_square(e: Morphism, m: Morphism):
    """The first square of e against m without exactly one diagonal, as
    (u, v, diagonal count) with u and v index tables, or None."""
    if is_surjective(e) and is_injective(m):
        return _first_unfilled_square(e, m, _unmonotone_fills(e, m.source))
    return _down_arrow_exhaustive(e, m)


def _square_witness(e, m, u_idx, v_idx, count):
    c, d = m.source.elements, m.target.elements
    return {
        "e": serialize_morphism(e),
        "m": serialize_morphism(m),
        "square_u": {k: c[t] for k, t in zip(e.source.elements, u_idx)},
        "square_v": {k: d[t] for k, t in zip(e.target.elements, v_idx)},
        "diagonals": count,
    }


def _unmonotone_fills(e: Morphism, c: FiniteObject) -> list:
    """Fast path for e surjective against an injective m out of c.

    A square v.e = m.u with top u exists iff u is constant on the fibres of
    e and m.w is monotone for the induced w (w.e = u).  The only possible
    diagonal is w, unique because e is epi, so the square fails exactly
    when w is not monotone.  This lists the index tables (u, w) for every
    u: e.source -> c constant on the fibres of e whose w is not monotone,
    in enumeration order.  It depends on e and c only, not on m."""
    b = e.target
    if not (b.has_order and c.has_order):
        return []
    b_ord, c_up, e_idx = b.order_idx, c.up_masks, e.idx
    fills = []
    for u in enumerate_morphisms(e.source, c):
        u_idx = u.idx
        w_tab: list = [None] * b.size
        for i, bi in enumerate(e_idx):
            if w_tab[bi] is None:
                w_tab[bi] = u_idx[i]
            elif w_tab[bi] != u_idx[i]:
                break
        else:
            if not all((c_up[w_tab[i]] >> w_tab[j]) & 1 for (i, j) in b_ord):
                fills.append((u_idx, w_tab))
    return fills


def _first_unfilled_square(e: Morphism, m: Morphism, fills: list):
    """The first of `fills` (`_unmonotone_fills(e, m.source)`) whose bottom
    m.w is monotone, as the square (u, v, 0), or None: the first square of
    e against m with no diagonal."""
    if not fills:
        return None
    m_idx, b_ord, d_up = m.idx, e.target.order_idx, m.target.up_masks
    for u_idx, w_tab in fills:
        v_tab = [m_idx[ci] for ci in w_tab]
        if all((d_up[v_tab[i]] >> v_tab[j]) & 1 for (i, j) in b_ord):
            return u_idx, v_tab, 0
    return None


def _pullback_table(g: Morphism, m: Morphism) -> tuple:
    """`table_of` the first projection of the pullback of g and m, on
    `pullback_pairs` ordered `componentwise`: the same map as
    `pullback(g, m).p1` up to the order of its source points."""
    x, y = g.source, m.source
    pairs = pullback_pairs(g.idx, m.idx)
    up = (componentwise(pairs, x.up_masks, y.up_masks)
          if x.has_order and y.has_order else None)
    return tuple(a for a, _ in pairs), up, x.size, up_masks_or_none(x)


def _down_arrow_exhaustive(e: Morphism, m: Morphism):
    """`_first_bad_square` by the literal sweep over every square."""
    a, b = e.source, e.target
    c, d = m.source, m.target
    homs_bc = enumerate_morphisms(b, c)
    for u in enumerate_morphisms(a, c):
        mu = compose_idx(m, u)
        u_idx = u.idx
        for v in enumerate_morphisms(b, d):
            if compose_idx(v, e) != mu:
                continue
            v_idx = tuple(v.idx)
            count = 0
            for w in homs_bc:
                if compose_idx(m, w) == v_idx and compose_idx(w, e) == u_idx:
                    count += 1
                    if count > 1:
                        break
            if count != 1:
                return u_idx, v_idx, count
    return None


def _all_homs(objects: Sequence[FiniteObject]):
    for x in objects:
        for y in objects:
            yield from enumerate_morphisms(x, y)


def validate_system(sys: FactorizationSystem,
                    objects: Sequence[FiniteObject]) -> Report:
    """Brute-force every factorization-system law over the object pool.

    Each law is a generator of outcomes, one per instance: None when it
    holds, the witness when it fails."""
    homs = list(_all_homs(objects))
    e_list = [f for f in homs if sys.in_e(f)]
    m_list = [f for f in homs if sys.in_m(f)]
    e_set = set(e_list)
    m_set = set(m_list)
    by_target: dict[FiniteObject, list[Morphism]] = {}
    for f in homs:
        by_target.setdefault(f.target, []).append(f)

    def each(morphisms, predicate):
        """Per morphism: None if it satisfies `predicate`, else the morphism."""
        return (None if predicate(f) else {"morphism": serialize_morphism(f)}
                for f in morphisms)

    def closed_under_composition(pool, members):
        by_source: dict[FiniteObject, list[Morphism]] = {}
        for f in pool:
            by_source.setdefault(f.source, []).append(f)
        for f in pool:
            for g in by_source.get(f.target, ()):
                yield (None if compose(g, f) in members
                       else {"first": serialize_morphism(f),
                             "second": serialize_morphism(g)})

    def factorizations_valid():
        for f in homs:
            fac = image_factorization(f)
            yield (None if sys.in_e(fac.e_part) and sys.in_m(fac.m_part)
                   else {"morphism": serialize_morphism(f),
                         "e_part_in_e": sys.in_e(fac.e_part),
                         "m_part_in_m": sys.in_m(fac.m_part)})

    def m_stable_under_pullback():
        """On index pullbacks; the label-level pullback is built only for
        a witness."""
        for m in m_list:
            for g in by_target.get(m.target, ()):
                yield (None if sys.m_table(*_pullback_table(g, m)) else {
                    "m": serialize_morphism(m), "along": serialize_morphism(g),
                    "pulled_back": serialize_morphism(pullback(g, m).p1)})

    def orthogonality():
        """Per pair as `down_arrow_witness`, with the fast path's fills
        built once per e and source of m, not once per pair."""
        injective = [is_injective(m) for m in m_list]
        for e in e_list:
            surjective = is_surjective(e)
            fills: dict[FiniteObject, list] = {}
            for m, m_injective in zip(m_list, injective):
                if not (surjective and m_injective):
                    yield down_arrow_witness(e, m)[1]
                    continue
                if m.source not in fills:
                    fills[m.source] = _unmonotone_fills(e, m.source)
                square = _first_unfilled_square(e, m, fills[m.source])
                yield square and _square_witness(e, m, *square)

    # Completeness: anything outside E must fail orthogonality against some
    # M-member, and dually.  The own factorization parts are tried first
    # because they falsify immediately for the stock systems.
    def e_complete():
        for f in homs:
            if f in e_set:
                continue
            found = any(not down_arrow(f, m)
                        for m in [image_factorization(f).m_part] + m_list)
            yield None if found else {
                "morphism": serialize_morphism(f),
                "reason": "left-orthogonal to all of M but not in E"}

    def m_complete():
        small_first = sorted(e_list, key=lambda e: (e.source.size, e.target.size))
        for g in homs:
            if g in m_set:
                continue
            found = any(not down_arrow(e, g)
                        for e in [image_factorization(g).e_part] + small_first)
            yield None if found else {
                "morphism": serialize_morphism(g),
                "reason": "right-orthogonal to all of E but not in M"}

    return Report(f"factorization[{sys.name}]", (
        CheckResult.of("e_members_are_epi", each(e_list, is_surjective)),
        CheckResult.of("m_members_are_mono", each(m_list, is_injective)),
        CheckResult.of("isos_belong_to_both", each(
            [f for f in homs if is_iso(f)], lambda f: sys.in_e(f) and sys.in_m(f))),
        CheckResult.of("e_cap_m_is_iso",
                       each([f for f in e_list if f in m_set], is_iso)),
        CheckResult.of("e_closed_under_composition",
                       closed_under_composition(e_list, e_set)),
        CheckResult.of("m_closed_under_composition",
                       closed_under_composition(m_list, m_set)),
        CheckResult.of("factorizations_valid", factorizations_valid()),
        CheckResult.of("m_stable_under_pullback", m_stable_under_pullback()),
        CheckResult.of("orthogonality", orthogonality()),
        CheckResult.of("e_complete", e_complete()),
        CheckResult.of("m_complete", m_complete())))
