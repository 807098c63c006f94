"""Orthogonal factorization systems over the finite toolkit.

A system is a pair of morphism classes (E, M) given by membership
predicates.  Every system factorizes a morphism through its set image
(corestriction, then inclusion).  The validator brute-forces every law on
a supplied object pool: class properness,
composition closure, iso behaviour, factorization validity, stability of M
under pullback, the full orthogonality square sweep, and both completeness
directions (E is exactly the class left-orthogonal to M and dually).
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
    enumerate_morphisms,
    inclusion,
    is_injective,
    is_iso,
    is_order_reflecting,
    is_surjective,
    pullback,
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
    """Membership predicates for the two classes.  The factorization of
    every system is the image factorization; the join of two admissible
    subobjects is then the union of their carriers."""

    name: str
    e_member: Callable[[Morphism], bool]
    m_member: Callable[[Morphism], bool]

    def in_e(self, f: Morphism) -> bool:
        return self.e_member(f)

    def in_m(self, f: Morphism) -> bool:
        return self.m_member(f)


def image_factorization(f: Morphism) -> Factorization:
    """Corestriction onto the set image followed by the literal inclusion."""
    mid = f.target.restrict(f.image_labels)
    e = Morphism(f.source, mid, f.mapping)
    m = inclusion(mid, f.target)
    return Factorization(e, m)


def is_embedding(f: Morphism) -> bool:
    """Injective and order-reflecting; plain injectivity when unordered."""
    return is_injective(f) and is_order_reflecting(f)


def down_arrow(e: Morphism, m: Morphism) -> bool:
    """Whether every commuting square v.e = m.u has exactly one diagonal."""
    ok, _ = down_arrow_witness(e, m)
    return ok


def down_arrow_witness(e: Morphism, m: Morphism):
    """down_arrow plus, on failure, the offending square (and diagonal count)."""
    if is_surjective(e) and is_injective(m):
        return _down_arrow_fiberwise(e, m)
    return _down_arrow_exhaustive(e, m)


def _square_witness(e, m, u_mapping, v_mapping, count):
    return {
        "e": serialize_morphism(e),
        "m": serialize_morphism(m),
        "square_u": dict(u_mapping),
        "square_v": dict(v_mapping),
        "diagonals": count,
    }


def _down_arrow_fiberwise(e: Morphism, m: Morphism):
    """Fast path for e surjective, m injective.

    A square with top u exists iff u is constant on e-fibers and the induced
    bottom map is monotone; the diagonal is then the induced map itself, so
    orthogonality fails exactly when that induced map is not monotone.
    Uniqueness is automatic because e is epi.
    """
    a, b = e.source, e.target
    c, d = m.source, m.target
    ordered = b.has_order and c.has_order
    e_idx, m_idx = e.idx, m.idx
    b_ord = b.order_idx if ordered else ()
    c_up = c.up_masks if ordered else ()
    d_up = d.up_masks if d.has_order else ()
    for u in enumerate_morphisms(a, c):
        u_idx = u.idx
        w_tab: list[int | None] = [None] * b.size
        constant = True
        for i, bi in enumerate(e_idx):
            if w_tab[bi] is None:
                w_tab[bi] = u_idx[i]
            elif w_tab[bi] != u_idx[i]:
                constant = False
                break
        if not constant:
            continue
        if ordered:
            v_tab = [m_idx[ci] for ci in w_tab]
            v_monotone = all((d_up[v_tab[i]] >> v_tab[j]) & 1 for (i, j) in b_ord)
            if not v_monotone:
                continue
            w_monotone = all((c_up[w_tab[i]] >> w_tab[j]) & 1 for (i, j) in b_ord)
            if not w_monotone:
                v_mapping = tuple(
                    (b.elements[i], d.elements[v_tab[i]]) for i in range(b.size))
                return False, _square_witness(e, m, u.mapping, v_mapping, 0)
    return True, None


def _down_arrow_exhaustive(e: Morphism, m: Morphism):
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
                return False, _square_witness(e, m, u.mapping, v.mapping, count)
    return True, None


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
        for m in m_list:
            for g in by_target.get(m.target, ()):
                pb = pullback(g, m)
                yield (None if sys.in_m(pb.p1)
                       else {"m": serialize_morphism(m), "along": serialize_morphism(g),
                             "pulled_back": serialize_morphism(pb.p1)})

    def orthogonality():
        for e in e_list:
            for m in m_list:
                yield down_arrow_witness(e, m)[1]

    # Completeness: anything outside E must fail orthogonality against some
    # M-member, and dually.  The own factorization parts are tried first
    # because they falsify immediately for the stock systems.
    def e_complete():
        for f in homs:
            if f in e_set:
                continue
            found = any(not down_arrow_witness(f, m)[0]
                        for m in [image_factorization(f).m_part] + m_list)
            yield None if found else {
                "morphism": serialize_morphism(f),
                "reason": "left-orthogonal to all of M but not in E"}

    def m_complete():
        small_first = sorted(e_list, key=lambda e: (e.source.size, e.target.size))
        for g in homs:
            if g in m_set:
                continue
            found = any(not down_arrow_witness(e, g)[0]
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
