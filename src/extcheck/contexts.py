"""Built-in verification contexts and the extensivity validator.

A context bundles a flavor of finite objects (plain sets, or preorders with
monotone maps), a factorization system, the closure families registered for
that flavor, and a canonical object enumeration up to isomorphism at a given
size bound.  Mutated variants (deliberately broken coproduct order, swapped
factorization classes, split-mono admissibles) feed the self-tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from . import core
from .core import (
    CheckResult,
    Coproduct,
    FiniteObject,
    Morphism,
    Report,
    LEFT_TAG,
    RIGHT_TAG,
    compose,
    copair,
    coproduct,
    embedding_table,
    enumerate_morphisms,
    find_iso,
    initial,
    injective_table,
    is_injective,
    is_iso,
    is_isomorphic,
    product,
    pullback,
    serialize_morphism,
    serialize_object,
    surjective_table,
    terminal,
    transitive_closure,
)
from .closure import ALEXANDROV, IDENTITY, INDISCRETE, ClosureFamily
from .factorization import FactorizationSystem, validate_system
from .subobjects import SubobjectLattice, subobject_lattice


def surjections_injections() -> FactorizationSystem:
    return FactorizationSystem(
        "surjections/injections", surjective_table, injective_table)


def surjections_embeddings() -> FactorizationSystem:
    return FactorizationSystem(
        "surjections/embeddings", surjective_table, embedding_table)


@lru_cache(maxsize=None)
def finset_objects(bound: int) -> tuple[FiniteObject, ...]:
    out = [FiniteObject((), None, name="set0")]
    for k in range(1, bound + 1):
        labels = tuple(f"x{i + 1}" for i in range(k))
        out.append(FiniteObject(labels, None, name=f"set{k}"))
    return tuple(out)


def _transitive_rows(rows: list[int], k: int) -> bool:
    for i in range(k):
        ri = rows[i]
        m = ri
        while m:
            low = m & -m
            if rows[low.bit_length() - 1] & ~ri:
                return False
            m ^= low
    return True


def _iso_signature(ob: FiniteObject) -> tuple:
    down = sorted((bin(d).count("1"), bin(u).count("1"))
                  for d, u in zip(ob.down_masks, ob.up_masks))
    return (len(ob.order), tuple(down))


@lru_cache(maxsize=None)
def preorders_of_size(k: int) -> tuple[FiniteObject, ...]:
    """All preorders on k points, one representative per iso class.

    Candidates are generated as reflexive relation matrices, filtered for
    transitivity row-wise, then deduplicated by invariant signature and
    isomorphism search.
    """
    labels = tuple(f"p{i + 1}" for i in range(k))
    if k == 0:
        return (FiniteObject((), frozenset(), name="pre0_0"),)
    positions = [(i, j) for i in range(k) for j in range(k) if i != j]
    groups: dict[tuple, list[FiniteObject]] = {}
    for bits in range(1 << len(positions)):
        rows = [1 << i for i in range(k)]
        for p, (i, j) in enumerate(positions):
            if (bits >> p) & 1:
                rows[i] |= 1 << j
        if not _transitive_rows(rows, k):
            continue
        pairs = frozenset(
            (labels[i], labels[j]) for i in range(k) for j in range(k)
            if (rows[i] >> j) & 1)
        ob = FiniteObject(labels, pairs)
        sig = _iso_signature(ob)
        bucket = groups.setdefault(sig, [])
        if not any(is_isomorphic(ob, seen) for seen in bucket):
            bucket.append(ob)
    reps = [ob for bucket in groups.values() for ob in bucket]
    reps.sort(key=lambda o: (len(o.order), sorted(o.order)))
    return tuple(FiniteObject(o.elements, o.order, name=f"pre{k}_{i}")
                 for i, o in enumerate(reps))


@lru_cache(maxsize=None)
def finpre_objects(bound: int) -> tuple[FiniteObject, ...]:
    out: list[FiniteObject] = []
    for k in range(bound + 1):
        out.extend(preorders_of_size(k))
    return tuple(out)


@dataclass(eq=False)
class Context:
    """One verification universe: flavor, system, closure families, pool."""

    name: str
    ordered: bool
    system: FactorizationSystem
    families: tuple[ClosureFamily, ...]
    enumerate_objects: Callable[[int], tuple[FiniteObject, ...]]
    extra_objects: tuple[FiniteObject, ...] = ()
    coproduct_fn: Callable[[FiniteObject, FiniteObject], Coproduct] = coproduct
    _coproducts: dict = field(default_factory=dict, repr=False)
    _lattices: dict = field(default_factory=dict, repr=False)

    def objects(self, bound: int) -> tuple[FiniteObject, ...]:
        pool = list(self.enumerate_objects(bound))
        for extra in self.extra_objects:
            if extra.has_order != self.ordered:
                raise ValueError(f"object {extra.label} has the wrong flavor")
            if not any(is_isomorphic(extra, ob) for ob in pool):
                pool.append(extra)
        return tuple(pool)

    def hom(self, x: FiniteObject, y: FiniteObject) -> tuple[Morphism, ...]:
        return enumerate_morphisms(x, y)

    def coproduct(self, x: FiniteObject, y: FiniteObject) -> Coproduct:
        key = (x, y)
        if key not in self._coproducts:
            self._coproducts[key] = self.coproduct_fn(x, y)
        return self._coproducts[key]

    def sub_lattice(self, x: FiniteObject) -> SubobjectLattice:
        if x not in self._lattices:
            self._lattices[x] = subobject_lattice(self.system, x)
        return self._lattices[x]

    def family(self, name: str) -> ClosureFamily:
        for fam in self.families:
            if fam.name == name:
                return fam
        raise KeyError(f"closure family {name} not registered for {self.name}")

    def with_extra_objects(self, extras: Sequence[FiniteObject]) -> "Context":
        return Context(self.name, self.ordered, self.system, self.families,
                       self.enumerate_objects, tuple(extras), self.coproduct_fn)

    def validate_factorization(self, bound: int) -> Report:
        return validate_system(self.system, self.objects(bound))

    def validate_extensive(self, bound: int) -> Report:
        return validate_extensive(self, bound)


def builtin(name: str) -> Context:
    if name == "finset":
        return Context("finset", False, surjections_injections(),
                       (IDENTITY, INDISCRETE), finset_objects)
    if name == "finpre":
        return Context("finpre", True, surjections_embeddings(),
                       (ALEXANDROV, IDENTITY, INDISCRETE), finpre_objects)
    raise KeyError(f"unknown context: {name}")


BUILTIN_CONTEXTS = ("finset", "finpre")


def swapped_system_context(base: Context) -> Context:
    """Self-test mutant: the two classes exchanged."""
    sys = base.system
    swapped = FactorizationSystem(f"{sys.name}|swapped", sys.m_table, sys.e_table)
    return Context(f"{base.name}!swapped", base.ordered, swapped, base.families,
                   base.enumerate_objects, base.extra_objects, base.coproduct_fn)


def crossed_coproduct_context(base: Context) -> Context:
    """Self-test mutant: coproduct order polluted with one cross pair."""
    assert base.ordered, "the cross-pair mutant needs the ordered flavor"

    def crossed(x: FiniteObject, y: FiniteObject) -> Coproduct:
        cp = core.coproduct(x, y)
        if x.size == 0 or y.size == 0:
            return cp
        extra = (LEFT_TAG + x.elements[0], RIGHT_TAG + y.elements[0])
        order = transitive_closure(set(cp.ob.order) | {extra})
        ob = FiniteObject(cp.ob.elements, order, name=cp.ob.name + "!")
        inl = Morphism(x, ob, cp.inl.mapping)
        inr = Morphism(y, ob, cp.inr.mapping)
        return Coproduct(ob, inl, inr)

    return Context(f"{base.name}!crossed", base.ordered, base.system, base.families,
                   base.enumerate_objects, base.extra_objects, crossed)


def split_mono_context(base: Context) -> Context:
    """Self-test mutant: admissibles narrowed to split monomorphisms."""

    def has_retraction(idx, src_up, n, tgt_up) -> bool:
        """Injective, with a monotone r on the target such that r[idx[i]]
        is i; none lands in an empty source from a non-empty target."""
        if not injective_table(idx, src_up, n, tgt_up):
            return False
        free = [t for t in range(n) if t not in idx]
        below = [] if tgt_up is None else [
            (t, u) for t in range(n) for u in range(n) if tgt_up[t] >> u & 1]
        r = dict(zip(idx, range(len(idx))))
        for values in itertools.product(range(len(idx)), repeat=len(free)):
            r.update(zip(free, values))
            if all(src_up[r[t]] >> r[u] & 1 for t, u in below):
                return True
        return False

    sys = FactorizationSystem(
        f"{base.system.name}|split", base.system.e_table, has_retraction)
    return Context(f"{base.name}!split", base.ordered, sys, base.families,
                   base.enumerate_objects, base.extra_objects, base.coproduct_fn)


def _pullback_stability_literal(ctx: Context, cp: Coproduct, f: Morphism):
    """One instance of pullback stability, built label-level: the comparison
    out of the coproduct of the two injection pullbacks of `f` must be an
    isomorphism commuting with everything.  None when it is, the witness
    when it is not."""
    pb_l = pullback(f, cp.inl)
    pb_r = pullback(f, cp.inr)
    mid = ctx.coproduct(pb_l.ob, pb_r.ob)
    try:
        comparison = copair(pb_l.p1, pb_r.p1, mid.ob)
        into_sum = copair(compose(cp.inl, pb_l.p2),
                          compose(cp.inr, pb_r.p2), mid.ob)
    except ValueError as err:
        return {"f": serialize_morphism(f), "error": str(err)}
    return (None if is_iso(comparison) and compose(f, comparison) == into_sum
            else {"f": serialize_morphism(f),
                  "comparison": serialize_morphism(comparison)})


def _legs_over(legs, n: int) -> list[list[tuple[int, int]]]:
    """Per point of the legs' common n-point target, the (leg number, b)
    of every leg point b over it.  `legs` holds, per injection, its index
    table and its source's up-masks (None unordered)."""
    over: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (leg, _) in enumerate(legs):
        for b, t in enumerate(leg):
            over[t].append((k, b))
    return over


def _comparison_is_iso(f_idx, legs, over, z_up, z_pairs: int) -> bool:
    """Index certificate of one pullback-stability instance.

    The two pullbacks of `f_idx` along `legs` are the pairs (a, b) with
    f_idx[a] == leg[b], read off `over = _legs_over(legs, ...)`.  Their
    plain disjoint sum maps onto z by a, and that comparison is an
    isomorphism iff every a occurs exactly once and, ordered, the
    componentwise order pairs number len(z.order) (`z_pairs`).
    """
    hits = []
    for t in f_idx:
        if len(over[t]) != 1:
            return False
        hits.append(over[t][0])
    if z_up is None:
        return True
    pairs = 0
    for a1, (k1, b1) in enumerate(hits):
        up = legs[k1][1]
        for a2, (k2, b2) in enumerate(hits):
            if k1 == k2 and (z_up[a1] >> a2) & 1 and (up[b1] >> b2) & 1:
                pairs += 1
    return pairs == z_pairs


def validate_extensive(ctx: Context, bound: int) -> Report:
    """Brute-force the extensivity laws over the object pool.

    Pullback stability takes, for every map f into a constructed coproduct,
    the comparison out of the coproduct of the two injection pullbacks.
    Each instance is first decided on index tables (`_comparison_is_iso`),
    which is sound only when that middle coproduct is the plain disjoint sum,
    so it is guarded on `ctx.coproduct_fn` being `core.coproduct`.  An
    instance whose certificate fails, or any instance when the guard is off
    (the crossed mutant), runs the literal label-level construction, which
    also builds the witness.  Coproduct disjointness compares the image
    masks of the two injections.  Each swept law is a generator of
    outcomes, one per instance: None when it holds, the witness when it
    fails.
    """
    pool = ctx.objects(bound)
    pairs = [(x, y) for x in pool for y in pool]
    zero = initial(ctx.ordered)
    one = terminal(ctx.ordered)

    def initial_strict():
        for x in pool:
            if len(ctx.hom(zero, x)) != 1:
                yield {"object": serialize_object(x), "reason": "no unique map from 0"}
            elif x.size and len(ctx.hom(x, zero)) != 0:
                yield {"object": serialize_object(x), "reason": "map into 0 exists"}
            else:
                yield None

    def injections_admissible_disjoint_jointly_epic():
        for x, y in pairs:
            cp = ctx.coproduct(x, y)
            inl_img = set(v for (_, v) in cp.inl.mapping)
            inr_img = set(v for (_, v) in cp.inr.mapping)
            good = (is_injective(cp.inl) and is_injective(cp.inr)
                    and ctx.system.in_m(cp.inl) and ctx.system.in_m(cp.inr)
                    and not (inl_img & inr_img)
                    and inl_img | inr_img == set(cp.ob.elements))
            yield None if good else {"x": serialize_object(x), "y": serialize_object(y)}

    def coproduct_disjoint():
        for x, y in pairs:
            cp = ctx.coproduct(x, y)
            overlap = (cp.inl.image_mask((1 << x.size) - 1)
                       & cp.inr.image_mask((1 << y.size) - 1))
            yield (None if not overlap
                   else {"x": serialize_object(x), "y": serialize_object(y)})

    def coproducts_pullback_stable():
        indexed = ctx.coproduct_fn is coproduct
        for x, y in pairs:
            cp = ctx.coproduct(x, y)
            legs = ((cp.inl.idx, x.up_masks if x.has_order else None),
                    (cp.inr.idx, y.up_masks if y.has_order else None))
            over = _legs_over(legs, cp.ob.size)
            for z in pool:
                z_up, z_pairs = (z.up_masks, len(z.order)) if z.has_order else (None, 0)
                for f in ctx.hom(z, cp.ob):
                    held = indexed and _comparison_is_iso(
                        f.idx, legs, over, z_up, z_pairs)
                    yield None if held else _pullback_stability_literal(ctx, cp, f)

    def distributivity_two_by_x():
        two = ctx.coproduct(one, one)
        for x in pool:
            lhs = product(two.ob, x).ob
            rhs = ctx.coproduct(x, x).ob
            yield (None if find_iso(lhs, rhs) is not None
                   else {"x": serialize_object(x), "lhs": serialize_object(lhs),
                         "rhs": serialize_object(rhs)})

    def morphisms_reflect_zero():
        for x, y in pairs:
            for f in ctx.hom(x, y):
                yield None if f.preimage_mask(0) == 0 else {"f": serialize_morphism(f)}

    zero_to_one = Morphism(zero, one, ())
    return Report(f"extensive[{ctx.name}]", (
        CheckResult.of("initial_strict", initial_strict()),
        CheckResult.of("injections_admissible_disjoint_jointly_epic",
                       injections_admissible_disjoint_jointly_epic()),
        CheckResult.of("coproduct_disjoint", coproduct_disjoint()),
        CheckResult.of("coproducts_pullback_stable", coproducts_pullback_stable()),
        CheckResult.of("distributivity_two_by_x", distributivity_two_by_x()),
        CheckResult("zero_embedding_admissible", ctx.system.in_m(zero_to_one), 1),
        CheckResult.of("morphisms_reflect_zero", morphisms_reflect_zero())))
