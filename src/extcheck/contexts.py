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
from operator import mul
from typing import Callable, NamedTuple, Sequence

from . import core
from .core import (
    CheckResult,
    Coproduct,
    FiniteObject,
    Morphism,
    Report,
    LEFT_TAG,
    RIGHT_TAG,
    clopen_splits,
    _monotone_maps,
    compose,
    copair,
    coproduct,
    count_monotone,
    embedding_table,
    initial,
    injective_table,
    is_iso,
    is_isomorphic,
    monotone_table,
    morphism_of,
    order_reflecting_table,
    pair_label,
    points,
    preimage_bits,
    product,
    pullback,
    pullback_object,
    restrict_masks,
    serialize_morphism,
    serialize_object,
    surjective_table,
    terminal,
    transitive_closure,
    up_masks_or_none,
)
from .closure import ALEXANDROV, IDENTITY, INDISCRETE, ClosureFamily, MaskFn
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


class ClosureSplit(NamedTuple):
    """A family's singleton closure table of the context's x + y, cut at
    |x| (x's points come first): `lows` the left parts of the left points'
    rows, `highs` the right parts, shifted down, of the right points', each
    then c(empty)'s; `crossed` the other parts, all empty when `diagonal`.
    `low` and `high` number `lows` and `highs` in the context."""

    low: int
    lows: tuple[int, ...]
    high: int
    highs: tuple[int, ...]
    crossed: tuple[tuple[int, ...], tuple[int, ...]]
    diagonal: bool


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
    _homs: dict = field(default_factory=dict, repr=False)
    _closures: dict = field(default_factory=dict, repr=False)
    _splits: dict = field(default_factory=dict, repr=False)
    _halves: dict = field(default_factory=dict, repr=False)
    _plain_sums: dict = field(default_factory=dict, repr=False)

    def objects(self, bound: int) -> tuple[FiniteObject, ...]:
        pool = list(self.enumerate_objects(bound))
        for extra in self.extra_objects:
            if extra.has_order != self.ordered:
                raise ValueError(f"object {extra.label} has the wrong flavor")
            if not any(is_isomorphic(extra, ob) for ob in pool):
                pool.append(extra)
        return tuple(pool)

    def hom_tables(self, x: FiniteObject, y: FiniteObject) -> tuple[tuple, ...]:
        """hom(x, y) as index tables in enumeration order, enumerated once
        per context and kept with the two objects that first asked."""
        if (x, y) not in self._homs:
            self._homs[x, y] = (x, y, tuple(_monotone_maps(x, y, False)))
        return self._homs[x, y][2]

    def morphism(self, x: FiniteObject, y: FiniteObject, idx) -> Morphism:
        """The map of hom(x, y) with index table `idx`, for a witness:
        between the objects that first asked for hom(x, y)."""
        return morphism_of(*self._homs[x, y][:2], idx)

    def coproduct(self, x: FiniteObject, y: FiniteObject) -> Coproduct:
        key = (x, y)
        if key not in self._coproducts:
            self._coproducts[key] = self.coproduct_fn(x, y)
        return self._coproducts[key]

    def sub_lattice(self, x: FiniteObject) -> SubobjectLattice:
        if x not in self._lattices:
            self._lattices[x] = subobject_lattice(self.system, x)
        return self._lattices[x]

    def plain_sum_lattice(self, x: FiniteObject, y: FiniteObject) -> SubobjectLattice:
        """The lattice of the plain constructed sum x + y, in which a | b << |x|
        is exactly when the sum of admissible a and b is admissible."""
        if (x, y) not in self._plain_sums:
            plain = self.coproduct if self.coproduct_fn is coproduct else coproduct
            self._plain_sums[x, y] = self.sub_lattice(plain(x, y).ob)
        return self._plain_sums[x, y]

    def closure(self, family: ClosureFamily, ob: FiniteObject) -> MaskFn:
        fn = self._closures.get((family, ob))
        if fn is None:
            fn = self._closures[family, ob] = family.component(ob)
        return fn

    def sum_closures(self, x: FiniteObject, y: FiniteObject,
                     family: ClosureFamily) -> tuple[MaskFn, MaskFn, MaskFn]:
        """The family's closures of x, y and the context's x + y."""
        return (self.closure(family, x), self.closure(family, y),
                self.closure(family, self.coproduct(x, y).ob))

    def closure_split(self, x: FiniteObject, y: FiniteObject,
                      family: ClosureFamily) -> ClosureSplit:
        split = self._splits.get((x, y, family))
        if split is None:
            fsum = self.closure(family, self.coproduct(x, y).ob)
            nx, low = x.size, (1 << x.size) - 1
            rows = [fsum(1 << i) for i in range(nx + y.size)]
            left, right, empty = rows[:nx], rows[nx:], fsum(0)
            crossed = tuple([r >> nx for r in left]), tuple([r & low for r in right])
            lows = (*[r & low for r in left], empty & low)
            highs = (*[r >> nx for r in right], empty >> nx)
            number = self._halves.setdefault
            split = self._splits[x, y, family] = ClosureSplit(
                number(lows, len(self._halves)), lows,
                number(highs, len(self._halves)), highs,
                crossed, not any(crossed[0] + crossed[1]))
        return split

    def family(self, name: str) -> ClosureFamily:
        for fam in self.families:
            if fam.name == name:
                return fam
        raise KeyError(f"closure family {name} not registered for {self.name}")

    def with_extra_objects(self, extras: Sequence[FiniteObject]) -> "Context":
        return Context(self.name, self.ordered, self.system, self.families,
                       self.enumerate_objects, tuple(extras), self.coproduct_fn)

    def validate_factorization(self, bound: int) -> Report:
        return validate_system(self.system, self.objects(bound), self)

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
        return Coproduct(ob, Morphism(x, ob, cp.inl.mapping),
                         Morphism(y, ob, cp.inr.mapping))

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


def _pullback_stability_tables(ctx: Context, cp: Coproduct, z: FiniteObject):
    """Per map f: z -> x + y, in `ctx.hom_tables` order, the outcome of
    `_pullback_stability_literal`, decided on index tables (the legs of
    every context's coproduct land in its object).  The pullback of f along
    a leg is the object on the pairs (a, b) with f(a) = leg(b), which
    depend on f only through the leg's fibre over each f(a); it is built
    once per such key, as the object `pullback(f, leg).ob` is, name
    included, since the middle sum comes from the context's coproduct.
    The instance holds when the middle sum's points are exactly the tagged
    labels of the two pullbacks (each block in label order, as "L:" sorts
    before "R:"), and, over them, the comparison (a tagged (a, b) to a) is
    monotone, bijective and order-reflecting and the into-sum table (to
    leg(b)) is monotone and equals f after the comparison.  A failing f is
    re-run label-level, which builds its witness."""
    sum_ob = cp.ob
    z_up, sum_up = up_masks_or_none(z), up_masks_or_none(sum_ob)
    everything = list(range(z.size))
    legs = []
    for tag, leg in ((LEFT_TAG, cp.inl), (RIGHT_TAG, cp.inr)):
        fibres = [0] * sum_ob.size
        for b, t in enumerate(leg.idx):
            fibres[t] |= 1 << b
        legs.append((tag, leg.source, leg.idx, fibres, {}))

    def along(tag, src, leg_idx, fibres, built, f_idx):
        """The pullback along one leg: its object, its tagged labels, and
        per point, in label order, a and leg(b)."""
        key = tuple(map(fibres.__getitem__, f_idx))
        part = built.get(key)
        if part is None:
            pairs = [(a, b) for a, mask in enumerate(key) for b in points(mask)]
            ob = pullback_object(z, src, pairs)
            at = {pair_label(z.elements[a], src.elements[b]): (a, leg_idx[b])
                  for a, b in pairs}
            over = [at[label] for label in ob.elements]
            part = built[key] = (ob, tuple(tag + label for label in ob.elements),
                                 [a for a, _ in over], [t for _, t in over])
        return part

    for f_idx in ctx.hom_tables(z, sum_ob):
        ob_l, tags_l, comp_l, into_l = along(*legs[0], f_idx)
        ob_r, tags_r, comp_r, into_r = along(*legs[1], f_idx)
        mid = ctx.coproduct(ob_l, ob_r).ob
        mid_up = up_masks_or_none(mid)
        comparison, into_sum = comp_l + comp_r, into_l + into_r
        holds = (mid.elements == tags_l + tags_r
                 and sorted(comparison) == everything
                 and monotone_table(comparison, mid_up, z_up)
                 and order_reflecting_table(comparison, mid_up, z_up)
                 and monotone_table(into_sum, mid_up, sum_up)
                 and all(f_idx[a] == t for a, t in zip(comparison, into_sum)))
        yield None if holds else _pullback_stability_literal(
            ctx, cp, ctx.morphism(z, sum_ob, f_idx))


def injections_in_m(sys: FactorizationSystem, cp: Coproduct) -> bool:
    """Whether both legs of `cp` are in M, decided on their index tables."""
    up = up_masks_or_none(cp.ob)
    return all(sys.m_table(leg.idx, up_masks_or_none(leg.source), cp.ob.size, up)
               for leg in (cp.inl, cp.inr))


@lru_cache(maxsize=None)
def _split_counts(z_up: tuple[int, ...], tgt_up: tuple[int, ...]) -> tuple[int, ...]:
    """Per clopen split P of the preorder with up-masks `z_up`, in
    `core.clopen_splits`' order, the number of monotone maps z|P -> t,
    where t has the up-masks `tgt_up`."""
    return tuple(count_monotone(restrict_masks(z_up, points(p)), len(tgt_up), tgt_up)
                 for p in clopen_splits(z_up))


def _sum_hom_count(z: FiniteObject, x: FiniteObject, y: FiniteObject) -> int:
    """|hom(z, x + y)| into the block sum: the sum over the clopen splits P
    of z of |hom(z|P, x)| * |hom(z|P^c, y)|, or (|x| + |y|)^|z| unordered,
    where every subset of z is a split."""
    if not z.has_order:
        return (x.size + y.size) ** z.size
    # The splits are ascending and closed under complement, so the
    # complement of the i-th split is the i-th from the end.
    return sum(map(mul, _split_counts(z.up_masks, x.up_masks),
                   reversed(_split_counts(z.up_masks, y.up_masks))))


def validate_extensive(ctx: Context, bound: int) -> Report:
    """Brute-force the extensivity laws over the object pool.

    Pullback stability takes, for every map f: z -> x + y into a constructed
    coproduct, the comparison out of the coproduct of the two injection
    pullbacks of f, which must be an isomorphism commuting with everything.
    It is decided once per sum when the context's coproduct is
    `core.coproduct`, which the literal law builds the middle sum with too,
    and which builds block sums (`tests/oracles.py::is_block_sum`).  Every
    f into one passes: each point of the sum has a single leg point over
    it, and each order pair of z maps into one block, onto an order pair of
    that block's summand.  So the pair (x, y) yields, per z, one run of
    |hom(z, x + y)| instances, counted as the clopen splits P of z with one
    map z|P -> x and one z|P^c -> y (`_sum_hom_count`).  Any other
    coproduct (the crossed mutant's) decides each f on index tables
    (`_pullback_stability_tables`), and runs the literal label-level
    construction only for a failing f, which builds the witness.  Coproduct
    disjointness compares the image masks of the two injections.  Each
    swept law is a generator of outcomes: None when one instance holds, an
    `int` k for a run of k that hold, the witness when one fails.
    """
    pool = ctx.objects(bound)
    pairs = [(x, y) for x in pool for y in pool]
    zero = initial(ctx.ordered)
    one = terminal(ctx.ordered)

    def initial_strict():
        for x in pool:
            if len(ctx.hom_tables(zero, x)) != 1:
                yield {"object": serialize_object(x), "reason": "no unique map from 0"}
            elif x.size and len(ctx.hom_tables(x, zero)) != 0:
                yield {"object": serialize_object(x), "reason": "map into 0 exists"}
            else:
                yield None

    def injections_admissible_disjoint_jointly_epic():
        for x, y in pairs:
            cp = ctx.coproduct(x, y)
            # Injective, disjoint and jointly onto: each point hit once.
            good = (sorted(cp.inl.idx + cp.inr.idx) == list(range(cp.ob.size))
                    and injections_in_m(ctx.system, cp))
            yield None if good else {"x": serialize_object(x), "y": serialize_object(y)}

    def coproduct_disjoint():
        for x, y in pairs:
            cp = ctx.coproduct(x, y)
            overlap = (cp.inl.image_mask((1 << x.size) - 1)
                       & cp.inr.image_mask((1 << y.size) - 1))
            yield (None if not overlap
                   else {"x": serialize_object(x), "y": serialize_object(y)})

    def coproducts_pullback_stable():
        plain = ctx.coproduct_fn is coproduct
        for x, y in pairs:
            for z in pool:
                if plain:
                    yield _sum_hom_count(z, x, y)
                else:
                    yield from _pullback_stability_tables(ctx, ctx.coproduct(x, y), z)

    def distributivity_two_by_x():
        two = ctx.coproduct(one, one)
        for x in pool:
            lhs = product(two.ob, x).ob
            rhs = ctx.coproduct(x, x).ob
            yield (None if is_isomorphic(lhs, rhs)
                   else {"x": serialize_object(x), "lhs": serialize_object(lhs),
                         "rhs": serialize_object(rhs)})

    def morphisms_reflect_zero():
        for x, y in pairs:
            for f in ctx.hom_tables(x, y):
                yield (None if preimage_bits(0, f) == 0
                       else {"f": serialize_morphism(ctx.morphism(x, y, f))})

    return Report(f"extensive[{ctx.name}]", (
        CheckResult.of("initial_strict", initial_strict()),
        CheckResult.of("injections_admissible_disjoint_jointly_epic",
                       injections_admissible_disjoint_jointly_epic()),
        CheckResult.of("coproduct_disjoint", coproduct_disjoint()),
        CheckResult.of("coproducts_pullback_stable", coproducts_pullback_stable()),
        CheckResult.of("distributivity_two_by_x", distributivity_two_by_x()),
        CheckResult("zero_embedding_admissible", ctx.system.m_table(
            (), up_masks_or_none(zero), 1, up_masks_or_none(one)), 1),
        CheckResult.of("morphisms_reflect_zero", morphisms_reflect_zero())))
