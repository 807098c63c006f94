"""Brute-force checkers for the structural theorems about finite sums.

Every checker quantifies exhaustively over the context's object pool at a
bound, evaluates each side of its statement separately, and reports a
Verdict: named condition truth values, whether they all agree, at least one
witness (the first counterexample, or a confirming instance when everything
agrees), and instance counts.  A checker whose statement assumes an earlier
one reports hypothesis-failed instead when `run_checker` finds one of its
`GATES` failing in the given universe.

Each side is a generator of outcomes in enumeration order: None for one
instance that holds, an `int` k for a run of k instances that all hold, a
witness for one instance that fails.  `core.first_counterexample`, the
kernel the validators share, runs a side to its first witness, so a side's
count is the number of instances enumerated up to and including its first
counterexample, a run of k counting k.  A side whose first instance is
also its confirming witness yields every instance as (holds, *values)
instead; `_failures` turns those into outcomes.
Subobjects are masks and maps are index tables of the context's hom store
(`Context.hom_tables`), each built with labels only for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, product
from operator import or_
from typing import Sequence

from .closure import (
    IDENTITY,
    ClosureFamily,
    _closed_fast,
    # Not called here: bound so that perfbench/tracer.py can wrap it for
    # the metric closure.continuous_fast.calls.
    _continuous_fast,
    proper_witness,
    separated_witness,
)
from .core import (
    FiniteObject,
    Morphism,
    count_instances,
    down_or_discrete,
    first_counterexample,
    image_bits,
    image_parts,
    initial,
    monotone_bijections,
    monotone_table,
    morphism_of,
    points,
    restrict_masks,
    serialize_morphism,
    serialize_object,
    terminal,
)
from .contexts import Context, injections_in_m
from .subobjects import (
    adjunction_outcomes,
    check_adjunction_admissible,
    serialize_subobject,
    subobject_from_mask,
    sum_subobjects,
)

# Only biproduct reads `semilattice`: its sides import it in their bodies as
# `from .semilattice import f` (the form perfbench/tracer.py wraps).

THEOREM_IDS = ("A", "B", "C", "D", "E", "F", "G", "H",
               "adjunctions", "biproduct", "validate")

FAMILY_FREE = {"A", "E", "validate"}


@dataclass(frozen=True)
class Verdict:
    theorem: str
    context: str
    family: str | None
    bound: int
    sides: tuple[tuple[str, bool], ...]
    equivalence_ok: bool | None
    status: str
    hypothesis: str | None
    passed: bool
    witnesses: tuple[dict, ...]
    counts: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "context": self.context,
            "family": self.family,
            "bound": self.bound,
            "sides": [[name, value] for name, value in self.sides],
            "equivalence_ok": self.equivalence_ok,
            "status": self.status,
            "hypothesis": self.hypothesis,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
            "counts": {name: n for name, n in self.counts},
        }


def _verdict(theorem: str, ctx: Context, family, bound: int, sides,
             equivalence_ok: bool | None = None, passed: bool | None = None,
             confirming: dict | None = None) -> Verdict:
    """A checked verdict from (side name, count name or None, (ok, witness,
    count)) triples.  A witness is a counterexample of a false side or a
    confirming instance of a true one, tagged with its side when there are
    several; `confirming` is reported, untagged, only if no side has one.
    `passed` defaults to `equivalence_ok` if given, else to all sides."""
    tagged = len(sides) > 1
    wits = tuple(dict(w, **({"side": name} if tagged else {}),
                      kind="confirming" if ok else "counterexample")
                 for name, _, (ok, w, _) in sides if w)
    if not wits and confirming:
        wits = (dict(confirming, kind="confirming"),)
    named = tuple((name, ok) for name, _, (ok, _, _) in sides)
    if passed is None:
        passed = (all(ok for _, ok in named) if equivalence_ok is None
                  else equivalence_ok)
    return Verdict(theorem, ctx.name, family.name if family else None, bound, named,
                   equivalence_ok, "ok", None, passed, wits,
                   tuple((cname, n) for _, cname, (_, _, n) in sides if cname))


def _memoized(memo, key, compute):
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _failures(instances):
    """Outcomes of instances given as (holds, *values): None for one that
    holds, its values for one that fails."""
    return (None if inst[0] else inst[1:] for inst in instances)


def _confirmed(instances):
    """`first_counterexample` over an iterator of instances given as
    (holds, *values), with the values of the first instance that fails or,
    when every one holds, of the first instance.  It stops at that failure,
    leaving the instances after it in `instances`."""
    first = next(instances, None)
    ok, failed, n = first_counterexample(_failures(
        chain((first,) if first else (), instances)))
    return ok, failed or (first and first[1:]), n


def _object_pairs(pool: Sequence[FiniteObject]):
    return product(pool, repeat=2)


def _maps_witness(f: Morphism, g: Morphism, **more) -> dict:
    return {"f": serialize_morphism(f), "g": serialize_morphism(g), **more}


def _witness(x: FiniteObject, y: FiniteObject, a=None, b=None, **more) -> dict:
    """The object pair of an instance, its subobject pair if given, and
    `more`."""
    wit = {"x": serialize_object(x), "y": serialize_object(y)}
    if a is not None:
        wit.update(a=serialize_subobject(a), b=serialize_subobject(b))
    wit.update(more)
    return wit


def _subobject(ctx: Context, x: FiniteObject, mask: int):
    """An admissible mask of x as a subobject of its lattice's ambient.  The
    lattice cache ignores names, so the ambient may carry the name of
    another, equal object; a witness shows that name."""
    return subobject_from_mask(ctx.sub_lattice(x).ambient, mask)


def _pair_witness(ctx: Context, x, y, a: int, b: int, **more) -> dict:
    """`_witness` of admissible masks a of x and b of y."""
    return _witness(x, y, _subobject(ctx, x, a), _subobject(ctx, y, b), **more)


def _sum_described(ctx: Context, x, y, a: int, b: int, **more) -> dict:
    """`_pair_witness` of a and b with their sum a + b, then `more`."""
    sa, sb = _subobject(ctx, x, a), _subobject(ctx, y, b)
    return _witness(x, y, sa, sb, sum=serialize_subobject(sum_subobjects(sa, sb)),
                    **more)


# ---------------------------------------------------------------- checker A
#
# Under the identity closure every admissible subobject is closed and every
# map is continuous and closed, so A's sides are the identity instances of
# B's condition (a) and of F's side; both are memoized per family.

def _e_monos_between_sums(ctx: Context, pool, family: ClosureFamily):
    """Yield (e, src, tgt, (x, y)) for every continuous and closed member e
    of E cap Mono, an index table, from a constructed binary sum src at the
    bound to tgt = x + y: the monotone bijections in E, since E-members are
    epi and only carrier-size-matched sums can carry one.  A closed map is
    continuous (see `_continuous_morphisms`), so e is kept by closedness."""
    sys = ctx.system
    by_total: dict[int, list] = {}
    for x, y in _object_pairs(pool):
        by_total.setdefault(x.size + y.size, []).append((x, y))
    for total in sorted(by_total):
        pairs = by_total[total]
        for (a, b) in pairs:
            src = ctx.coproduct(a, b).ob
            f_src, src_up = ctx.closure(family, src), src.up_masks
            for (x, y) in pairs:
                tgt = ctx.coproduct(x, y).ob
                f_tgt, tgt_up = ctx.closure(family, tgt), tgt.up_masks
                for e in monotone_bijections(src, tgt):
                    if (sys.e_table(e, src_up, total, tgt_up)
                            and _closed_fast(e, f_src, f_tgt, total)):
                        yield e, src, tgt, (x, y)


def _failed_pullback(ctx: Context, family: ClosureFamily, e, src, x, y):
    """The first pullback of the bijection e (an index table out of src)
    along an injection that is not a closed E-member under `family`, built
    as a map into its summand; or None.  The pullback along a summand's
    injection is the slice of e over that summand's block of the target
    sum, with the order src induces on it, decided on index tables."""
    for component, low in ((x, 0), (y, x.size)):
        pts = [i for i, t in enumerate(e) if low <= t < low + component.size]
        idx = tuple(e[i] - low for i in pts)
        up = restrict_masks(src.up_masks, pts) if src.has_order else None
        down = restrict_masks(src.down_masks, pts) if src.has_order else ()
        if not (ctx.system.e_table(idx, up, component.size, component.up_masks)
                and _closed_fast(idx, family.fn_for(len(idx), down),
                                 ctx.closure(family, component), len(idx))):
            return morphism_of(src.restrict([src.elements[i] for i in pts]),
                               component, idx)
    return None


def _injection_pullback_side(ctx: Context, family: ClosureFamily, bound: int,
                             memo):
    """F's side, with its witness, memoized per family: A's second side is
    the identity entry."""
    def compute():
        def instances():
            for e, src, tgt, (x, y) in _e_monos_between_sums(
                    ctx, ctx.objects(bound), family):
                bad = _failed_pullback(ctx, family, e, src, x, y)
                yield bad is None, e, src, tgt, bad

        def describe(e, src, tgt, bad):
            wit = {"e": serialize_morphism(morphism_of(src, tgt, e))}
            return (wit if bad is None
                    else dict(wit, pulled_back=serialize_morphism(bad)))

        ok, values, n = _confirmed(instances())
        return ok, values and describe(*values), n
    return _memoized(memo, ("pullback_side", family.name, bound), compute)


def check_sum_admissible(ctx: Context, family, bound: int, memo) -> Verdict:
    """Sums of admissible subobjects are admissible, and members of E cap
    Mono between binary sums pull back along the injections into E cap Mono."""
    ok, values, n, _ = _closed_sum_side(ctx, IDENTITY, bound, memo)
    sums = ok, values and _sum_described(ctx, *values[:4]), n
    pullbacks = _injection_pullback_side(ctx, IDENTITY, bound, memo)
    return _verdict("A", ctx, None, bound, (
        ("sums_of_admissibles_admissible", "subobject_pairs", sums),
        ("e_monos_pull_back_along_injections", "e_monos", pullbacks)),
        equivalence_ok=sums[0] == pullbacks[0])


# ---------------------------------------------------------------- checker B
#
# B counts every instance of each condition, so it finishes each side after
# its first failure; the sides yield the values a witness shows, and only
# the first failure is described.

def _closed_sum_outcomes(ctx: Context, pool, family: ClosureFamily):
    """Condition (a), per closed admissible a of x and b of y, as masks:
    (whether a + b is admissible and closed, x, y, a, b, whether it is
    admissible, its closure in the context's x + y)."""
    for x, y in _object_pairs(pool):
        fx, fy, fsum = ctx.sum_closures(x, y, family)
        sums = ctx.plain_sum_lattice(x, y).members
        nx = x.size
        closed_x = [a for a in ctx.sub_lattice(x) if fx(a) == a]
        closed_y = [b for b in ctx.sub_lattice(y) if fy(b) == b]
        for a in closed_x:
            for b in closed_y:
                mask = a | b << nx
                adm = mask in sums
                closure = fsum(mask)
                yield adm and closure == mask, x, y, a, b, adm, closure


def _closed_sum_side(ctx: Context, family: ClosureFamily, bound: int, memo):
    """Condition (a) as `_confirmed` gives it, then the count of all its
    instances, memoized per family.  B reads the entry whole; A's first
    side is the identity entry, and the gates CLOSED_SUMS and
    SUMS_ADMISSIBLE read an entry's first failure."""
    def compute():
        instances = _closed_sum_outcomes(ctx, ctx.objects(bound), family)
        ok, values, n = _confirmed(instances)
        return ok, values, n, n + count_instances(instances)
    return _memoized(memo, ("closed_sums", family.name, bound), compute)


def _admissible_sum_outcomes(ctx: Context, pool, family: ClosureFamily):
    """Condition (b), per admissible a of x and b of y: None when a + b is
    admissible and both injections are closed embeddings, else
    (x, y, a, b, sum admissible, injections closed embeddings)."""
    for x, y in _object_pairs(pool):
        cp = ctx.coproduct(x, y)
        fsum = ctx.closure(family, cp.ob)
        sums = ctx.plain_sum_lattice(x, y).members
        nx = x.size
        low, high = (1 << nx) - 1, ((1 << cp.ob.size) - 1) >> nx << nx
        inj_ok = (injections_in_m(ctx.system, cp)
                  and fsum(low) == low and fsum(high) == high)
        lat_y = ctx.sub_lattice(y)
        for a in ctx.sub_lattice(x):
            for b in lat_y:
                adm = (a | b << nx) in sums
                yield None if adm and inj_ok else (x, y, a, b, adm, inj_ok)


def _dense_split_outcomes(ctx: Context, pool, family: ClosureFamily):
    """Condition (c), per subset s of x + y: None unless s is dense and a
    component is not, else (x, y, labels of s and of component closures)."""
    for x, y in _object_pairs(pool):
        fx, fy, fsum = ctx.sum_closures(x, y, family)
        cp = ctx.coproduct(x, y)
        nx = x.size
        low, full_y, full_sum = (1 << nx) - 1, (1 << y.size) - 1, (1 << cp.ob.size) - 1
        for s in range(full_sum + 1):
            yield (None if fsum(s) != full_sum
                   or (fx(s & low) == low and fy(s >> nx) == full_y)
                   else (x, y, cp.ob.labels_of(s), x.labels_of(fx(s & low)),
                         y.labels_of(fy(s >> nx))))


def check_sum_closed_embeddings(ctx: Context, family: ClosureFamily,
                                bound: int, memo) -> Verdict:
    """Three equivalent properties of a closure family on a context:
    (a) sums of closed embeddings are closed embeddings, (b) sums of
    admissibles are admissible and the injections are closed embeddings,
    (c) dense morphisms between binary sums restrict densely along the
    injections (quantified over image subobjects, which is the same)."""
    pool = ctx.objects(bound)
    closed_ok, values, _, n_closed = _closed_sum_side(ctx, family, bound, memo)

    def closed_failure(x, y, a, b, adm, closure):
        return _sum_described(ctx, x, y, a, b, sum_admissible=adm, closure_of_sum=list(
            ctx.coproduct(x, y).ob.labels_of(closure)))

    sides = [("sums_of_closed_embeddings_closed", "condition_a", (
        closed_ok, None if closed_ok else closed_failure(*values), n_closed))]
    for name, cond, outcomes, describe in (
            ("sums_admissible_and_injections_closed", "b",
             _admissible_sum_outcomes(ctx, pool, family),
             lambda x, y, a, b, adm, inj_ok: _pair_witness(
                 ctx, x, y, a, b, sum_admissible=adm,
                 injections_closed_embeddings=inj_ok)),
            ("dense_between_sums_splits_dense", "c",
             _dense_split_outcomes(ctx, pool, family),
             lambda x, y, dense, left, right: _witness(
                 x, y, dense_image=list(dense), left_component_closure=list(left),
                 right_component_closure=list(right)))):
        ok, failed, n = first_counterexample(outcomes)
        n += count_instances(outcomes)
        sides.append((name, f"condition_{cond}",
                      (ok, failed and describe(*failed), n)))
    return _verdict("B", ctx, family, bound, sides,
                    equivalence_ok=closed_ok == sides[1][2][0] == sides[2][2][0],
                    confirming=closed_ok and values and _pair_witness(ctx, *values[:4]))


# ---------------------------------------------------------------- checker C

def _continuous_morphisms(ctx: Context, pool, family: ClosureFamily):
    """The continuous and closed maps between pool objects, as blocks (src,
    tgt, index tables), one per pair of objects that has one.

    A map f is kept by `_closed_fast`'s equation alone, f(c(empty)) =
    c(empty) and f(c({i})) = c({f(i)}) for each point i, which implies
    `_continuous_fast`'s f(c({i})) <= c({f(i)}).  It is decided on each
    object's singleton closure table, c(empty) last, read once."""
    tables = []
    for ob in pool:
        fn = ctx.closure(family, ob)
        tables.append((*[fn(1 << i) for i in range(ob.size)], fn(0)))
    out = []
    for src, s_table in zip(pool, tables):
        for tgt, t_table in zip(pool, tables):
            block = [f for f in ctx.hom_tables(src, tgt)
                     if _carries(f, s_table, t_table, f + (-1,))]
            if block:
                out.append((src, tgt, block))
    return out


def _carries(idx, masks, tgt, keys) -> bool:
    """The map `idx` sends each of `masks` onto the entry of `tgt` at the
    matching entry of `keys`."""
    return all(image_bits(m, idx) == tgt[j] for m, j in zip(masks, keys))


def _block_bits(block, src, tgt) -> int:
    """The bits k of the maps block[k] that carry the halves `src` onto
    `tgt`; c(empty) comes last in both, so point -1 names it."""
    return sum(1 << k for k, h in enumerate(block) if _carries(h, src, tgt, h + (-1,)))


def _high_bits(memo, n: int, g_block, s, t) -> int:
    """One g-block decision: `_block_bits` of g-block n on the high halves
    of the splits s and t, memoized on n and the halves' numbers."""
    key = n, s[2], t[2]
    if key not in memo:
        memo[key] = _block_bits(g_block, s[3], t[3])
    return memo[key]


def _closed_sum_of_closed_outcomes(ctx: Context, closed, family: ClosureFamily):
    """Every pair (f, g) of closed morphisms, f + g closed, decided per
    block of f's and block of g's on the sums' closure tables.

    The sums lay the left summand's points out first, so f + g sends a mask
    M to f(M_low) | g(M_high) << |f.target|, and its singleton equation
    (`_closed_fast`) splits exactly into the AND of
    - L[f]: f carries the low halves of the source sum's table (the left
      points and c(empty)) onto the target sum's;
    - R[g]: g carries the high halves (the right points and c(empty));
    - the cross terms: g carries the high parts of the left points'
      closures, and f the low parts of the right points', onto those of
      their images.  They hold when both tables are block-diagonal, and
      are decided per pair otherwise.
    The tables are the context's `ClosureSplit`s: `halves(x, 0)` holds
    x + z's for the source z of every block, `halves(y, 1)` y + w's for
    every target w.  L is computed once per f-block and distinct low
    halves, R once per g-block and distinct high halves.  Pairs are yielded
    f-major, then by g-block, then g, in the order `closed`'s blocks list
    them, so counts and first witnesses are those of the per-pair sweep.
    Pairs that all hold are yielded as one run: a whole f-block's when its
    row is certified, else an (f, g-block) product's.

    Each (object, end) is summarized once: whether all its splits are
    diagonal, its distinct low halves by number, and its signature, its
    high halves' numbers, one per block (equal numbers are equal halves).
    An f-block x -> y's row meets, at block n, x's and y's splits n.  Every
    pair of the row holds, with no cross terms, when
    (a) every split of x and of y is diagonal: no entry has cross terms;
    (b) the f-block carries every pair of x's and y's distinct low halves,
        among them each entry's pair: L holds for every f;
    (c) every g-block n carries the high halves numbered sig_x[n] onto
        those numbered sig_y[n], entry n's: R holds for every g.
    (c) depends only on (sig_x, sig_y), so it is decided once per distinct
    pair.  The certificate reads only `halves(x, 0)` and `halves(y, 1)`,
    which the per-pair loop of a refused f-block reads too.
    """
    blocks = [block for _, _, block in closed]
    fulls = [(1 << len(block)) - 1 for block in blocks]

    @cache
    def halves(x: FiniteObject, end: int) -> list[tuple]:
        """Per block, x + z's split, z the block's source (end 0) or target
        (end 1): a plain tuple, which unpacks faster than the record."""
        ends = [block[end] for block in closed]
        at = {z: tuple(ctx.closure_split(x, z, family)) for z in dict.fromkeys(ends)}
        return list(map(at.__getitem__, ends))

    @cache
    def summary(x: FiniteObject, end: int):
        splits = halves(x, end)
        return (all(s[5] for s in splits), {s[0]: s[1] for s in splits},
                tuple(s[2] for s in splits))

    r_memo, sig_memo, run = {}, {}, sum(map(len, blocks))
    for x, y, f_block in closed:
        l_memo, f_full = {}, (1 << len(f_block)) - 1
        diag_x, lows_x, sig_x = summary(x, 0)
        diag_y, lows_y, sig_y = summary(y, 1)
        if diag_x and diag_y and all(
                _memoized(l_memo, (a, b), lambda: _block_bits(f_block, s_lows, t_lows))
                == f_full
                for a, s_lows in lows_x.items() for b, t_lows in lows_y.items()):
            if (sig_x, sig_y) not in sig_memo:
                sig_memo[sig_x, sig_y] = all(
                    _high_bits(r_memo, n, g_block, s, t) == full
                    for n, (g_block, full, s, t) in enumerate(
                        zip(blocks, fulls, halves(x, 0), halves(y, 1))))
            if sig_memo[sig_x, sig_y]:
                yield len(f_block) * run
                continue
        row = []
        for n, (g_block, full, s, t) in enumerate(
                zip(blocks, fulls, halves(x, 0), halves(y, 1))):
            s_low, s_lows, _, _, s_crossed, s_diag = s
            t_low, t_lows, _, _, t_crossed, t_diag = t
            if (s_low, t_low) not in l_memo:
                l_memo[s_low, t_low] = _block_bits(f_block, s_lows, t_lows)
            row.append((g_block, full, l_memo[s_low, t_low],
                        _high_bits(r_memo, n, g_block, s, t),
                        not (s_diag and t_diag) and (*s_crossed, *t_crossed)))
        for k, f in enumerate(f_block):
            for (z, w, _), (g_block, full, l_bits, r_bits, crossed) in zip(closed, row):
                ok = r_bits if l_bits >> k & 1 else 0
                if ok and crossed:
                    s_left, s_right, t_left, t_right = crossed
                    ok = sum(1 << j for j, g in enumerate(g_block)
                             if ok >> j & 1
                             and _carries(g, s_left, t_left, f)
                             and _carries(f, s_right, t_right, g))
                if ok == full:
                    yield len(g_block)
                else:
                    for j, g in enumerate(g_block):
                        yield None if ok >> j & 1 else _maps_witness(
                            ctx.morphism(x, y, f), ctx.morphism(z, w, g))


def _injections_closed_outcomes(ctx: Context, pool, family: ClosureFamily):
    for x, y in _object_pairs(pool):
        fx, fy, fsum = ctx.sum_closures(x, y, family)
        inl_idx = tuple(range(x.size))
        inr_idx = tuple(x.size + j for j in range(y.size))
        yield (None if _closed_fast(inl_idx, fx, fsum, x.size)
               and _closed_fast(inr_idx, fy, fsum, y.size)
               else _witness(x, y))


def _c_sides(ctx: Context, family: ClosureFamily, bound: int, memo):
    """C's two sides, memoized per family; the G/H gate reads them."""
    def compute():
        pool = ctx.objects(bound)
        closed = _continuous_morphisms(ctx, pool, family)
        return (first_counterexample(_closed_sum_of_closed_outcomes(ctx, closed, family)),
                first_counterexample(_injections_closed_outcomes(ctx, pool, family)))
    return _memoized(memo, ("c_sides", family.name, bound), compute)


def check_cor_sum_closed_morphisms(ctx: Context, family: ClosureFamily,
                                   bound: int, memo) -> Verdict:
    """Sums of closed morphisms are closed iff the injections are closed."""
    sums, injections = _c_sides(ctx, family, bound, memo)
    return _verdict("C", ctx, family, bound, (
        ("sums_of_closed_morphisms_closed", "closed_morphism_pairs", sums),
        ("injections_closed", "object_pairs", injections)),
        equivalence_ok=sums[0] == injections[0])


# ---------------------------------------------------------------- checker D

def _componentwise_closure_outcomes(ctx: Context, pool, family: ClosureFamily):
    for x, y in _object_pairs(pool):
        fx, fy, fsum = ctx.sum_closures(x, y, family)
        cp = ctx.coproduct(x, y)
        nx = x.size
        lat_y = ctx.sub_lattice(y)
        for a in ctx.sub_lattice(x):
            for b in lat_y:
                lhs = fsum(a | b << nx)
                rhs = fx(a) | fy(b) << nx
                yield (None if lhs == rhs else _pair_witness(
                    ctx, x, y, a, b, closure_of_sum=list(cp.ob.labels_of(lhs)),
                    sum_of_closures=list(cp.ob.labels_of(rhs))))


def check_lemma_componentwise_closure(ctx: Context, family: ClosureFamily,
                                      bound: int, memo) -> Verdict:
    """Closure of a sum of admissibles is the sum of the closures."""
    side = first_counterexample(_componentwise_closure_outcomes(
        ctx, ctx.objects(bound), family))
    return _verdict("D", ctx, family, bound, (
        ("closure_of_sum_is_sum_of_closures", "subobject_pairs", side),))


# ---------------------------------------------------------------- checker E
#
# E works on index tables, masks and down-masks.  A constructed sum lists
# its left summand's points first, so the sum of two tables, masks or orders
# is the left one followed by the right one shifted past it.

def _sum_table(left, right, shift: int) -> tuple[int, ...]:
    return left + tuple(t + shift for t in right)


def _sum_order(left, right) -> tuple[int, ...]:
    return left + tuple(d << len(left) for d in right)


def check_factorization_of_sums(ctx: Context, family, bound: int, memo) -> Verdict:
    """The image factorization of f + g is the sum of those of f and g, and
    image, restriction and composition with sums of admissibles work
    summandwise.  Each side computes the same tables two ways, per:

    - morphism pair: image mask, corestriction and middle order of f + g,
      against the sums of f's and g's;
    - object pair (x, y), image carrier a of x (a hom image or admissible)
      and admissible b of y: the order the context's x + y induces on
      a + b, against the sum of those x and y induce on a and b;
    - morphism f and admissible m of its source: the image of f after m
      against f's direct image of m, and the restriction, included back,
      against f after m;
    - morphism pair and admissible m_a, m_b of their sources (at bound
      <= 2 only; above, 0 instances): composite, image, restriction and
      its source and target orders of f + g at m_a + m_b, against the sums
      of those of f at m_a and g at m_b.
    """
    pool = ctx.objects(bound)
    homs = [(f, i, j) for i, x in enumerate(pool) for j, y in enumerate(pool)
            for f in ctx.hom_tables(x, y)]
    down = [down_or_discrete(x) for x in pool]
    sum_down = [[_sum_order(dx, dy) for dy in down] for dx in down]
    order_on = cache(lambda down, mask: restrict_masks(down, points(mask)))

    def pair_outcomes():
        parts = []
        for f, s, t in homs:
            im, cor = image_parts(f)
            parts.append((f, s, t, im, cor, order_on(down[t], im)))

        @cache  # g's parts right of a summand with n target, k image points
        def as_right(n: int, k: int):
            return [(g, s, t, tuple(i + n for i in g), im << n,
                     tuple(c + k for c in cor), tuple(d << k for d in mid))
                    for g, s, t, im, cor, mid in parts]

        for f, sf, tf, im_f, cor_f, mid_f in parts:
            sums = sum_down[tf]
            for g, sg, tg, g_idx, im_g, cor_g, mid_g in as_right(pool[tf].size,
                                                                 len(mid_f)):
                im, cor = image_parts(f + g_idx)
                yield (None if im == im_f | im_g and cor == cor_f + cor_g
                       and order_on(sums[tg], im) == mid_f + mid_g
                       else _maps_witness(ctx.morphism(pool[sf], pool[tf], f),
                                          ctx.morphism(pool[sg], pool[tg], g)))

    def middle_outcomes():
        images = [set() for _ in pool]
        for f, s, t in homs:
            images[t].add(image_bits((1 << pool[s].size) - 1, f))
        for (i, x), (j, y) in _object_pairs(list(enumerate(pool))):
            masks_y = sorted(ctx.sub_lattice(y))
            cp_down = down_or_discrete(ctx.coproduct(x, y).ob)
            for ma in sorted(images[i].union(ctx.sub_lattice(x))):
                for mb in masks_y:
                    summed = _sum_order(order_on(down[i], ma), order_on(down[j], mb))
                    yield (None if order_on(cp_down, ma | mb << x.size) == summed
                           else _witness(x, y, left_carrier=list(x.labels_of(ma)),
                                         right_carrier=list(y.labels_of(mb))))

    def serialized(ob: FiniteObject, mask: int) -> dict:
        return serialize_subobject(_subobject(ctx, ob, mask))

    def piece_outcomes():
        for f, s, t in homs:
            for ma in ctx.sub_lattice(pool[s]):
                comp = tuple(f[p] for p in points(ma))
                im, cor = image_parts(comp)
                pts = points(im)
                yield (None if im == image_bits(ma, f)
                       and tuple(pts[c] for c in cor) == comp
                       else {"f": serialize_morphism(ctx.morphism(pool[s], pool[t], f)),
                             "m": serialized(pool[s], ma)})

    def quadruple_outcomes():
        def at(idx, mask, src_down, tgt_down):
            """A map at a subobject of its source: its composite with the
            inclusion, image, restriction, and the restriction's source and
            target orders."""
            comp = tuple(idx[p] for p in points(mask))
            im, cor = image_parts(comp)
            return comp, im, cor, order_on(src_down, mask), order_on(tgt_down, im)

        def summed(a, b, nt: int):
            comp_a, im_a, cor_a, src_a, tgt_a = a
            comp_b, im_b, cor_b, src_b, tgt_b = b
            return (_sum_table(comp_a, comp_b, nt), im_a | im_b << nt,
                    _sum_table(cor_a, cor_b, len(tgt_a)),
                    _sum_order(src_a, src_b), _sum_order(tgt_a, tgt_b))

        parts = [[(ma, at(f, ma, down[s], down[t]))
                  for ma in ctx.sub_lattice(pool[s])] for f, s, t in homs]
        for (f, sf, tf), f_parts in zip(homs, parts):
            nt, ns = pool[tf].size, pool[sf].size
            for (g, sg, tg), g_parts in zip(homs, parts):
                s_idx = _sum_table(f, g, nt)
                src_down, tgt_down = sum_down[sf][sg], sum_down[tf][tg]
                for ma, a in f_parts:
                    for mb, b in g_parts:
                        yield (None if at(s_idx, ma | mb << ns, src_down,
                                          tgt_down) == summed(a, b, nt)
                               else _maps_witness(
                                   ctx.morphism(pool[sf], pool[tf], f),
                                   ctx.morphism(pool[sg], pool[tg], g),
                                   m_a=serialized(pool[sf], ma),
                                   m_b=serialized(pool[sg], mb)))

    quadruples = (first_counterexample(quadruple_outcomes()) if bound <= 2
                  else (True, None, 0))
    return _verdict("E", ctx, None, bound, (
        ("factorization_of_sum_is_sum_of_factorizations", "morphism_pairs",
         first_counterexample(pair_outcomes())),
        ("sum_middle_objects_agree", "image_combinations",
         first_counterexample(middle_outcomes())),
        ("single_summand_pieces_consistent", "summand_pieces",
         first_counterexample(piece_outcomes())),
        ("direct_summand_sweep", "direct_quadruples", quadruples)))


# ---------------------------------------------------------------- checker F

def check_pb_stability_closed_e_monos(ctx: Context, family: ClosureFamily,
                                      bound: int, memo) -> Verdict:
    """Closed E-monos between binary sums pull back along the injections to
    closed E-monos."""
    side = _injection_pullback_side(ctx, family, bound, memo)
    return _verdict("F", ctx, family, bound, (
        ("closed_e_monos_pull_back_closed", "closed_e_monos", side),))


# ------------------------------------------------------------- checkers G/H

def _to_point(test, family: ClosureFamily, x: FiniteObject):
    """`test` of the map from x to the terminal object of its flavor."""
    return test(family, (0,) * x.size, x, terminal(x.has_order))


def _empty_inclusion_and_codiagonal(ctx, pool, family, test, compact):
    """G's criterion, per space x: the empty inclusion into x and the
    codiagonal x + x -> x are proper."""
    zero = initial(ctx.ordered)

    def outcomes():
        for x in pool:
            good, bad = test(family, (), zero, x)
            if good:
                good, bad = test(family, tuple(range(x.size)) * 2,
                                 ctx.coproduct(x, x).ob, x)
            yield None if good else {"x": serialize_object(x), "failure": bad}

    return first_counterexample(outcomes())


def _two_point_sum(ctx, pool, family, test, hausdorff):
    """H's criterion: the sum of two terminals is Hausdorff; counted as the
    number of Hausdorff spaces."""
    one = terminal(ctx.ordered)
    ok, wit = _to_point(test, family, ctx.coproduct(one, one).ob)
    return ok, wit, len(hausdorff)


def _sums_of_class(theorem: str, ctx: Context, family: ClosureFamily,
                   bound: int, test, names, criterion) -> Verdict:
    """A class of morphisms, decided on index tables by `test` (closure,
    family, table, source, target -> ok, failure), is closed under binary
    sums, and its spaces (those whose map to the point is in the class) are
    closed under binary sums iff `criterion` holds.  `names` are the three
    (side name, count name) pairs.  `test` reads the spaces' closures from
    the context's cache (`Context.closure`), and decides each map's
    continuity itself, so every map is handed to it as is; the bound only
    sizes the pool.  A sum f + g not monotone between the context's sums
    (the crossed mutant's) fails with {"monotone": false}."""
    pool = ctx.objects(bound)
    test = partial(test, ctx.closure)

    def morphism_sums():
        for x, y, f in members:
            for z, w, g in members:
                src, tgt = ctx.coproduct(x, z).ob, ctx.coproduct(y, w).ob
                table = _sum_table(f, g, y.size)
                ups = src.up_masks, tgt.up_masks
                good, bad = (test(family, table, src, tgt) if monotone_table(table, *ups)
                             else (False, {"monotone": False}))
                yield None if good else _maps_witness(
                    ctx.morphism(x, y, f), ctx.morphism(z, w, g), failure=bad)

    def space_sums():
        for x in spaces:
            for y in spaces:
                good, bad = _to_point(test, family, ctx.coproduct(x, y).ob)
                yield None if good else _witness(x, y, failure=bad)

    members = [(x, y, f) for x in pool for y in pool for f in ctx.hom_tables(x, y)
               if test(family, f, x, y)[0]]
    morphism_side = first_counterexample(morphism_sums())
    spaces = [x for x in pool if _to_point(test, family, x)[0]]
    space_side = first_counterexample(space_sums())
    criterion_side = criterion(ctx, pool, family, test, spaces)
    agree = space_side[0] == criterion_side[0]
    return _verdict(theorem, ctx, family, bound, [
        (*name, side) for name, side in
        zip(names, (morphism_side, space_side, criterion_side))],
        equivalence_ok=agree, passed=morphism_side[0] and agree)


def check_sum_proper(ctx: Context, family: ClosureFamily,
                     bound: int, memo) -> Verdict:
    """Sums of proper morphisms are proper; the compact spaces are closed
    under binary sums iff the empty inclusion and the codiagonal of every
    space are proper."""
    return _sums_of_class(
        "G", ctx, family, bound, proper_witness,
        (("sums_of_proper_proper", "proper_pairs"),
         ("sums_of_compact_compact", "compact_pairs"),
         ("empty_inclusion_and_codiagonal_proper", "spaces")),
        _empty_inclusion_and_codiagonal)


def check_sum_separated(ctx: Context, family: ClosureFamily,
                        bound: int, memo) -> Verdict:
    """Sums of separated morphisms are separated; the Hausdorff spaces are
    closed under binary sums iff the two-point sum of terminals is
    Hausdorff."""
    return _sums_of_class(
        "H", ctx, family, bound, separated_witness,
        (("sums_of_separated_separated", "separated_pairs"),
         ("sums_of_hausdorff_hausdorff", "hausdorff_pairs"),
         ("two_point_sum_hausdorff", "hausdorff_spaces")),
        _two_point_sum)


# ------------------------------------------------------- adjunction checker

def _admissible_adjunction_side(ctx: Context, pool):
    """Family-independent side, on `ctx.plain_sum_lattice`.  It is not the
    closed side under the identity, which reads the lattice of the
    context's own sum: the two differ on the crossed mutant."""
    n_adm = 0
    for x, y in _object_pairs(pool):
        rep = check_adjunction_admissible(
            ctx.sub_lattice(x), ctx.sub_lattice(y), ctx.plain_sum_lattice(x, y))
        n_adm += rep.checks[0].checked
        if not rep.passed:
            return False, rep.checks[0].witness, n_adm
    return True, None, n_adm


def _closed_adjunction_outcomes(ctx: Context, pool, family: ClosureFamily,
                                admissible_ok: bool):
    """Per pair, `adjunction_outcomes` on the closed masks of x, y and the
    context's x + y, under the sum's closure.  A pair reads exactly what
    the admissible side read when no mask is open, the sum's lattice is the
    plain sum's and the closure fixes every join; its triples then have the
    admissible side's outcomes, so when that side held they are one run."""
    for x, y in _object_pairs(pool):
        fx, fy, fsum = ctx.sum_closures(x, y, family)
        cp = ctx.coproduct(x, y)
        nx = x.size
        lat_x, lat_y, lat_sum = (ctx.sub_lattice(ob) for ob in (x, y, cp.ob))
        closed_x = [u for u in lat_x if fx(u) == u]
        closed_y = [v for v in lat_y if fy(v) == v]
        closed_sum = [w for w in lat_sum if fsum(w) == w]
        if (admissible_ok and len(closed_x) == len(lat_x.masks)
                and len(closed_y) == len(lat_y.masks)
                and len(closed_sum) == len(lat_sum.masks)
                and lat_sum.masks == ctx.plain_sum_lattice(x, y).masks
                and all(fsum(u | v << nx) == u | v << nx
                        for u in closed_x for v in closed_y)):
            yield len(closed_x) * len(closed_y) * len(closed_sum)
            continue

        def describe(u, v, w, lhs, rhs):
            return _witness(x, y, u=list(x.labels_of(u)), v=list(y.labels_of(v)),
                            w=list(cp.ob.labels_of(w)), lhs=lhs, rhs=rhs)

        yield from adjunction_outcomes(closed_x, closed_y, closed_sum, nx,
                                       cp.ob.size, fsum, describe)


def check_adjunctions(ctx: Context, family: ClosureFamily,
                      bound: int, memo) -> Verdict:
    """The join of tagged extensions is left adjoint to componentwise
    preimage, both on admissible and on closed subobject lattices."""
    pool = ctx.objects(bound)
    admissible = _memoized(memo, ("adjunction_admissible", bound),
                           lambda: _admissible_adjunction_side(ctx, pool))
    closed = first_counterexample(_closed_adjunction_outcomes(
        ctx, pool, family, admissible[0]))
    return _verdict("adjunctions", ctx, family, bound, (
        ("admissible_extension_adjunction", "admissible_triples", admissible),
        ("closed_extension_adjunction", "closed_triples", closed)))


# --------------------------------------------------------- biproduct checker

HOM_ENUMERATION_CAP = 4096


def _lattice_hypothesis_outcomes(ctx: Context, pool):
    """Per pool object, then per constructed sum of two: None when its
    admissible masks contain 0 and are closed under union, which the
    semilattice tables assume; else the object."""
    sums = (ctx.coproduct(x, y).ob for x, y in _object_pairs(pool))
    for ob in (*pool, *sums):
        yield (None if _union_closed(ctx.sub_lattice(ob).masks, ob.size)
               else {"object": serialize_object(ob)})


def _union_closed(masks, n: int) -> bool:
    """Whether `masks`, over n points, contain 0 and are closed under
    unions, in O(2^n * n): exactly when D(s) is one of them for every mask
    s, where D(s), the union of those inside s, is s itself when s is one,
    else the union of D(s - i) over the points i of s."""
    member, down = set(masks), []
    for s in range(1 << n):
        down.append(s if s in member else
                    reduce(or_, (down[s ^ 1 << i] for i in points(s)), 0))
        if down[s] not in member:
            return False
    return True


def _product_certified(ctx: Context, family: ClosureFamily,
                       x: FiniteObject, y: FiniteObject) -> bool:
    """The product certificate of the closed lattices of x + y under
    `family`: (1) the admissible masks of the context's sum are exactly the
    a | b << |x| for a admissible in x and b in y, and (2) the sum's
    closure of each is fx(a) | fy(b) << |x|.  The lattices are read for x,
    then y, then the sum, as `closed_biproduct` reads them; the closures
    are `ctx.closure`'s."""
    lat_x, lat_y = ctx.sub_lattice(x), ctx.sub_lattice(y)
    sum_ob = ctx.coproduct(x, y).ob
    members = ctx.sub_lattice(sum_ob).members
    fx, fy, fsum = (ctx.closure(family, ob) for ob in (x, y, sum_ob))
    left = [(a, fx(a)) for a in lat_x]
    right = [(b << x.size, fy(b) << x.size) for b in lat_y]
    pairs = [(a | b, ca | cb) for a, ca in left for b, cb in right]
    return (members == {m for m, _ in pairs}
            and all(fsum(m) == closed for m, closed in pairs))


def _lattice_biproduct_outcomes(ctx: Context, pool, family: ClosureFamily):
    """Per object pair: None when the closed lattices of x, y and x + y
    under `family` split as a biproduct, else the pair with the failed
    equations.

    A pair whose product certificate holds (`_product_certified`) is
    decided without building the sum's closed lattice.  The closed
    lattices of x and y are still built, once per object in a sweep, which
    validates them as semilattices and raises where building them raises;
    every other pair is built literally (`closed_biproduct`).  Either way a
    pair counts one.

    The certificate implies that the literal build passes all five
    equations.  Write n = |x|, Cl for closed admissible masks and zx, zy
    for the zeros fx(0), fy(0).  The biproduct checker's hypothesis, which
    `run_checker` decides before this side runs, gives that each object's
    and each sum's admissible masks contain 0 and are closed under unions;
    a closure of an object returns masks of that object.
    - Each admissible mask of the sum is a | b << n for one admissible
      pair (a, b) (condition 1), and is closed exactly when
      fx(a) | fy(b) << n is itself (condition 2), that is when a is in
      Cl x and b in Cl y.  So Cl(x + y) is Cl x times Cl y as a set.
    - Its join is the pair of joins: a | a' and b | b' are admissible, so
      fsum((a | a') | (b | b') << n) is fx(a | a') | fy(b | b') << n by
      condition 2; its zero fsum(0) is zx | zy << n likewise.
    - So inj_l(a) = fsum(a) = (a, zy), inj_r(b) = (zx, b), and the
      projections split a mask into its halves: proj_l(a, b) = a,
      proj_r(a, b) = b.  Endpoints agree by construction.  All four maps
      preserve zero and joins.  proj_l inj_l and proj_r inj_r are
      identities, proj_l inj_r and proj_r inj_l send everything to zx and
      zy, and inj_l proj_l v inj_r proj_r sends (a, b) to
      (a v zx, zy v b) = (a, b), as zx and zy are neutral in x's and y's
      closed lattices, which their literal builds check.
    """
    from .semilattice import closed_biproduct, closed_semilattice

    validated = set()
    for x, y in _object_pairs(pool):
        if _product_certified(ctx, family, x, y):
            for ob in (x, y):
                if ob not in validated:
                    closed_semilattice(ctx.closure(family, ob), ctx.sub_lattice(ob))
                    validated.add(ob)
            yield None
            continue
        bp = closed_biproduct(ctx, family, x, y)
        yield None if bp.passed else _witness(
            x, y, failed=[c.id for c in bp.report.failed()])


def _lattice_biproduct_side(ctx: Context, family: ClosureFamily, bound: int, memo):
    """`_lattice_biproduct_outcomes` to its first failure, memoized per
    family: the subobject side is the identity entry."""
    return _memoized(memo, ("closed_biproduct", family.name, bound),
                     lambda: first_counterexample(_lattice_biproduct_outcomes(
                         ctx, ctx.objects(bound), family)))


def _roundtrip_outcomes(ctx: Context, pool):
    """Per hom between sum lattices of objects of size at most 2: None when
    its 2x2 matrix joins back to the same table.

    A block whose guards hold (`every_hom_roundtrips`) round-trips every
    hom, so it is one run of `count_homs`, counted once per pair of total
    lattices.  Elsewhere a block's homs depend only on the two total
    lattices, and which of them fail the round trip only on those, the
    source's `pairs` and the target's `joint`, so they are enumerated once
    per pair of lattices and decided once per key in one run (capped
    blocks are not memoized).  The homs that hold are yielded as runs; a
    hom that fails is confirmed on the literal matrix calculus, with its
    block's own structure maps.  A block of a biproduct whose structure
    maps miss a value (None, see `closed_biproduct`) has no matrices: its
    zero hom fails."""
    from .semilattice import (closed_biproduct, count_homs, enumerate_homs,
                              every_hom_roundtrips, hom_matrix, identity_hom,
                              matrix_roundtrip, matrix_to_hom, zero_hom)

    small = [x for x in pool if x.size <= 2]
    bps = {(x, y): closed_biproduct(ctx, IDENTITY, x, y)
           for x, y in _object_pairs(small)}
    tables = {bp: (bp.total.join, bp.total.zero) for bp in bps.values()}
    counts, homs_of, failed_of = {}, {}, {}
    mapped = {key: None not in (*bp.inj_l, *bp.inj_r, *bp.proj_l, *bp.proj_r)
              for key, bp in bps.items()}

    def hom_witness(src_key, tgt_key, h):
        return {"source_pair": [o.label for o in src_key],
                "target_pair": [o.label for o in tgt_key], "hom_table": list(h)}

    for (src_key, bp_s), (tgt_key, bp_t) in product(bps.items(), repeat=2):
        src, tgt = bp_s.total, bp_t.total
        if not (mapped[src_key] and mapped[tgt_key]):
            yield hom_witness(src_key, tgt_key, zero_hom(src, tgt))
            continue
        if tgt.n ** len(src.irreducibles) <= HOM_ENUMERATION_CAP:
            lattices = tables[bp_s] + tables[bp_t]
            if every_hom_roundtrips(bp_s, bp_t):
                if lattices not in counts:
                    counts[lattices] = count_homs(src, tgt)
                yield counts[lattices]
                continue
            if lattices not in homs_of:
                homs_of[lattices] = enumerate_homs(src, tgt)
            homs = homs_of[lattices]
            key = lattices, bp_s.pairs, bp_t.joint
            if key not in failed_of:
                failed_of[key] = matrix_roundtrip(bp_s, bp_t, homs)
            failed = failed_of[key]
        else:
            homs = [identity_hom(src)] if src is tgt else []
            homs.append(zero_hom(src, tgt))
            failed = matrix_roundtrip(bp_s, bp_t, homs)
        start = 0
        for k in failed:
            if k > start:
                yield k - start
            h, start = homs[k], k + 1
            yield (None if matrix_to_hom(bp_s, bp_t, hom_matrix(bp_s, bp_t, h)) == h
                   else hom_witness(src_key, tgt_key, h))
        if len(homs) > start:
            yield len(homs) - start


def check_biproduct(ctx: Context, family: ClosureFamily,
                    bound: int, memo) -> Verdict:
    """Subobject and closed-subobject lattices of binary sums split as
    biproducts, and homs between sum lattices round-trip through their 2x2
    matrices."""
    sub = _lattice_biproduct_side(ctx, IDENTITY, bound, memo)
    closed = _lattice_biproduct_side(ctx, family, bound, memo)
    roundtrip = _memoized(memo, ("biproduct_roundtrip", bound), lambda: (
        first_counterexample(_roundtrip_outcomes(ctx, ctx.objects(bound)))))
    return _verdict("biproduct", ctx, family, bound, (
        ("subobject_lattice_biproduct", "object_pairs", sub),
        ("closed_lattice_biproduct", None, closed),
        ("hom_matrix_roundtrip", "homs_roundtripped", roundtrip)))


# ----------------------------------------------------------------- validate

def check_validate(ctx: Context, family: ClosureFamily | None,
                   bound: int, memo) -> Verdict:
    """Wrap the extensivity, factorization, and closure validators."""
    from .closure import validate_closure
    ext = ctx.validate_extensive(bound)
    fac = ctx.validate_factorization(bound)
    sides = [("extensivity", ext.passed), ("factorization", fac.passed)]
    reports = [ext.to_dict(), fac.to_dict()]
    fams = (family,) if family is not None else ctx.families
    for fam in fams:
        rep = validate_closure(fam, ctx.sub_lattice, ctx.objects(bound))
        sides.append((f"closure_{fam.name}", rep.passed))
        reports.append(rep.to_dict())
    passed = all(v for _, v in sides)
    wits = tuple(r for r in reports if not r["passed"])
    return Verdict("validate", ctx.name, family.name if family else None,
                   bound, tuple(sides), None, "ok", None, passed, wits,
                   (("reports", len(reports)),))


CHECKERS = {
    "A": check_sum_admissible,
    "B": check_sum_closed_embeddings,
    "C": check_cor_sum_closed_morphisms,
    "D": check_lemma_componentwise_closure,
    "E": check_factorization_of_sums,
    "F": check_pb_stability_closed_e_monos,
    "G": check_sum_proper,
    "H": check_sum_separated,
    "adjunctions": check_adjunctions,
    "biproduct": check_biproduct,
    "validate": check_validate,
}


# ------------------------------------------------------------------- gates
#
# A gate reads an earlier statement's side from the run's memo and gives
# (holds, witness of its first failure).

def _sums_admissible(ctx: Context, family, bound: int, memo):
    ok, values, _, _ = _closed_sum_side(ctx, IDENTITY, bound, memo)
    return ok, None if ok else _sum_described(ctx, *values[:4])


def _closed_sums(ctx: Context, family, bound: int, memo):
    ok, values, _, _ = _closed_sum_side(ctx, family, bound, memo)
    return ok, None if ok else _pair_witness(ctx, *values[:4])


def _closed_morphism_sums(ctx: Context, family, bound: int, memo):
    (ok_l, wit_l, _), (ok_r, wit_r, _) = _c_sides(ctx, family, bound, memo)
    return ok_l and ok_r, wit_l or wit_r


def _unions_admissible(ctx: Context, family, bound: int, memo):
    return _memoized(memo, ("unions_admissible", bound), lambda: first_counterexample(
        _lattice_hypothesis_outcomes(ctx, ctx.objects(bound))))[:2]


CLOSED_SUMS = (("sums of closed embeddings are closed embeddings", _closed_sums),)
# G and H assume C's statement, and with it C's own hypothesis.
CLOSED_MORPHISM_SUMS = tuple(("sums of closed morphisms are closed", gate)
                             for gate in (_sums_admissible, _closed_morphism_sums))
# theorem -> its hypotheses in order, as (text, gate)
GATES = {
    "C": (("sums of admissible subobjects are admissible", _sums_admissible),),
    "D": CLOSED_SUMS, "F": CLOSED_SUMS, "G": CLOSED_MORPHISM_SUMS,
    "H": CLOSED_MORPHISM_SUMS,
    "biproduct": (*CLOSED_SUMS, ("admissible subobjects contain the empty one and "
                                 "are closed under unions", _unions_admissible)),
}


def preload(theorems) -> None:
    """Import the modules that the checkers `theorems` import in their own
    bodies, so that a run compiles them before its first checker starts."""
    if "biproduct" in theorems:
        from .semilattice import closed_biproduct  # noqa: F401


def run_checker(theorem: str, ctx: Context, family: ClosureFamily | None,
                bound: int, memo=None) -> Verdict:
    """The verdict of `theorem`, or hypothesis-failed at the first of its
    gates that fails.  Checkers run on one `memo` share their sides."""
    if theorem not in CHECKERS:
        raise KeyError(f"unknown theorem id: {theorem}")
    if family is None and theorem not in FAMILY_FREE:
        raise ValueError(f"checker {theorem} needs a closure family")
    memo = {} if memo is None else memo
    for hypothesis, gate in GATES.get(theorem, ()):
        holds, witness = gate(ctx, family, bound, memo)
        if not holds:
            return Verdict(theorem, ctx.name, family and family.name, bound, (), None,
                           "hypothesis-failed", hypothesis, True,
                           (witness,) if witness else (), ())
    return CHECKERS[theorem](ctx, family, bound, memo)
