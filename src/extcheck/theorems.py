"""Brute-force checkers for the structural theorems about finite sums.

Every checker quantifies exhaustively over the context's object pool at a
bound, evaluates each side of its statement separately, and reports a
Verdict: named condition truth values, whether they all agree, at least one
witness (the first counterexample, or a confirming instance when everything
agrees), and instance counts.  Checkers whose statement assumes an earlier
one gate on it and report hypothesis-failed instead of a verdict when the
hypothesis does not hold in the given universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .closure import (
    ClosureFamily,
    Space,
    SpaceMorphism,
    _closed_fast,
    _continuous_fast,
    is_proper_witness,
    is_separated_witness,
    terminal_space_morphism,
)
from .core import (
    FiniteObject,
    Morphism,
    LEFT_TAG,
    RIGHT_TAG,
    compose,
    copair,
    coproduct,
    identity,
    initial,
    inclusion,
    is_injective,
    is_iso,
    monotone_bijections,
    serialize_morphism,
    serialize_object,
    sum_morphisms,
    terminal,
)
from .contexts import Context
from .factorization import Factorization
from .semilattice import (
    closed_biproduct,
    enumerate_homs,
    hom_matrix,
    identity_hom,
    join_irreducibles,
    matrix_to_hom,
    subobject_biproduct,
)
from .subobjects import (
    check_adjunction_admissible,
    serialize_subobject,
    subobject_from_mask,
    sum_subobjects,
)

THEOREM_IDS = ("A", "B", "C", "D", "E", "F", "G", "H",
               "adjunctions", "biproduct", "validate")

FAMILY_FREE = {"A", "E"}


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


def _gated(theorem: str, ctx: Context, family, bound: int,
           hypothesis: str, witness: dict | None) -> Verdict:
    wits = (witness,) if witness else ()
    return Verdict(theorem, ctx.name, family.name if family else None, bound,
                   (), None, "hypothesis-failed", hypothesis, True, wits, ())


def _component_cache(family: ClosureFamily):
    cache: dict[FiniteObject, object] = {}

    def get(ob: FiniteObject):
        fn = cache.get(ob)
        if fn is None:
            fn = family.component(ob)
            cache[ob] = fn
        return fn

    return get


def _object_pairs(pool: Sequence[FiniteObject]):
    for x in pool:
        for y in pool:
            yield x, y


# ---------------------------------------------------------------- checker A

def _sums_admissible_side(ctx: Context, pool):
    sys = ctx.system
    count = 0
    confirming = None
    for x, y in _object_pairs(pool):
        for a in ctx.sub_lattice(x):
            for b in ctx.sub_lattice(y):
                count += 1
                res = sum_subobjects(sys, a, b)
                if not res.admissible:
                    wit = {"x": serialize_object(x), "y": serialize_object(y),
                           "a": serialize_subobject(a), "b": serialize_subobject(b),
                           "sum": serialize_subobject(res.sub)}
                    return False, wit, count
                if confirming is None:
                    confirming = {"x": serialize_object(x), "y": serialize_object(y),
                                  "a": serialize_subobject(a),
                                  "b": serialize_subobject(b),
                                  "sum": serialize_subobject(res.sub)}
    return True, confirming, count


def _pullback_along_injection(e: Morphism, component: FiniteObject, left: bool):
    """The pullback of e along one coproduct injection, taken concretely as
    the corestriction of e to the tagged block."""
    tag = LEFT_TAG if left else RIGHT_TAG
    keep = [z for z in e.source.elements if e.table[z].startswith(tag)]
    sub_ob = e.source.restrict(keep)
    return sub_ob, Morphism(sub_ob, component,
                            tuple((z, e.table[z][len(tag):]) for z in keep))


def _e_monos_between_sums(ctx: Context, pool):
    """Yield (e, sum sources) for every member of E cap Mono between
    constructed binary sums at the bound.  Since E-members are epi, only
    carrier-size-matched sums can carry one."""
    sys = ctx.system
    by_total: dict[int, list] = {}
    for x, y in _object_pairs(pool):
        by_total.setdefault(x.size + y.size, []).append((x, y))
    for total in sorted(by_total):
        pairs = by_total[total]
        for (a, b) in pairs:
            src = ctx.coproduct(a, b)
            for (x, y) in pairs:
                tgt = ctx.coproduct(x, y)
                for e in monotone_bijections(src.ob, tgt.ob):
                    if sys.in_e(e) and is_injective(e):
                        yield e, (x, y)


def _injection_pullback_side(ctx: Context, pool, family: ClosureFamily | None):
    sys = ctx.system
    cls_of = _component_cache(family) if family else None
    count = 0
    confirming = None
    for e, (x, y) in _e_monos_between_sums(ctx, pool):
        if family is not None:
            f_src = cls_of(e.source)
            f_tgt = cls_of(e.target)
            n = e.source.size
            if not (_continuous_fast(e.idx, f_src, f_tgt, n)
                    and _closed_fast(e.idx, f_src, f_tgt, n)):
                continue
        count += 1
        good = True
        parts = []
        for component, left in ((x, True), (y, False)):
            sub_ob, pulled = _pullback_along_injection(e, component, left)
            ok = sys.in_e(pulled) and is_injective(pulled)
            if ok and family is not None:
                ok = _closed_fast(pulled.idx, cls_of(sub_ob),
                                  cls_of(component), sub_ob.size)
            parts.append(pulled)
            if not ok:
                good = False
                break
        if not good:
            wit = {"e": serialize_morphism(e),
                   "pulled_back": serialize_morphism(parts[-1])}
            return False, wit, count
        if confirming is None:
            confirming = {"e": serialize_morphism(e)}
    return True, confirming, count


def check_sum_admissible(ctx: Context, bound: int, memo=None) -> Verdict:
    """Sums of admissible subobjects are admissible, and members of E cap
    Mono between binary sums pull back along the injections into E cap Mono."""
    pool = ctx.objects(bound)
    ok1, wit1, n1 = _sums_admissible_side(ctx, pool)
    ok2, wit2, n2 = _injection_pullback_side(ctx, pool, None)
    sides = (("sums_of_admissibles_admissible", ok1),
             ("e_monos_pull_back_along_injections", ok2))
    equal = ok1 == ok2
    wits = tuple(w for w in (
        dict(wit1, side="sums_of_admissibles_admissible",
             kind="counterexample" if not ok1 else "confirming") if wit1 else None,
        dict(wit2, side="e_monos_pull_back_along_injections",
             kind="counterexample" if not ok2 else "confirming") if wit2 else None,
    ) if w)
    return Verdict("A", ctx.name, None, bound, sides, equal, "ok", None,
                   equal, wits, (("subobject_pairs", n1), ("e_monos", n2)))


def _gate_sums_admissible(ctx: Context, bound: int, memo):
    key = ("sums_admissible", bound)
    if memo is not None and key in memo:
        return memo[key]
    ok, wit, _ = _sums_admissible_side(ctx, ctx.objects(bound))
    result = (ok, None if ok else wit)
    if memo is not None:
        memo[key] = result
    return result


# ---------------------------------------------------------------- checker B

def _closed_masks(lattice, fn):
    return [s for s in lattice if fn(s.mask) == s.mask]


def check_sum_closed_embeddings(ctx: Context, family: ClosureFamily,
                                bound: int, memo=None) -> Verdict:
    """Three equivalent properties of a closure family on a context:
    (a) sums of closed embeddings are closed embeddings, (b) sums of
    admissibles are admissible and the injections are closed embeddings,
    (c) dense morphisms between binary sums restrict densely along the
    injections (quantified over image subobjects, which is the same)."""
    sys = ctx.system
    pool = ctx.objects(bound)
    cls_of = _component_cache(family)
    oks = {"a": True, "b": True, "c": True}
    wits: dict[str, dict | None] = {"a": None, "b": None, "c": None}
    counts = {"a": 0, "b": 0, "c": 0}
    confirming = None
    for x, y in _object_pairs(pool):
        fx, fy = cls_of(x), cls_of(y)
        cp = ctx.coproduct(x, y)
        fsum = cls_of(cp.ob)
        nx = x.size
        lat_x, lat_y = ctx.sub_lattice(x), ctx.sub_lattice(y)
        full_x = (1 << x.size) - 1
        full_y = (1 << y.size) - 1
        full_sum = (1 << cp.ob.size) - 1
        low = (1 << nx) - 1

        for a in _closed_masks(lat_x, fx):
            for b in _closed_masks(lat_y, fy):
                counts["a"] += 1
                res = sum_subobjects(sys, a, b)
                mask = a.mask | (b.mask << nx)
                closed = fsum(mask) == mask
                if oks["a"] and not (res.admissible and closed):
                    oks["a"] = False
                    wits["a"] = {
                        "x": serialize_object(x), "y": serialize_object(y),
                        "a": serialize_subobject(a), "b": serialize_subobject(b),
                        "sum": serialize_subobject(res.sub),
                        "sum_admissible": res.admissible,
                        "closure_of_sum": list(cp.ob.labels_of(fsum(mask)))}
                elif confirming is None:
                    confirming = {
                        "x": serialize_object(x), "y": serialize_object(y),
                        "a": serialize_subobject(a), "b": serialize_subobject(b)}

        inj_ok = (sys.in_m(cp.inl) and sys.in_m(cp.inr)
                  and fsum(low) == low
                  and fsum(full_sum & ~low) == full_sum & ~low)
        for a in lat_x:
            for b in lat_y:
                counts["b"] += 1
                res = sum_subobjects(sys, a, b)
                if oks["b"] and not (res.admissible and inj_ok):
                    oks["b"] = False
                    wits["b"] = {
                        "x": serialize_object(x), "y": serialize_object(y),
                        "a": serialize_subobject(a), "b": serialize_subobject(b),
                        "sum_admissible": res.admissible,
                        "injections_closed_embeddings": inj_ok}

        for s in range(1 << cp.ob.size):
            counts["c"] += 1
            if fsum(s) != full_sum:
                continue
            if fx(s & low) != full_x or fy(s >> nx) != full_y:
                if oks["c"]:
                    oks["c"] = False
                    wits["c"] = {
                        "x": serialize_object(x), "y": serialize_object(y),
                        "dense_image": list(cp.ob.labels_of(s)),
                        "left_component_closure": list(x.labels_of(fx(s & low))),
                        "right_component_closure": list(y.labels_of(fy(s >> nx)))}

    sides = (("sums_of_closed_embeddings_closed", oks["a"]),
             ("sums_admissible_and_injections_closed", oks["b"]),
             ("dense_between_sums_splits_dense", oks["c"]))
    equal = oks["a"] == oks["b"] == oks["c"]
    witnesses = []
    for cond in ("a", "b", "c"):
        if wits[cond] is not None:
            witnesses.append(dict(wits[cond], side=sides[ord(cond) - ord("a")][0],
                                  kind="counterexample"))
    if not witnesses and confirming is not None:
        witnesses.append(dict(confirming, kind="confirming"))
    return Verdict("B", ctx.name, family.name, bound, sides, equal, "ok", None,
                   equal, tuple(witnesses),
                   tuple((f"condition_{c}", counts[c]) for c in ("a", "b", "c")))


def _gate_closed_sums(ctx: Context, family: ClosureFamily, bound: int, memo):
    """Condition (a) of the closed-embedding checker, used as a hypothesis."""
    key = ("closed_sums", family.name, bound)
    if memo is not None and key in memo:
        return memo[key]
    sys = ctx.system
    cls_of = _component_cache(family)
    ok = True
    wit = None
    for x, y in _object_pairs(ctx.objects(bound)):
        fx, fy = cls_of(x), cls_of(y)
        cp = ctx.coproduct(x, y)
        fsum = cls_of(cp.ob)
        nx = x.size
        for a in _closed_masks(ctx.sub_lattice(x), fx):
            for b in _closed_masks(ctx.sub_lattice(y), fy):
                mask = a.mask | (b.mask << nx)
                if not (sum_subobjects(sys, a, b).admissible
                        and fsum(mask) == mask):
                    ok = False
                    wit = {"x": serialize_object(x), "y": serialize_object(y),
                           "a": serialize_subobject(a), "b": serialize_subobject(b)}
                    break
            if not ok:
                break
        if not ok:
            break
    result = (ok, wit)
    if memo is not None:
        memo[key] = result
    return result


# ---------------------------------------------------------------- checker C

def _closed_morphism_pool(ctx: Context, family: ClosureFamily, pool, cls_of):
    out = []
    for src in pool:
        fs = cls_of(src)
        for tgt in pool:
            ft = cls_of(tgt)
            for f in ctx.hom(src, tgt):
                if (_continuous_fast(f.idx, fs, ft, src.size)
                        and _closed_fast(f.idx, fs, ft, src.size)):
                    out.append(f)
    return out


def _c_sides(ctx: Context, family: ClosureFamily, bound: int):
    pool = ctx.objects(bound)
    cls_of = _component_cache(family)
    closed = _closed_morphism_pool(ctx, family, pool, cls_of)
    ok_l = True
    wit_l = None
    n_l = 0
    for f in closed:
        nt = f.target.size
        ns = f.source.size
        f_idx = f.idx
        for g in closed:
            n_l += 1
            src_sum = ctx.coproduct(f.source, g.source).ob
            tgt_sum = ctx.coproduct(f.target, g.target).ob
            idx = f_idx + tuple(t + nt for t in g.idx)
            if not _closed_fast(idx, cls_of(src_sum), cls_of(tgt_sum),
                                ns + g.source.size):
                ok_l = False
                wit_l = {"f": serialize_morphism(f), "g": serialize_morphism(g)}
                break
        if not ok_l:
            break
    ok_r = True
    wit_r = None
    n_r = 0
    for x, y in _object_pairs(pool):
        n_r += 1
        cp = ctx.coproduct(x, y)
        fsum = cls_of(cp.ob)
        inl_idx = tuple(range(x.size))
        inr_idx = tuple(x.size + j for j in range(y.size))
        if not (_closed_fast(inl_idx, cls_of(x), fsum, x.size)
                and _closed_fast(inr_idx, cls_of(y), fsum, y.size)):
            ok_r = False
            wit_r = {"x": serialize_object(x), "y": serialize_object(y)}
            break
    return (ok_l, wit_l, n_l), (ok_r, wit_r, n_r)


def check_cor_sum_closed_morphisms(ctx: Context, family: ClosureFamily,
                                   bound: int, memo=None) -> Verdict:
    """Sums of closed morphisms are closed iff the injections are closed."""
    gate, gate_wit = _gate_sums_admissible(ctx, bound, memo)
    if not gate:
        return _gated("C", ctx, family, bound,
                      "sums of admissible subobjects are admissible", gate_wit)
    (ok_l, wit_l, n_l), (ok_r, wit_r, n_r) = _c_sides(ctx, family, bound)
    sides = (("sums_of_closed_morphisms_closed", ok_l),
             ("injections_closed", ok_r))
    equal = ok_l == ok_r
    wits = []
    if wit_l is not None:
        wits.append(dict(wit_l, side=sides[0][0], kind="counterexample"))
    if wit_r is not None:
        wits.append(dict(wit_r, side=sides[1][0], kind="counterexample"))
    return Verdict("C", ctx.name, family.name, bound, sides, equal, "ok", None,
                   equal, tuple(wits),
                   (("closed_morphism_pairs", n_l), ("object_pairs", n_r)))


def _gate_c_both(ctx: Context, family: ClosureFamily, bound: int, memo):
    key = ("c_both", family.name, bound)
    if memo is not None and key in memo:
        return memo[key]
    gate, gate_wit = _gate_sums_admissible(ctx, bound, memo)
    if not gate:
        result = (False, gate_wit)
    else:
        (ok_l, wit_l, _), (ok_r, wit_r, _) = _c_sides(ctx, family, bound)
        result = (ok_l and ok_r, wit_l or wit_r)
    if memo is not None:
        memo[key] = result
    return result


# ---------------------------------------------------------------- checker D

def check_lemma_componentwise_closure(ctx: Context, family: ClosureFamily,
                                      bound: int, memo=None) -> Verdict:
    """Closure of a sum of admissibles is the sum of the closures."""
    gate, gate_wit = _gate_closed_sums(ctx, family, bound, memo)
    if not gate:
        return _gated("D", ctx, family, bound,
                      "sums of closed embeddings are closed embeddings", gate_wit)
    cls_of = _component_cache(family)
    ok = True
    wit = None
    count = 0
    for x, y in _object_pairs(ctx.objects(bound)):
        fx, fy = cls_of(x), cls_of(y)
        cp = ctx.coproduct(x, y)
        fsum = cls_of(cp.ob)
        nx = x.size
        for a in ctx.sub_lattice(x):
            for b in ctx.sub_lattice(y):
                count += 1
                lhs = fsum(a.mask | (b.mask << nx))
                rhs = fx(a.mask) | (fy(b.mask) << nx)
                if lhs != rhs:
                    ok = False
                    wit = {"x": serialize_object(x), "y": serialize_object(y),
                           "a": serialize_subobject(a), "b": serialize_subobject(b),
                           "closure_of_sum": list(cp.ob.labels_of(lhs)),
                           "sum_of_closures": list(cp.ob.labels_of(rhs))}
                    break
            if not ok:
                break
        if not ok:
            break
    sides = (("closure_of_sum_is_sum_of_closures", ok),)
    wits = (dict(wit, kind="counterexample"),) if wit else ()
    return Verdict("D", ctx.name, family.name, bound, sides, None, "ok", None,
                   ok, wits, (("subobject_pairs", count),))


# ---------------------------------------------------------------- checker E

def _factorizations_agree(fac: Factorization, cand_e: Morphism,
                          cand_m: Morphism) -> bool:
    if fac.e_part == cand_e and fac.m_part == cand_m:
        return True
    if fac.mid.size != cand_e.target.size:
        return False
    for h in monotone_bijections(fac.mid, cand_e.target):
        if not is_iso(h):
            continue
        if (compose(h, fac.e_part) == cand_e
                and compose(cand_m, h) == fac.m_part):
            return True
    return False


def check_factorization_of_sums(ctx: Context, bound: int, memo=None) -> Verdict:
    """factorize(f+g) agrees with e_f+e_g followed by m_f+m_g, and image,
    restriction, and composition with admissible sums all work summandwise.

    Tagged carriers make the sum equations split into independent pieces:
    equality of the two candidate middle objects (one check per
    image-carrier combination), and per-summand structure of each single
    factorization.  With the stock image factorizer those pieces determine
    the whole morphism-pair sweep, so at bound >= 3 the pair loop for the
    factorization match is replaced by them; at bound <= 2, or under a
    nonstandard factorizer, every pair is checked directly, and a direct
    sweep over all subobject quadruples is run as well.
    """
    from .factorization import image_factorization
    sys = ctx.system
    pool = ctx.objects(bound)
    homs = [f for x in pool for y in pool for f in ctx.hom(x, y)]
    fac: dict[Morphism, Factorization] = {}
    for f in homs:
        fac[f] = sys.factorize(f)

    ok1 = True
    wit1 = None
    n1 = 0
    canonical = sys.factorize_fn is image_factorization
    if bound <= 2 or not canonical:
        for f in homs:
            ff = fac[f]
            for g in homs:
                n1 += 1
                s = sum_morphisms(f, g)
                fac_s = sys.factorize_fn(s)
                cand_e = sum_morphisms(ff.e_part, fac[g].e_part)
                cand_m = sum_morphisms(ff.m_part, fac[g].m_part)
                if not _factorizations_agree(fac_s, cand_e, cand_m):
                    ok1 = False
                    wit1 = {"f": serialize_morphism(f),
                            "g": serialize_morphism(g)}
                    break
            if not ok1:
                break
    else:
        # Each canonical factorization keeps source mappings and includes
        # the image carrier, so the pair equation reduces to the
        # middle-object agreement swept below.
        for f in homs:
            ff = fac[f]
            good = (ff.e_part.mapping == f.mapping
                    and ff.m_part == inclusion(ff.mid, f.target))
            if not good:
                ok1 = False
                wit1 = {"f": serialize_morphism(f)}
                break
        n1 = len(homs) ** 2 if ok1 else n1

    # Middle-object agreement per image combination: the only coupled part
    # of the summand equations.
    ok2 = True
    wit2 = None
    n2 = 0
    from .core import coproduct as core_coproduct
    for x, y in _object_pairs(pool):
        imgs_x = sorted(set(f.image_mask((1 << f.source.size) - 1)
                            for f in homs if f.target == x)
                        | set(s.mask for s in ctx.sub_lattice(x)))
        imgs_y = sorted(set(s.mask for s in ctx.sub_lattice(y)))
        cp = ctx.coproduct(x, y)
        nx = x.size
        for ma in imgs_x:
            sub_a = subobject_from_mask(x, ma)
            for mb in imgs_y:
                n2 += 1
                sub_b = subobject_from_mask(y, mb)
                direct = cp.ob.restrict(
                    tuple(LEFT_TAG + e for e in sub_a.elements)
                    + tuple(RIGHT_TAG + e for e in sub_b.elements))
                summed = core_coproduct(sub_a.ob, sub_b.ob).ob
                if direct != summed:
                    ok2 = False
                    wit2 = {"x": serialize_object(x), "y": serialize_object(y),
                            "left_carrier": list(sub_a.elements),
                            "right_carrier": list(sub_b.elements)}
                    break
            if not ok2:
                break
        if not ok2:
            break

    # Single-summand pieces: restriction and composite of every morphism
    # with every admissible subobject of its source are well-formed and
    # match the direct-image data.
    ok3 = True
    wit3 = None
    n3 = 0
    from .subobjects import image as sub_image, restriction as sub_restriction
    for f in homs:
        for ma in ctx.sub_lattice(f.source):
            n3 += 1
            img = sub_image(sys, f, ma)
            if img.mask != f.image_mask(ma.mask):
                ok3 = False
            else:
                rest = sub_restriction(sys, f, ma)
                comp = compose(f, ma.rep)
                if (rest.mapping != tuple((e, f.table[e]) for e in ma.elements)
                        or comp.mapping != rest.mapping):
                    ok3 = False
            if not ok3:
                wit3 = {"f": serialize_morphism(f), "m": serialize_subobject(ma)}
                break
        if not ok3:
            break

    ok4 = True
    wit4 = None
    n4 = 0
    if bound <= 2:
        for f in homs:
            for g in homs:
                s = sum_morphisms(f, g)
                for ma in ctx.sub_lattice(f.source):
                    for mb in ctx.sub_lattice(g.source):
                        n4 += 1
                        res = sum_subobjects(sys, ma, mb)
                        lhs_comp = compose(s, res.morphism)
                        rhs_comp = sum_morphisms(compose(f, ma.rep),
                                                 compose(g, mb.rep))
                        img_s = sub_image(sys, s, res.sub)
                        img_parts = sum_subobjects(
                            sys, sub_image(sys, f, ma), sub_image(sys, g, mb))
                        rest_s = sub_restriction(sys, s, res.sub)
                        rest_parts = sum_morphisms(
                            sub_restriction(sys, f, ma),
                            sub_restriction(sys, g, mb))
                        if (lhs_comp != rhs_comp
                                or img_s.elements != img_parts.sub.elements
                                or rest_s != rest_parts):
                            ok4 = False
                            wit4 = {"f": serialize_morphism(f),
                                    "g": serialize_morphism(g),
                                    "m_a": serialize_subobject(ma),
                                    "m_b": serialize_subobject(mb)}
                            break
                    if not ok4:
                        break
                if not ok4:
                    break
            if not ok4:
                break

    sides = (("factorization_of_sum_is_sum_of_factorizations", ok1),
             ("sum_middle_objects_agree", ok2),
             ("single_summand_pieces_consistent", ok3),
             ("direct_summand_sweep", ok4))
    passed = ok1 and ok2 and ok3 and ok4
    wits = tuple(dict(w, side=s, kind="counterexample")
                 for w, s in ((wit1, sides[0][0]), (wit2, sides[1][0]),
                              (wit3, sides[2][0]), (wit4, sides[3][0])) if w)
    return Verdict("E", ctx.name, None, bound, sides, None, "ok", None,
                   passed, wits,
                   (("morphism_pairs", n1), ("image_combinations", n2),
                    ("summand_pieces", n3), ("direct_quadruples", n4)))


# ---------------------------------------------------------------- checker F

def check_pb_stability_closed_e_monos(ctx: Context, family: ClosureFamily,
                                      bound: int, memo=None) -> Verdict:
    """Closed E-monos between binary sums pull back along the injections to
    closed E-monos."""
    gate, gate_wit = _gate_closed_sums(ctx, family, bound, memo)
    if not gate:
        return _gated("F", ctx, family, bound,
                      "sums of closed embeddings are closed embeddings", gate_wit)
    ok, wit, count = _injection_pullback_side(ctx, ctx.objects(bound), family)
    sides = (("closed_e_monos_pull_back_closed", ok),)
    wits = ()
    if wit is not None:
        wits = (dict(wit, kind="counterexample" if not ok else "confirming"),)
    return Verdict("F", ctx.name, family.name, bound, sides, None, "ok", None,
                   ok, wits, (("closed_e_monos", count),))


# ------------------------------------------------------------- checkers G/H

def _continuous_pool(ctx: Context, family: ClosureFamily, pool, cls_of):
    spaces: dict[FiniteObject, Space] = {}

    def space_of(ob: FiniteObject) -> Space:
        sp = spaces.get(ob)
        if sp is None:
            sp = Space(ob, cls_of(ob), family.name)
            spaces[ob] = sp
        return sp

    morphisms = []
    for src in pool:
        fs = cls_of(src)
        for tgt in pool:
            ft = cls_of(tgt)
            for f in ctx.hom(src, tgt):
                if _continuous_fast(f.idx, fs, ft, src.size):
                    morphisms.append(SpaceMorphism(f, space_of(src), space_of(tgt)))
    return morphisms, space_of


def _sum_space_morphism(ctx: Context, sf: SpaceMorphism, sg: SpaceMorphism,
                        space_of) -> SpaceMorphism:
    src = ctx.coproduct(sf.f.source, sg.f.source)
    tgt = ctx.coproduct(sf.f.target, sg.f.target)
    s = sum_morphisms(sf.f, sg.f, src.ob, tgt.ob)
    return SpaceMorphism(s, space_of(src.ob), space_of(tgt.ob))


def check_sum_proper(ctx: Context, family: ClosureFamily,
                     bound: int, memo=None) -> Verdict:
    """Sums of proper morphisms are proper; the compact spaces are closed
    under binary sums iff the empty inclusion and the codiagonal of every
    space are proper."""
    gate, gate_wit = _gate_c_both(ctx, family, bound, memo)
    if not gate:
        return _gated("G", ctx, family, bound,
                      "sums of closed morphisms are closed", gate_wit)
    pool = ctx.objects(bound)
    cls_of = _component_cache(family)
    morphisms, space_of = _continuous_pool(ctx, family, pool, cls_of)
    proper = [sf for sf in morphisms
              if is_proper_witness(family, pool, sf, bound)[0]]
    ok1 = True
    wit1 = None
    n1 = 0
    for sf in proper:
        for sg in proper:
            n1 += 1
            ssum = _sum_space_morphism(ctx, sf, sg, space_of)
            good, bad = is_proper_witness(family, pool, ssum, bound)
            if not good:
                ok1 = False
                wit1 = {"f": serialize_morphism(sf.f),
                        "g": serialize_morphism(sg.f), "failure": bad}
                break
        if not ok1:
            break

    compact = [x for x in pool
               if is_proper_witness(family, pool,
                                    terminal_space_morphism(family, space_of(x)),
                                    bound)[0]]
    ok2a = True
    wit2a = None
    n2a = 0
    for x in compact:
        for y in compact:
            n2a += 1
            cp = ctx.coproduct(x, y)
            tm = terminal_space_morphism(family, space_of(cp.ob))
            good, bad = is_proper_witness(family, pool, tm, bound)
            if not good:
                ok2a = False
                wit2a = {"x": serialize_object(x), "y": serialize_object(y),
                         "failure": bad}
                break
        if not ok2a:
            break

    ok2b = True
    wit2b = None
    n2b = 0
    zero = initial(ctx.ordered)
    for x in pool:
        n2b += 1
        empty_in = SpaceMorphism(Morphism(zero, x, ()),
                                 space_of(zero), space_of(x))
        good, bad = is_proper_witness(family, pool, empty_in, bound)
        if good:
            cp = ctx.coproduct(x, x)
            fold = copair(identity(x), identity(x), cp.ob)
            fold_sm = SpaceMorphism(fold, space_of(cp.ob), space_of(x))
            good, bad = is_proper_witness(family, pool, fold_sm, bound)
        if not good:
            ok2b = False
            wit2b = {"x": serialize_object(x), "failure": bad}
            break

    sides = (("sums_of_proper_proper", ok1),
             ("sums_of_compact_compact", ok2a),
             ("empty_inclusion_and_codiagonal_proper", ok2b))
    passed = ok1 and (ok2a == ok2b)
    wits = tuple(dict(w, side=s, kind="counterexample")
                 for w, s in ((wit1, sides[0][0]), (wit2a, sides[1][0]),
                              (wit2b, sides[2][0])) if w)
    return Verdict("G", ctx.name, family.name, bound, sides, ok2a == ok2b,
                   "ok", None, passed, wits,
                   (("proper_pairs", n1), ("compact_pairs", n2a),
                    ("spaces", n2b)))


def check_sum_separated(ctx: Context, family: ClosureFamily,
                        bound: int, memo=None) -> Verdict:
    """Sums of separated morphisms are separated; the Hausdorff spaces are
    closed under binary sums iff the two-point sum of terminals is
    Hausdorff."""
    gate, gate_wit = _gate_c_both(ctx, family, bound, memo)
    if not gate:
        return _gated("H", ctx, family, bound,
                      "sums of closed morphisms are closed", gate_wit)
    pool = ctx.objects(bound)
    cls_of = _component_cache(family)
    morphisms, space_of = _continuous_pool(ctx, family, pool, cls_of)
    separated = [sf for sf in morphisms
                 if is_separated_witness(family, pool, sf, bound)[0]]
    ok1 = True
    wit1 = None
    n1 = 0
    for sf in separated:
        for sg in separated:
            n1 += 1
            ssum = _sum_space_morphism(ctx, sf, sg, space_of)
            good, bad = is_separated_witness(family, pool, ssum, bound)
            if not good:
                ok1 = False
                wit1 = {"f": serialize_morphism(sf.f),
                        "g": serialize_morphism(sg.f), "failure": bad}
                break
        if not ok1:
            break

    hausdorff = [x for x in pool
                 if is_separated_witness(
                     family, pool,
                     terminal_space_morphism(family, space_of(x)), bound)[0]]
    ok2a = True
    wit2a = None
    n2a = 0
    for x in hausdorff:
        for y in hausdorff:
            n2a += 1
            cp = ctx.coproduct(x, y)
            tm = terminal_space_morphism(family, space_of(cp.ob))
            good, bad = is_separated_witness(family, pool, tm, bound)
            if not good:
                ok2a = False
                wit2a = {"x": serialize_object(x), "y": serialize_object(y),
                         "failure": bad}
                break
        if not ok2a:
            break

    one = terminal(ctx.ordered)
    two = ctx.coproduct(one, one)
    ok2b, wit2b = is_separated_witness(
        family, pool, terminal_space_morphism(family, space_of(two.ob)), bound)

    sides = (("sums_of_separated_separated", ok1),
             ("sums_of_hausdorff_hausdorff", ok2a),
             ("two_point_sum_hausdorff", ok2b))
    passed = ok1 and (ok2a == ok2b)
    wits = tuple(dict(w, side=s, kind="counterexample")
                 for w, s in ((wit1, sides[0][0]), (wit2a, sides[1][0]),
                              (wit2b, sides[2][0])) if w)
    return Verdict("H", ctx.name, family.name, bound, sides, ok2a == ok2b,
                   "ok", None, passed, wits,
                   (("separated_pairs", n1), ("hausdorff_pairs", n2a),
                    ("hausdorff_spaces", len(hausdorff))))


# ------------------------------------------------------- adjunction checker

def _admissible_adjunction_side(ctx: Context, pool):
    """Family-independent side: the sum lattice is that of the plain
    constructed coproduct, whatever coproduct the context builds."""
    n_adm = 0
    for x, y in _object_pairs(pool):
        rep = check_adjunction_admissible(
            ctx.sub_lattice(x), ctx.sub_lattice(y),
            ctx.sub_lattice(coproduct(x, y).ob))
        n_adm += rep.checks[0].checked
        if not rep.passed:
            return False, rep.checks[0].witness, n_adm
    return True, None, n_adm


def check_adjunctions(ctx: Context, family: ClosureFamily,
                      bound: int, memo=None) -> Verdict:
    """The join of tagged extensions is left adjoint to componentwise
    preimage, both on admissible and on closed subobject lattices."""
    pool = ctx.objects(bound)
    cls_of = _component_cache(family)
    adm_key = ("adjunction_admissible", bound)
    if memo is not None and adm_key in memo:
        ok_adm, wit_adm, n_adm = memo[adm_key]
    else:
        ok_adm, wit_adm, n_adm = _admissible_adjunction_side(ctx, pool)
        if memo is not None:
            memo[adm_key] = (ok_adm, wit_adm, n_adm)

    ok_cls = True
    wit_cls = None
    n_cls = 0
    for x, y in _object_pairs(pool):
        fx, fy = cls_of(x), cls_of(y)
        cp = ctx.coproduct(x, y)
        fsum = cls_of(cp.ob)
        nx = x.size
        closed_x = [s.mask for s in ctx.sub_lattice(x) if fx(s.mask) == s.mask]
        closed_y = [s.mask for s in ctx.sub_lattice(y) if fy(s.mask) == s.mask]
        closed_sum = [s.mask for s in ctx.sub_lattice(cp.ob)
                      if fsum(s.mask) == s.mask]
        for u in closed_x:
            for v in closed_y:
                lhs_val = fsum(u | (v << nx))
                for w in closed_sum:
                    n_cls += 1
                    lhs = lhs_val & ~w == 0
                    rhs = (u & ~(w & ((1 << nx) - 1)) == 0
                           and v & ~(w >> nx) == 0)
                    if lhs != rhs:
                        ok_cls = False
                        wit_cls = {
                            "x": serialize_object(x), "y": serialize_object(y),
                            "u": list(x.labels_of(u)), "v": list(y.labels_of(v)),
                            "w": list(cp.ob.labels_of(w)),
                            "lhs": lhs, "rhs": rhs}
                        break
                if not ok_cls:
                    break
            if not ok_cls:
                break
        if not ok_cls:
            break

    sides = (("admissible_extension_adjunction", ok_adm),
             ("closed_extension_adjunction", ok_cls))
    passed = ok_adm and ok_cls
    wits = tuple(dict(w, side=s, kind="counterexample")
                 for w, s in ((wit_adm, sides[0][0]), (wit_cls, sides[1][0]))
                 if w)
    return Verdict("adjunctions", ctx.name, family.name, bound, sides, None,
                   "ok", None, passed, wits,
                   (("admissible_triples", n_adm), ("closed_triples", n_cls)))


# --------------------------------------------------------- biproduct checker

HOM_ENUMERATION_CAP = 4096


def check_biproduct(ctx: Context, family: ClosureFamily,
                    bound: int, memo=None) -> Verdict:
    """Subobject and closed-subobject lattices of binary sums split as
    biproducts, and homs between sum lattices round-trip through their 2x2
    matrices."""
    gate, gate_wit = _gate_closed_sums(ctx, family, bound, memo)
    if not gate:
        return _gated("biproduct", ctx, family, bound,
                      "sums of closed embeddings are closed embeddings",
                      gate_wit)
    sys = ctx.system
    pool = ctx.objects(bound)
    ok_sub = True
    wit_sub = None
    n_sub = 0
    ok_cls = True
    wit_cls = None
    for x, y in _object_pairs(pool):
        n_sub += 1
        cp = ctx.coproduct(x, y)
        bp = subobject_biproduct(sys, x, y, cp)
        if not bp.passed:
            ok_sub = False
            wit_sub = {"x": serialize_object(x), "y": serialize_object(y),
                       "failed": [c.id for c in bp.report.failed()]}
            break
        cbp = closed_biproduct(sys, family, x, y, cp)
        if not cbp.passed:
            ok_cls = False
            wit_cls = {"x": serialize_object(x), "y": serialize_object(y),
                       "failed": [c.id for c in cbp.report.failed()]}
            break

    rt_key = ("biproduct_roundtrip", bound)
    if memo is not None and rt_key in memo:
        ok_rt, wit_rt, n_rt = memo[rt_key]
        return _biproduct_verdict(ctx, family, bound, ok_sub, wit_sub, ok_cls,
                                  wit_cls, ok_rt, wit_rt, n_sub, n_rt)
    ok_rt = True
    wit_rt = None
    n_rt = 0
    small = [x for x in pool if x.size <= 2]
    bps = {}
    for x, y in _object_pairs(small):
        bps[(x, y)] = subobject_biproduct(sys, x, y, ctx.coproduct(x, y))
    for src_key, bp_s in bps.items():
        for tgt_key, bp_t in bps.items():
            irr = len(join_irreducibles(bp_s.total))
            expected = bp_t.total.n ** irr if irr else 1
            if expected <= HOM_ENUMERATION_CAP:
                homs = enumerate_homs(bp_s.total, bp_t.total)
            else:
                homs = [identity_hom(bp_s.total)] if bp_s.total is bp_t.total else []
                from .semilattice import zero_hom
                homs = list(homs) + [zero_hom(bp_s.total, bp_t.total)]
            for h in homs:
                n_rt += 1
                mat = hom_matrix(bp_s, bp_t, h)
                back = matrix_to_hom(bp_s, bp_t, mat)
                if back != h:
                    ok_rt = False
                    wit_rt = {"source_pair": [o.label for o in src_key],
                              "target_pair": [o.label for o in tgt_key],
                              "hom_table": list(h.table)}
                    break
                mat2 = hom_matrix(bp_s, bp_t, back)
                if any(mat2[i][j] != mat[i][j] for i in range(2) for j in range(2)):
                    ok_rt = False
                    wit_rt = {"source_pair": [o.label for o in src_key],
                              "target_pair": [o.label for o in tgt_key],
                              "hom_table": list(h.table),
                              "reason": "matrix round-trip"}
                    break
            if not ok_rt:
                break
        if not ok_rt:
            break
    if memo is not None:
        memo[rt_key] = (ok_rt, wit_rt, n_rt)
    return _biproduct_verdict(ctx, family, bound, ok_sub, wit_sub, ok_cls,
                              wit_cls, ok_rt, wit_rt, n_sub, n_rt)


def _biproduct_verdict(ctx, family, bound, ok_sub, wit_sub, ok_cls, wit_cls,
                       ok_rt, wit_rt, n_sub, n_rt) -> Verdict:
    sides = (("subobject_lattice_biproduct", ok_sub),
             ("closed_lattice_biproduct", ok_cls),
             ("hom_matrix_roundtrip", ok_rt))
    passed = ok_sub and ok_cls and ok_rt
    wits = tuple(dict(w, side=s, kind="counterexample")
                 for w, s in ((wit_sub, sides[0][0]), (wit_cls, sides[1][0]),
                              (wit_rt, sides[2][0])) if w)
    return Verdict("biproduct", ctx.name, family.name, bound, sides, None,
                   "ok", None, passed, wits,
                   (("object_pairs", n_sub), ("homs_roundtripped", n_rt)))


# ----------------------------------------------------------------- validate

def check_validate(ctx: Context, family: ClosureFamily | None,
                   bound: int, memo=None) -> Verdict:
    """Wrap the extensivity, factorization, and closure validators."""
    from .closure import validate_closure
    ext = ctx.validate_extensive(bound)
    fac = ctx.validate_factorization(bound)
    sides = [("extensivity", ext.passed), ("factorization", fac.passed)]
    reports = [ext.to_dict(), fac.to_dict()]
    fams = (family,) if family is not None else ctx.families
    for fam in fams:
        rep = validate_closure(fam, ctx.system, ctx.objects(bound))
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


def run_checker(theorem: str, ctx: Context, family: ClosureFamily | None,
                bound: int, memo=None) -> Verdict:
    if theorem not in CHECKERS:
        raise KeyError(f"unknown theorem id: {theorem}")
    fn = CHECKERS[theorem]
    if theorem in FAMILY_FREE:
        return fn(ctx, bound, memo)
    if theorem == "validate":
        return fn(ctx, family, bound, memo)
    if family is None:
        raise ValueError(f"checker {theorem} needs a closure family")
    return fn(ctx, family, bound, memo)
