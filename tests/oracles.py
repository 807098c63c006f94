"""Label-level reference implementations that the index-native checkers are
compared against.

`enumerate_subobjects` and `join_subobjects` are the admissible subobject
lattice on `Subobject` values: the admissible subsets, and the join as the
image of the copairing of two inclusions.  `factorization_of_sums` is
checker E as it was written on `Morphism`, `FiniteObject` and `Subobject`
values: every sum, image, restriction and composite is built as an object
and compared by equality.  `pullback_stability` and `coproduct_disjoint`
are the two extensivity laws as they were written on label-level pullbacks.
`closed_sum_of_closed_outcomes` is checker C's sum side decided per pair:
the singleton closed-morphism equation of each f + g on its sum tables.
`surjective`, `injective` and `order_reflecting` are the class predicates
on label tables, and `has_retraction` the split mutant's M on them.
`failed_pullback` and `injection_pullback_side` are checkers A and F's
pullback side with each injection pullback built as a `Morphism`.
`down_arrow_witness` is orthogonality of one pair, its
fast path (`down_arrow_fiberwise`) sweeping the tops u of that pair alone,
and `validate_system` is the factorization validator with M-stability
decided on label-level pullbacks and orthogonality per pair.  `join_of` is
the join of a sequence of elements of a `JoinSemilattice`, folded from its
zero, and `SemilatticeHom` a hom that carries its endpoints, with literal
`is_valid`, composite and join: the reference for the table homs.
"""

from functools import cache
from itertools import groupby

from extcheck import factorization
from extcheck.core import (
    CheckResult,
    Morphism,
    Report,
    compose,
    copair,
    coproduct,
    enumerate_morphisms,
    first_counterexample,
    identity,
    inclusion,
    is_iso,
    monotone_bijections,
    pullback,
    serialize_morphism,
    serialize_object,
    sum_morphisms,
    LEFT_TAG,
    RIGHT_TAG,
)
from extcheck.closure import _closed_fast, _continuous_fast
from extcheck.factorization import (
    _down_arrow_exhaustive,
    _square_witness,
    image_factorization,
)
from extcheck.subobjects import (
    Subobject,
    image,
    preimage,
    restriction,
    serialize_subobject,
    subobject_from_mask,
    sum_subobjects,
)
from extcheck.theorems import (
    _confirmed,
    _maps_witness,
    _object_pairs,
    _verdict,
    _witness,
)


def enumerate_subobjects(sys, x) -> tuple[Subobject, ...]:
    """Every subset of x whose canonical inclusion lies in M, as a
    subobject, smallest first, then by labels."""
    subs = []
    for mask in range(1 << x.size):
        labels = x.labels_of(mask)
        if sys.in_m(inclusion(x.restrict(labels), x)):
            subs.append(Subobject(x, labels))
    subs.sort(key=lambda s: (s.size, s.elements))
    return tuple(subs)


def join_subobjects(p: Subobject, q: Subobject) -> Subobject:
    """The join of two subobjects of one object: the M-part of the image
    factorization of the copairing of their inclusions."""
    fac = image_factorization(copair(p.rep, q.rep))
    return Subobject(p.ambient, tuple(set(v for (_, v) in fac.m_part.mapping)))


def closed_lattice(sys, space) -> tuple[Subobject, ...]:
    """Closed admissible subobjects, in lattice enumeration order."""
    return tuple(s for s in enumerate_subobjects(sys, space.ob)
                 if space.is_closed_mask(s.mask))


def L_map(sub: Subobject, y) -> Subobject:
    """Left extension: a subobject of X viewed inside X+Y (bottom on Y)."""
    amb = coproduct(sub.ambient, y).ob
    return Subobject(amb, tuple(LEFT_TAG + e for e in sub.elements))


def R_map(x, sub: Subobject) -> Subobject:
    """Right extension: a subobject of Y viewed inside X+Y (bottom on X)."""
    amb = coproduct(x, sub.ambient).ob
    return Subobject(amb, tuple(RIGHT_TAG + e for e in sub.elements))


def corestriction(f: Morphism, sub: Subobject) -> Morphism:
    """f cut down to the preimage of a target subobject."""
    pre = preimage(f, sub)
    return Morphism(pre.ob, sub.ob,
                    tuple((e, f.table[e]) for e in pre.elements))


def _factorizations_agree(fac, cand_e, cand_m) -> bool:
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


def _sum_of_inclusions(a, b):
    return sum_morphisms(a.rep, b.rep, None, coproduct(a.ambient, b.ambient).ob)


def factorization_of_sums(ctx, bound: int):
    """Checker E's verdict, every side swept on label-level objects; the
    quadruple side only at bound <= 2."""
    pool = ctx.objects(bound)
    homs = [f for x in pool for y in pool for f in ctx.hom(x, y)]
    fac = {f: image_factorization(f) for f in homs}
    # On the ambient of the context's lattice, whose name a witness shows.
    subs = cache(lambda ob: enumerate_subobjects(ctx.system,
                                                 ctx.sub_lattice(ob).ambient))

    def pair_outcomes():
        for f in homs:
            ff = fac[f]
            for g in homs:
                s = sum_morphisms(f, g)
                fac_s = image_factorization(s)
                cand_e = sum_morphisms(ff.e_part, fac[g].e_part)
                cand_m = sum_morphisms(ff.m_part, fac[g].m_part)
                yield (None if _factorizations_agree(fac_s, cand_e, cand_m)
                       else _maps_witness(f, g))

    def middle_outcomes():
        for x, y in _object_pairs(pool):
            imgs_x = sorted(set(f.image_mask((1 << f.source.size) - 1)
                                for f in homs if f.target == x)
                            | set(s.mask for s in subs(x)))
            imgs_y = sorted(set(s.mask for s in subs(y)))
            cp = ctx.coproduct(x, y)
            for ma in imgs_x:
                sub_a = subobject_from_mask(x, ma)
                for mb in imgs_y:
                    sub_b = subobject_from_mask(y, mb)
                    direct = cp.ob.restrict(
                        tuple(LEFT_TAG + e for e in sub_a.elements)
                        + tuple(RIGHT_TAG + e for e in sub_b.elements))
                    summed = coproduct(sub_a.ob, sub_b.ob).ob
                    yield (None if direct == summed else _witness(
                        x, y, left_carrier=list(sub_a.elements),
                        right_carrier=list(sub_b.elements)))

    def piece_outcomes():
        for f in homs:
            for ma in subs(f.source):
                good = image(f, ma).mask == f.image_mask(ma.mask)
                if good:
                    rest = restriction(f, ma)
                    comp = compose(f, ma.rep)
                    good = (rest.mapping == tuple((e, f.table[e]) for e in ma.elements)
                            and comp.mapping == rest.mapping)
                yield None if good else {"f": serialize_morphism(f),
                                         "m": serialize_subobject(ma)}

    def quadruple_outcomes():
        for f in homs:
            for g in homs:
                s = sum_morphisms(f, g)
                for ma in subs(f.source):
                    for mb in subs(g.source):
                        sub = sum_subobjects(ma, mb)
                        lhs_comp = compose(s, _sum_of_inclusions(ma, mb))
                        rhs_comp = sum_morphisms(compose(f, ma.rep),
                                                 compose(g, mb.rep))
                        img_s = image(s, sub)
                        img_parts = sum_subobjects(image(f, ma), image(g, mb))
                        rest_s = restriction(s, sub)
                        rest_parts = sum_morphisms(restriction(f, ma),
                                                   restriction(g, mb))
                        yield (None if lhs_comp == rhs_comp
                               and img_s.elements == img_parts.elements
                               and rest_s == rest_parts
                               else _maps_witness(f, g, m_a=serialize_subobject(ma),
                                                  m_b=serialize_subobject(mb)))

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


def pullback_stability_instance(ctx, cp, f):
    """One instance of coproduct pullback stability: the comparison out of
    the context's coproduct of the two injection pullbacks of f is an
    isomorphism commuting with everything.  None, or the witness."""
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


def pullback_stability_instances(ctx, bound: int):
    """(x, y, z, f) for every map f: z -> x+y, in the validator's order."""
    pool = ctx.objects(bound)
    for x in pool:
        for y in pool:
            cp = ctx.coproduct(x, y)
            for z in pool:
                for f in ctx.hom(z, cp.ob):
                    yield x, y, z, f


def pullback_stability(ctx, bound: int) -> CheckResult:
    return CheckResult.of("coproducts_pullback_stable", (
        pullback_stability_instance(ctx, ctx.coproduct(x, y), f)
        for x, y, _, f in pullback_stability_instances(ctx, bound)))


def coproduct_disjoint(ctx, bound: int) -> CheckResult:
    pool = ctx.objects(bound)

    def outcomes():
        for x in pool:
            for y in pool:
                cp = ctx.coproduct(x, y)
                yield (None if pullback(cp.inl, cp.inr).ob.size == 0
                       else {"x": serialize_object(x), "y": serialize_object(y)})
    return CheckResult.of("coproduct_disjoint", outcomes())


def closed_sum_of_closed_outcomes(ctx, closed, cls_of):
    """Every pair (f, g) of closed morphisms, f + g closed, each decided by
    `_closed_fast` on the table of f + g: f's table followed by g's,
    shifted past f's target."""
    blocks = [list(block) for _, block in groupby(
        closed, key=lambda f: (f.source, f.target))]
    for f in closed:
        nt = f.target.size
        for block in blocks:
            src_fn = cls_of(ctx.coproduct(f.source, block[0].source).ob)
            tgt_fn = cls_of(ctx.coproduct(f.target, block[0].target).ob)
            n_src = f.source.size + block[0].source.size
            for g in block:
                tail = tuple(t + nt for t in g.idx)
                yield (None if _closed_fast(f.idx + tail, src_fn, tgt_fn, n_src)
                       else _maps_witness(f, g))


def surjective(f) -> bool:
    return len(set(v for (_, v) in f.mapping)) == f.target.size


def injective(f) -> bool:
    vals = [v for (_, v) in f.mapping]
    return len(set(vals)) == len(vals)


def order_reflecting(f) -> bool:
    if not (f.source.has_order and f.target.has_order):
        return True
    tab = f.table
    return all((a, b) in f.source.order
               for a in f.source.elements for b in f.source.elements
               if (tab[a], tab[b]) in f.target.order)


def has_retraction(f) -> bool:
    """Injective, and some morphism r back has r after f the identity."""
    if not injective(f):
        return False
    want = identity(f.source)
    return any(compose(r, f) == want
               for r in enumerate_morphisms(f.target, f.source))


def failed_pullback(sys, e, x, y, cls_of):
    """The first pullback of e along an injection, taken concretely as the
    corestriction of e to the tagged block, that is not a closed E-mono
    under `cls_of`; or None."""
    for component, tag in ((x, LEFT_TAG), (y, RIGHT_TAG)):
        keep = [z for z in e.source.elements if e.table[z].startswith(tag)]
        sub_ob = e.source.restrict(keep)
        pulled = Morphism(sub_ob, component,
                          tuple((z, e.table[z][len(tag):]) for z in keep))
        if not (sys.in_e(pulled) and injective(pulled)
                and _closed_fast(pulled.idx, cls_of(sub_ob),
                                 cls_of(component), sub_ob.size)):
            return pulled
    return None


def injection_pullback_side(ctx, family, bound: int):
    """Checker F's side (A's under the identity closure) as (ok, witness,
    count): every continuous and closed E-mono between constructed binary
    sums of equal size, sums taken by total size, pulls back along both
    injections, built label-level, to closed E-monos."""
    sys = ctx.system
    cls_of = cache(family.component)
    pairs = sorted(_object_pairs(ctx.objects(bound)),
                   key=lambda p: p[0].size + p[1].size)

    def instances():
        for _, group in groupby(pairs, key=lambda p: p[0].size + p[1].size):
            group = list(group)
            for a, b in group:
                src = ctx.coproduct(a, b).ob
                for x, y in group:
                    tgt = ctx.coproduct(x, y).ob
                    for e in monotone_bijections(src, tgt):
                        if (sys.in_e(e) and injective(e)
                                and _continuous_fast(e.idx, cls_of(src), cls_of(tgt),
                                                     src.size)
                                and _closed_fast(e.idx, cls_of(src), cls_of(tgt),
                                                 src.size)):
                            bad = failed_pullback(sys, e, x, y, cls_of)
                            yield bad is None, e, bad

    def describe(e, bad):
        wit = {"e": serialize_morphism(e)}
        return wit if bad is None else dict(wit, pulled_back=serialize_morphism(bad))

    ok, values, n = _confirmed(instances())
    return ok, values and describe(*values), n


def down_arrow_fiberwise(e, m):
    """Orthogonality of e surjective against m injective, per pair: a
    square with top u exists iff u is constant on the fibres of e and the
    induced bottom map is monotone; the diagonal is then the induced map
    itself, so orthogonality fails exactly when it is not monotone."""
    a, b = e.source, e.target
    c, d = m.source, m.target
    ordered = b.has_order and c.has_order
    e_idx, m_idx = e.idx, m.idx
    b_ord = b.order_idx if ordered else ()
    c_up = c.up_masks if ordered else ()
    d_up = d.up_masks if d.has_order else ()
    for u in enumerate_morphisms(a, c):
        u_idx = u.idx
        w_tab = [None] * b.size
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
                return False, _square_witness(e, m, u_idx, v_tab, 0)
    return True, None


def down_arrow_witness(e, m):
    """Orthogonality of one pair: `down_arrow_fiberwise` for e surjective
    against m injective, else the literal sweep over every square."""
    if surjective(e) and injective(m):
        return down_arrow_fiberwise(e, m)
    square = _down_arrow_exhaustive(e, m)
    return square is None, square and _square_witness(e, m, *square)


def validate_system(sys, objects) -> Report:
    """`factorization.validate_system`, with its M-stability law swept on
    label-level pullbacks under `sys.in_m` and its orthogonality law per
    (e, m) pair through this module's `down_arrow_witness`."""
    report = factorization.validate_system(sys, objects)
    homs = [f for x in objects for y in objects for f in enumerate_morphisms(x, y)]
    e_list = [f for f in homs if sys.in_e(f)]
    m_list = [f for f in homs if sys.in_m(f)]

    def m_stable_under_pullback():
        for m in m_list:
            for g in homs:
                if g.target != m.target:
                    continue
                pb = pullback(g, m)
                yield (None if sys.in_m(pb.p1)
                       else {"m": serialize_morphism(m), "along": serialize_morphism(g),
                             "pulled_back": serialize_morphism(pb.p1)})

    laws = {"m_stable_under_pullback": m_stable_under_pullback(),
            "orthogonality": (down_arrow_witness(e, m)[1]
                              for e in e_list for m in m_list)}
    return Report(report.name, tuple(
        CheckResult.of(c.id, laws[c.id]) if c.id in laws else c
        for c in report.checks))


def join_of(lat, indices) -> int:
    out = lat.zero
    for i in indices:
        out = lat.join[out][i]
    return out


class SemilatticeHom:
    """A hom that carries its two lattices: the reference for the table
    arithmetic of `extcheck.semilattice`.  Composites and joins check that
    the endpoints meet, and equality compares endpoints by identity."""

    def __init__(self, source, target, table):
        assert len(table) == source.n
        self.source, self.target, self.table = source, target, tuple(table)

    def __eq__(self, other):
        return (self.source is other.source and self.target is other.target
                and self.table == other.table)

    def is_valid(self) -> bool:
        src, tgt = self.source, self.target
        if self.table[src.zero] != tgt.zero:
            return False
        for i in range(src.n):
            for j in range(i + 1, src.n):
                if self.table[src.join[i][j]] != tgt.join[self.table[i]][self.table[j]]:
                    return False
        return True

    def after(self, h: "SemilatticeHom") -> "SemilatticeHom":
        assert h.target is self.source
        return SemilatticeHom(h.source, self.target,
                              tuple(self.table[t] for t in h.table))

    def join(self, other: "SemilatticeHom") -> "SemilatticeHom":
        assert self.source is other.source and self.target is other.target
        tgt = self.target
        return SemilatticeHom(self.source, tgt, tuple(
            tgt.join[a][b] for a, b in zip(self.table, other.table)))
