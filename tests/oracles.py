"""Label-level reference implementations that the index-native checkers are
compared against.

`make_preorder` is the smallest preorder containing some pairs, which the
tests build objects with.  `is_continuous` and `is_closed_morphism` are
the literal sweeps over every mask that `closure._continuous_fast` and
`_closed_fast` decide in singleton form, and `diagonal_literal` is H's
diagonal as the equalizer of the kernel pair's two projections.
`preimage` and `restriction` are the label-level inverse image and
restriction of a `Subobject` along a `Morphism`.

`enumerate_subobjects` and `join_subobjects` are the admissible subobject
lattice on `Subobject` values: the admissible subsets, and the join as the
image of the copairing of two inclusions; `inclusion_table` is the table
of one subset's inclusion, built from scratch.  `factorization_of_sums` is
checker E as it was written on `Morphism`, `FiniteObject` and `Subobject`
values: every sum, image, restriction and composite is built as an object
and compared by equality.  `pullback_stability` and `coproduct_disjoint`
are the two extensivity laws as they were written on label-level pullbacks,
and `is_block_sum` the property of a sum that lets the validator count the
maps into it instead of pulling each back.
`closed_sum_of_closed_outcomes` is checker C's sum side decided per pair:
the singleton closed-morphism equation of each f + g on its sum tables.
`admissible_adjunction_outcomes` and `closed_adjunction_outcomes` are the
two adjunction sides decided per (m, n, p) triple, and `union_closed` the
biproduct's lattice hypothesis as a sweep over every pair of masks.
`surjective`, `injective` and `order_reflecting` are the class predicates
on label tables, and `has_retraction` the split mutant's M on them.
`failed_pullback` and `injection_pullback_side` are checkers A and F's
pullback side with each injection pullback built as a `Morphism`, and
`proper_literal` is the proper test as its definition reads, on label-level
pullbacks and the literal continuity and closedness sweeps.
`down_arrow_witness` is orthogonality of one pair, its
fast path (`down_arrow_fiberwise`) sweeping the tops u of that pair alone
and its other pairs every square of label-level composites
(`exhaustive_square`),
and `validate_system` is the factorization validator with composites,
image factorizations and M-stability decided on label-level maps, and
orthogonality and completeness per pair.  `join_of` is
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
    image_bits,
    inclusion,
    is_iso,
    monotone_bijections,
    morphism_of,
    points,
    pullback,
    restrict_masks,
    serialize_morphism,
    serialize_object,
    terminal,
    LEFT_TAG,
    RIGHT_TAG,
)
from extcheck.closure import (
    ClosureFamily,
    _closed_fast,
    _continuous_fast,
    proper_witness,
    separated_witness,
)
from extcheck.factorization import image_factorization
from extcheck.subobjects import (
    Subobject,
    image,
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


def hom(ctx, x, y) -> tuple[Morphism, ...]:
    """hom(x, y) of the context's store, every map built label-level."""
    return tuple(ctx.morphism(x, y, t) for t in ctx.hom_tables(x, y))


def identity(x) -> Morphism:
    return Morphism(x, x, tuple((e, e) for e in x.elements))


def table_of(f: Morphism) -> tuple:
    """(index table, source up-masks, target size, target up-masks) of f,
    the arguments of a factorization system's class predicates; the
    up-masks are None for the unordered flavor."""
    return (f.idx, f.source.up_masks, f.target.size,
            f.target.up_masks)


def in_e(sys, f: Morphism) -> bool:
    return sys.e_table(*table_of(f))


def in_m(sys, f: Morphism) -> bool:
    return sys.m_table(*table_of(f))


def sum_morphisms(f: Morphism, g: Morphism, src_sum=None, tgt_sum=None) -> Morphism:
    """f + g between the constructed coproducts, or between `src_sum` and
    `tgt_sum`, which carry their tagged labels."""
    src = coproduct(f.source, g.source).ob if src_sum is None else src_sum
    tgt = coproduct(f.target, g.target).ob if tgt_sum is None else tgt_sum
    mapping = tuple((LEFT_TAG + k, LEFT_TAG + v) for (k, v) in f.mapping) + tuple(
        (RIGHT_TAG + k, RIGHT_TAG + v) for (k, v) in g.mapping)
    return Morphism(src, tgt, mapping)


def bijections(x, y):
    """The monotone bijections x -> y, each built label-level when reached,
    in the order of `monotone_bijections`."""
    return (morphism_of(x, y, t) for t in monotone_bijections(x, y))


def find_iso(x, y) -> Morphism | None:
    """The first monotone bijection x -> y that is an iso, or None."""
    return next((f for f in bijections(x, y) if is_iso(f)), None)


def to_point(ob) -> Morphism:
    """The map from ob to the terminal object of its flavor."""
    return Morphism(ob, terminal(ob.has_order), tuple((e, "*") for e in ob.elements))


def is_proper_witness(family, f: Morphism):
    """`closure.proper_witness` of a label-level map."""
    return proper_witness(ClosureFamily.component, family, f.idx, f.source, f.target)


def is_separated_witness(family, f: Morphism):
    """`closure.separated_witness` of a label-level map."""
    return separated_witness(ClosureFamily.component, family, f.idx, f.source,
                             f.target)


def transitive_closure(pairs: set[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """The least transitive relation containing the label pairs `pairs`."""
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for (c, d) in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return frozenset(closed)


def make_preorder(elements, pairs=()) -> frozenset[tuple[str, str]]:
    """Smallest preorder on `elements` containing `pairs`."""
    base = {(e, e) for e in elements} | set(tuple(p) for p in pairs)
    return transitive_closure(base)


def is_continuous(f: Morphism, src_fn, tgt_fn) -> bool:
    """image(cls u) <= cls(image u) for every subobject u of the source."""
    for mask in range(1 << f.source.size):
        if f.image_mask(src_fn(mask)) & ~tgt_fn(f.image_mask(mask)):
            return False
    return True


def is_closed_morphism(f: Morphism, src_fn, tgt_fn) -> bool:
    """Image commutes with closure on every subobject (literal sweep)."""
    for mask in range(1 << f.source.size):
        if f.image_mask(src_fn(mask)) != tgt_fn(f.image_mask(mask)):
            return False
    return True


def diagonal_literal(f: Morphism) -> Morphism:
    """The diagonal of f as built from its kernel pair, the pullback of f
    along itself: the inclusion of the pairs whose two projections agree."""
    kp = pullback(f, f)
    keep = [e for e in kp.ob.elements if kp.p1.table[e] == kp.p2.table[e]]
    return inclusion(kp.ob.restrict(keep), kp.ob)


def preimage(f: Morphism, sub: Subobject) -> Subobject:
    """Inverse image, the canonical pullback of the inclusion along f."""
    assert sub.ambient == f.target
    keep = set(sub.elements)
    return Subobject(f.source, tuple(e for (e, v) in f.mapping if v in keep))


def restriction(f: Morphism, sub: Subobject) -> Morphism:
    """f cut down to a source subobject, landing on its image."""
    img = image(f, sub)
    return Morphism(sub.ob, img.ob,
                    tuple((e, f.table[e]) for e in sub.elements))


def enumerate_subobjects(sys, x) -> tuple[Subobject, ...]:
    """Every subset of x whose canonical inclusion lies in M, as a
    subobject, smallest first, then by labels."""
    subs = []
    for mask in range(1 << x.size):
        labels = x.labels_of(mask)
        if in_m(sys, inclusion(x.restrict(labels), x)):
            subs.append(Subobject(x, labels))
    subs.sort(key=lambda s: (s.size, s.elements))
    return tuple(subs)


def inclusion_table(x, mask: int) -> tuple:
    """`table_of` the inclusion of the subset `mask` of x into x, built
    from scratch: the table a lattice decides that subset on."""
    idx = points(mask)
    up = x.up_masks
    sub_up = None if up is None else restrict_masks(up, idx)
    return idx, sub_up, x.size, up


def join_subobjects(p: Subobject, q: Subobject) -> Subobject:
    """The join of two subobjects of one object: the M-part of the image
    factorization of the copairing of their inclusions."""
    fac = image_factorization(copair(p.rep, q.rep))
    return Subobject(p.ambient, tuple(set(v for (_, v) in fac.m_part.mapping)))


def closed_lattice(sys, x, fn) -> tuple[Subobject, ...]:
    """Admissible subobjects of x closed under its closure `fn`, in
    lattice enumeration order."""
    return tuple(s for s in enumerate_subobjects(sys, x) if fn(s.mask) == s.mask)


def proper_literal(family, pool, f, bound: int):
    """(ok, first failing test map or None): f is continuous, and for every
    continuous w into f's target from a pool object of at most `bound`
    points, in enumeration order, the projection of the pullback of w
    along f onto w's source is closed, every space under `family`."""
    cls = family.component
    if not is_continuous(f, cls(f.source), cls(f.target)):
        return False, None
    for w_src in pool:
        if w_src.size > bound:
            continue
        for w in enumerate_morphisms(w_src, f.target):
            if not is_continuous(w, cls(w_src), cls(f.target)):
                continue
            pb = pullback(w, f)
            if not is_closed_morphism(pb.p1, cls(pb.ob), cls(w_src)):
                return False, w
    return True, None


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
    for h in bijections(fac.mid, cand_e.target):
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
    homs = [f for x in pool for y in pool for f in hom(ctx, x, y)]
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


def is_block_sum(cp) -> bool:
    """Whether the two legs of `cp` cover each point of the sum exactly once
    and, ordered, the sum's up-mask at leg[b] is the image of the summand's
    at b: the sum's order is the block sum of its summands' orders."""
    up = cp.ob.up_masks
    return (sorted(cp.inl_idx + cp.inr_idx) == list(range(cp.ob.size))
            and (up is None or all(
                up[t] == image_bits(src.up_masks[b], idx)
                for src, idx in ((cp.left, cp.inl_idx), (cp.right, cp.inr_idx))
                for b, t in enumerate(idx))))


def pullback_stability_instances(ctx, bound: int):
    """(x, y, z, f) for every map f: z -> x+y, in the validator's order."""
    pool = ctx.objects(bound)
    for x in pool:
        for y in pool:
            cp = ctx.coproduct(x, y)
            for z in pool:
                for f in hom(ctx, z, cp.ob):
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
    """Every pair (f, g) of closed morphisms, given as blocks (source,
    target, index tables), f + g closed, each decided by `_closed_fast` on
    the table of f + g: f's table followed by g's, shifted past f's
    target."""
    for x, y, f_block in closed:
        for f in f_block:
            for z, w, g_block in closed:
                src_fn = cls_of(ctx.coproduct(x, z).ob)
                tgt_fn = cls_of(ctx.coproduct(y, w).ob)
                for g in g_block:
                    tail = tuple(t + y.size for t in g)
                    yield (None if _closed_fast(f + tail, src_fn, tgt_fn, x.size + z.size)
                           else _maps_witness(ctx.morphism(x, y, f), ctx.morphism(z, w, g)))


def admissible_adjunction_outcomes(lat_x, lat_y, lat_xy):
    """`subobjects.check_adjunction_admissible`'s instances per triple: for
    admissible m of x, n of y and p of their constructed sum, the join of
    the extensions m | n << nx is below p iff m and n are below p's
    preimages p & low and p >> nx."""
    x, y, amb = lat_x.ambient, lat_y.ambient, lat_xy.ambient
    nx = x.size
    low = (1 << nx) - 1
    preimages = [(p, p & low, p >> nx) for p in lat_xy]
    for m in lat_x:
        for n in lat_y:
            join_mask = m | (n << nx)
            for p, pl, pr in preimages:
                lhs = join_mask & ~p == 0
                rhs = m & ~pl == 0 and n & ~pr == 0
                yield None if lhs == rhs else {
                    "m": serialize_subobject(subobject_from_mask(x, m)),
                    "n": serialize_subobject(subobject_from_mask(y, n)),
                    "p": serialize_subobject(subobject_from_mask(amb, p)),
                    "lhs": lhs, "rhs": rhs}


def closed_adjunction_outcomes(ctx, pool, cls_of):
    """The closed adjunction side per triple: for every object pair and
    closed u of x, v of y and w of their sum, the closure of u | v << nx
    below w iff u and v are below w's preimages."""
    for x, y in _object_pairs(pool):
        fx, fy = cls_of(x), cls_of(y)
        cp = ctx.coproduct(x, y)
        fsum = cls_of(cp.ob)
        nx = x.size
        low = (1 << nx) - 1
        closed_x = [u for u in ctx.sub_lattice(x) if fx(u) == u]
        closed_y = [v for v in ctx.sub_lattice(y) if fy(v) == v]
        closed_sum = [w for w in ctx.sub_lattice(cp.ob) if fsum(w) == w]
        for u in closed_x:
            for v in closed_y:
                lhs_val = fsum(u | (v << nx))
                for w in closed_sum:
                    lhs = lhs_val & ~w == 0
                    rhs = u & ~(w & low) == 0 and v & ~(w >> nx) == 0
                    yield (None if lhs == rhs else _witness(
                        x, y, u=list(x.labels_of(u)), v=list(y.labels_of(v)),
                        w=list(cp.ob.labels_of(w)), lhs=lhs, rhs=rhs))


def union_closed(masks) -> bool:
    """`masks` contain 0 and the union of every two of them."""
    masks = set(masks)
    return 0 in masks and all(a | b in masks for a in masks for b in masks)


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
        if not (in_e(sys, pulled) and injective(pulled)
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
                    for e in bijections(src, tgt):
                        if (in_e(sys, e) and injective(e)
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


def _square(e, m, u, v, count):
    """The witness of a failing square, from the label tables of its top
    u and bottom v."""
    return {"e": serialize_morphism(e), "m": serialize_morphism(m),
            "square_u": u, "square_v": v, "diagonals": count}


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
                v = {k: d.elements[t] for k, t in zip(b.elements, v_tab)}
                return False, _square(e, m, u.table, v, 0)
    return True, None


def exhaustive_square(e, m):
    """The literal square sweep on label-level composites: per top u and
    bottom v with v.e = m.u, the diagonals w with m.w = v and w.e = u.  The
    first square without exactly one, as (u, v, count) with the count cut
    at two, or None."""
    bottoms = [(v, compose(v, e)) for v in enumerate_morphisms(e.target, m.target)]
    diagonals = [(compose(m, w), compose(w, e))
                 for w in enumerate_morphisms(e.target, m.source)]
    for u in enumerate_morphisms(e.source, m.source):
        mu = compose(m, u)
        for v, ve in bottoms:
            if ve == mu:
                count = diagonals.count((v, u))
                if count != 1:
                    return u, v, min(count, 2)
    return None


def down_arrow_witness(e, m):
    """Orthogonality of one pair: `down_arrow_fiberwise` for e surjective
    against m injective, else `exhaustive_square`."""
    if surjective(e) and injective(m):
        return down_arrow_fiberwise(e, m)
    square = exhaustive_square(e, m)
    if square is None:
        return True, None
    u, v, count = square
    return False, _square(e, m, u.table, v.table, count)


def validate_system(sys, objects, ctx) -> Report:
    """`factorization.validate_system`, with its composition, factorization,
    M-stability, orthogonality and completeness laws swept label-level:
    composites and image factorizations built as `Morphism`s and classified
    by `in_e`/`in_m`, pullbacks built label-level, and every square search
    per (e, m) pair through this module's `down_arrow_witness`, the
    completeness laws against the members of the other class only.  The
    hom sets are the context's, so that witnesses name the same objects."""
    report = factorization.validate_system(sys, objects, ctx)
    homs = [f for x in objects for y in objects for f in hom(ctx, x, y)]
    e_list = [f for f in homs if in_e(sys, f)]
    m_list = [f for f in homs if in_m(sys, f)]

    def closed_under_composition(members):
        member_set = set(members)
        for f in members:
            for g in members:
                if g.source == f.target:
                    yield (None if compose(g, f) in member_set
                           else {"first": serialize_morphism(f),
                                 "second": serialize_morphism(g)})

    def factorizations_valid():
        for f in homs:
            fac = image_factorization(f)
            e_in, m_in = in_e(sys, fac.e_part), in_m(sys, fac.m_part)
            yield (None if e_in and m_in
                   else {"morphism": serialize_morphism(f),
                         "e_part_in_e": e_in, "m_part_in_m": m_in})

    def m_stable_under_pullback():
        for m in m_list:
            for g in homs:
                if g.target != m.target:
                    continue
                pb = pullback(g, m)
                yield (None if in_m(sys, pb.p1)
                       else {"m": serialize_morphism(m), "along": serialize_morphism(g),
                             "pulled_back": serialize_morphism(pb.p1)})

    def complete(outside, others, orthogonal, reason):
        for f in outside:
            yield (None if any(not orthogonal(f, g)[0] for g in others)
                   else {"morphism": serialize_morphism(f), "reason": reason})

    small_first = sorted(e_list, key=lambda e: (e.source.size, e.target.size))
    laws = {
        "e_closed_under_composition": closed_under_composition(e_list),
        "m_closed_under_composition": closed_under_composition(m_list),
        "factorizations_valid": factorizations_valid(),
        "m_stable_under_pullback": m_stable_under_pullback(),
        "orthogonality": (down_arrow_witness(e, m)[1]
                          for e in e_list for m in m_list),
        "e_complete": complete(
            [f for f in homs if not in_e(sys, f)], m_list, down_arrow_witness,
            "left-orthogonal to all of M but not in E"),
        "m_complete": complete(
            [g for g in homs if not in_m(sys, g)], small_first,
            lambda g, e: down_arrow_witness(e, g),
            "right-orthogonal to all of E but not in M"),
    }
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
