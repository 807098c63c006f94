"""Admissible subobject lattices and the tagged-sum calculus on them."""

import itertools

import pytest

from extcheck import theorems
from extcheck.contexts import (
    Context,
    builtin,
    crossed_coproduct_context,
    split_mono_context,
    swapped_system_context,
)
from extcheck.core import (
    FiniteObject,
    Morphism,
    compose,
    copair,
    coproduct,
    make_preorder,
    sum_morphisms,
)
from extcheck.factorization import FactorizationSystem, image_factorization
from extcheck.subobjects import (
    L_map,
    R_map,
    Subobject,
    check_adjunction_admissible,
    corestriction,
    enumerate_subobjects,
    image,
    iota_map,
    preimage,
    restriction,
    subobject_from_mask,
    sum_subobjects,
)


@pytest.fixture(params=["finset", "finpre"])
def ctx(request):
    return builtin(request.param)


SIERPINSKI = FiniteObject(("s0", "s1"),
                          make_preorder(("s0", "s1"), [("s0", "s1")]))


def test_every_subset_is_admissible_in_builtins(ctx):
    for x in ctx.objects(3):
        lat = ctx.sub_lattice(x)
        assert len(lat) == 2 ** x.size


def test_lattice_order_and_bounds(ctx):
    x = ctx.objects(3)[-1]
    lat = ctx.sub_lattice(x)
    bot, top = lat.bottom(), lat.top()
    for s in lat:
        assert lat.leq(bot, s) and lat.leq(s, top)


def test_meet_is_intersection_join_is_union(ctx):
    x = ctx.objects(2)[-1]
    lat = ctx.sub_lattice(x)
    for a in lat:
        for b in lat:
            meet = lat.meet(a, b)
            join = lat.join(a, b)
            assert meet.mask == a.mask & b.mask
            assert join.mask == a.mask | b.mask


def test_lattice_distributivity(ctx):
    x = ctx.objects(2)[-1]
    assert ctx.sub_lattice(x).is_distributive()


def test_subobject_rep_is_admissible_inclusion(ctx):
    sys = ctx.system
    for x in ctx.objects(2):
        for s in ctx.sub_lattice(x):
            assert sys.in_m(s.rep)
            assert s.rep.source == s.ob


def test_image_and_preimage_are_adjoint(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for f in ctx.hom(x, y):
                for s in ctx.sub_lattice(x):
                    for t in ctx.sub_lattice(y):
                        lhs = image(f, s).leq(t)
                        rhs = s.leq(preimage(f, t))
                        assert lhs == rhs


def test_restriction_and_corestriction_shapes():
    f = Morphism(SIERPINSKI, SIERPINSKI, (("s0", "s0"), ("s1", "s0")))
    s = Subobject(SIERPINSKI, ("s1",))
    r = restriction(f, s)
    assert r.source.elements == ("s1",)
    assert r.target.elements == ("s0",)
    c = corestriction(f, s)
    assert c.target.elements == ("s1",)
    assert c.source.elements == ()
    t = Subobject(SIERPINSKI, ("s0",))
    c2 = corestriction(f, t)
    assert c2.source.elements == ("s0", "s1")


def test_restriction_commutes_with_inclusion(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for f in ctx.hom(x, y):
                for s in ctx.sub_lattice(x):
                    img = image(f, s)
                    r = restriction(f, s)
                    assert compose(img.rep, r) == compose(f, s.rep)


def test_tagged_extension_maps_round_trip(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for a in ctx.sub_lattice(x):
                ext = L_map(a, y)
                back_l, back_r = iota_map(ext)
                assert back_l == a
                assert back_r.mask == 0
            for b in ctx.sub_lattice(y):
                ext = R_map(x, b)
                back_l, back_r = iota_map(ext)
                assert back_l.mask == 0
                assert back_r == b


def test_iota_of_sum_recovers_components(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for a in ctx.sub_lattice(x):
                for b in ctx.sub_lattice(y):
                    res = sum_subobjects(a, b)
                    assert res in ctx.sub_lattice(res.ambient)
                    la, rb = iota_map(res)
                    assert la == a and rb == b


def test_sum_subobject_is_join_of_extensions(ctx):
    sys = ctx.system
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            cp = coproduct(x, y)
            lat = enumerate_subobjects(sys, cp.ob)
            for a in ctx.sub_lattice(x):
                for b in ctx.sub_lattice(y):
                    res = sum_subobjects(a, b)
                    joined = lat.join(L_map(a, y), R_map(x, b))
                    assert res == joined


def _join_raw(p: Subobject, q: Subobject) -> Subobject:
    """The join of two subobjects as the literal M-part of the factorization
    of the copairing of their inclusions."""
    cp = copair(p.rep, q.rep)
    fac = image_factorization(cp)
    carrier = tuple(sorted(set(v for (_, v) in fac.m_part.mapping)))
    return Subobject(p.ambient, carrier)


def _no_two_point_sources(base: Context) -> Context:
    """The base context with M narrowed to morphisms whose source does not
    have two points, so that some sums of admissibles are not admissible."""
    sys = base.system
    narrowed = FactorizationSystem(
        f"{sys.name}|no-2", sys.e_member,
        lambda f: sys.in_m(f) and f.source.size != 2)
    return Context(f"{base.name}!no-2", base.ordered, narrowed, base.families,
                   base.enumerate_objects)


def _with_workload_extras(base: Context) -> Context:
    from test_golden_reports import WORKLOAD_EXTRAS
    return base.with_extra_objects(WORKLOAD_EXTRAS)


SUM_CASES = {
    "finset": ("finset", None),
    "finset!swapped": ("finset", swapped_system_context),
    "finset!split": ("finset", split_mono_context),
    "finset!no-2": ("finset", _no_two_point_sources),
    "finpre": ("finpre", None),
    "finpre!swapped": ("finpre", swapped_system_context),
    "finpre!split": ("finpre", split_mono_context),
    "finpre!crossed": ("finpre", crossed_coproduct_context),
    "finpre!no-2": ("finpre", _no_two_point_sources),
    "finpre+extras": ("finpre", _with_workload_extras),
}


@pytest.mark.parametrize("case", SUM_CASES)
def test_sum_admissibility_by_mask_matches_literal_definition(case):
    """For every admissible a of x and b of y at bound 2, the checkers' mask
    test (a.mask | b.mask << |x| admissible in the plain sum X + Y, and
    checker A's outcome) agrees with the literal definition: the sum of the
    two inclusions is in M, and the image of the copairing of the tagged
    images of a and b is the tagged carrier.  The join of the tagged images
    is always their union."""
    base, variant = SUM_CASES[case]
    ctx = builtin(base) if variant is None else variant(builtin(base))
    sys = ctx.system
    pool = ctx.objects(2)
    outcomes = theorems._sums_admissible_outcomes(ctx, pool)
    seen = set()
    for x, y in itertools.product(pool, repeat=2):
        sum_masks = theorems._sum_masks(ctx, x, y)
        for a in ctx.sub_lattice(x):
            for b in ctx.sub_lattice(y):
                cp = coproduct(a.ambient, b.ambient)
                img_l, img_r = image(cp.inl, a), image(cp.inr, b)
                joined = _join_raw(img_l, img_r)
                assert joined.mask == img_l.mask | img_r.mask
                literal = (sys.in_m(sum_morphisms(a.rep, b.rep, None, cp.ob))
                           and joined.elements == sum_subobjects(a, b).elements)
                assert ((a.mask | (b.mask << x.size)) in sum_masks) == literal
                assert (next(outcomes) is None) == literal
                seen.add(literal)
    assert next(outcomes, "exhausted") == "exhausted"
    assert seen == ({True, False} if case.endswith("no-2") else {True})


def test_admissible_adjunction_reports_pass(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            rep = check_adjunction_admissible(
                ctx.sub_lattice(x), ctx.sub_lattice(y),
                ctx.sub_lattice(coproduct(x, y).ob))
            assert rep.passed, rep.to_dict()


def test_admissible_adjunction_rejects_a_lattice_not_of_the_sum(ctx):
    x, y = ctx.objects(2)[-1], ctx.objects(1)[-1]
    with pytest.raises(ValueError, match="not the constructed sum"):
        check_adjunction_admissible(ctx.sub_lattice(x), ctx.sub_lattice(y),
                                    ctx.sub_lattice(coproduct(y, x).ob))


def test_mask_preimages_and_extensions_match_labels(ctx):
    """The mask arithmetic of the admissible adjunction sweep against the
    label-level iota_map, L_map and R_map, on every constructed sum."""
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            amb = coproduct(x, y).ob
            nx = x.size
            low = (1 << nx) - 1
            for p in ctx.sub_lattice(amb):
                pl, pr = iota_map(p)
                assert (p.mask & low, p.mask >> nx) == (pl.mask, pr.mask)
            for m in ctx.sub_lattice(x):
                assert subobject_from_mask(amb, m.mask) == L_map(m, y)
            for n in ctx.sub_lattice(y):
                assert subobject_from_mask(amb, n.mask << nx) == R_map(x, n)


def test_subobject_from_mask_round_trip(ctx):
    x = ctx.objects(2)[-1]
    for mask in range(1 << x.size):
        s = subobject_from_mask(x, mask)
        assert s.mask == mask
