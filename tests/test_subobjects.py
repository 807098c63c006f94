"""Admissible subobject lattices and the tagged-sum calculus on them."""

import pytest

from extcheck.contexts import builtin
from extcheck.core import FiniteObject, Morphism, compose, coproduct, make_preorder
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
    sys = ctx.system
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for f in ctx.hom(x, y):
                for s in ctx.sub_lattice(x):
                    for t in ctx.sub_lattice(y):
                        lhs = image(sys, f, s).leq(t)
                        rhs = s.leq(preimage(f, t))
                        assert lhs == rhs


def test_restriction_and_corestriction_shapes():
    ctx = builtin("finpre")
    sys = ctx.system
    f = Morphism(SIERPINSKI, SIERPINSKI, (("s0", "s0"), ("s1", "s0")))
    s = Subobject(SIERPINSKI, ("s1",))
    r = restriction(sys, f, s)
    assert r.source.elements == ("s1",)
    assert r.target.elements == ("s0",)
    c = corestriction(f, s)
    assert c.target.elements == ("s1",)
    assert c.source.elements == ()
    t = Subobject(SIERPINSKI, ("s0",))
    c2 = corestriction(f, t)
    assert c2.source.elements == ("s0", "s1")


def test_restriction_commutes_with_inclusion(ctx):
    sys = ctx.system
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for f in ctx.hom(x, y):
                for s in ctx.sub_lattice(x):
                    img = image(sys, f, s)
                    r = restriction(sys, f, s)
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
    sys = ctx.system
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for a in ctx.sub_lattice(x):
                for b in ctx.sub_lattice(y):
                    res = sum_subobjects(sys, a, b)
                    assert res.admissible
                    la, rb = iota_map(res.sub)
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
                    res = sum_subobjects(sys, a, b)
                    joined = lat.join(L_map(a, y), R_map(x, b))
                    assert res.sub == joined


def test_sum_subobject_morphism_is_sum_of_reps(ctx):
    sys = ctx.system
    x = ctx.objects(2)[-1]
    for a in ctx.sub_lattice(x):
        for b in ctx.sub_lattice(x):
            res = sum_subobjects(sys, a, b)
            assert res.morphism.source == coproduct(a.ob, b.ob).ob
            assert sys.in_m(res.morphism)


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
