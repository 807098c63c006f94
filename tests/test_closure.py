"""Closure families, spaces, and the derived topological notions."""

import pytest

from extcheck.closure import (
    ALEXANDROV,
    IDENTITY,
    INDISCRETE,
    SpaceMorphism,
    dense_closed_factorize,
    diagonal_morphism,
    get_family,
    is_closed_morphism,
    is_compact,
    is_continuous,
    is_dense,
    is_hausdorff,
    is_proper,
    is_proper_witness,
    is_separated,
    subspace,
    validate_closure,
    _closed_fast,
    _continuous_fast,
)
from extcheck.contexts import builtin, crossed_coproduct_context
from extcheck.core import (
    FiniteObject,
    Morphism,
    identity as id_map,
    make_preorder,
)
from extcheck.subobjects import Subobject
from oracles import closed_lattice


SIERPINSKI = FiniteObject(("s0", "s1"),
                          make_preorder(("s0", "s1"), [("s0", "s1")]))
CHAIN3 = FiniteObject(("c0", "c1", "c2"),
                      make_preorder(("c0", "c1", "c2"),
                                    [("c0", "c1"), ("c1", "c2")]))


def test_get_family_knows_all_three():
    assert get_family("identity") is IDENTITY
    assert get_family("indiscrete") is INDISCRETE
    assert get_family("alexandrov") is ALEXANDROV
    with pytest.raises(KeyError):
        get_family("discrete")


def test_alexandrov_closure_is_down_closure():
    sp = ALEXANDROV.space(CHAIN3)
    i2 = CHAIN3.index["c2"]
    assert sp.cls_mask(1 << i2) == (1 << CHAIN3.size) - 1
    i0 = CHAIN3.index["c0"]
    assert sp.cls_mask(1 << i0) == 1 << i0
    assert sp.cls(Subobject(CHAIN3, ("c1",))).elements == ("c0", "c1")


def test_indiscrete_closure_grounded_and_total():
    sp = INDISCRETE.space(CHAIN3)
    assert sp.cls_mask(0) == 0
    assert sp.cls_mask(1) == (1 << CHAIN3.size) - 1


@pytest.mark.parametrize("ctx_name", ["finset", "finpre"])
def test_families_validate_on_builtin_pools(ctx_name):
    ctx = builtin(ctx_name)
    for fam in ctx.families:
        report = validate_closure(fam, ctx.sub_lattice, ctx.objects(3))
        assert report.passed, (fam.name, [c.id for c in report.failed()])


def test_alexandrov_needs_order():
    plain_pair = FiniteObject(("a", "b"), None)
    with pytest.raises(ValueError):
        ALEXANDROV.component(plain_pair)


def test_continuity_identity_to_alexandrov():
    # the identity carrier map from the identity-closure space to the
    # alexandrov space is continuous, the reverse direction is not
    src = IDENTITY.space(SIERPINSKI)
    tgt = ALEXANDROV.space(SIERPINSKI)
    f = id_map(SIERPINSKI)
    assert is_continuous(f, tgt, tgt)
    assert is_continuous(f, src, src)
    assert is_continuous(f, src, tgt)
    assert not is_continuous(f, tgt, src)


def test_fast_paths_agree_with_literal_definitions():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    for fam in ctx.families:
        for x in pool:
            sx = fam.space(x)
            for y in pool:
                sy = fam.space(y)
                for f in ctx.hom(x, y):
                    lit = is_continuous(f, sx, sy)
                    fast = _continuous_fast(f.idx, sx.fn, sy.fn, x.size)
                    assert lit == fast
                    if lit:
                        sf = SpaceMorphism(f, sx, sy)
                        assert is_closed_morphism(sf) == _closed_fast(
                            f.idx, sx.fn, sy.fn, x.size)


def _join_test_objects(name):
    """Every object of the context's pool at bound 3, and every sum object
    of its bound-2 pool, the crossed mutant's too when it is ordered."""
    ctx = builtin(name)
    sums = [ctx] + ([crossed_coproduct_context(ctx)] if ctx.ordered else [])
    pool = ctx.objects(2)
    return ctx, list(ctx.objects(3)) + [c.coproduct(x, y).ob for c in sums
                                         for x in pool for y in pool]


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_registered_closures_preserve_binary_joins(name):
    """The hypothesis of the singleton forms (`_closed_fast`,
    `_continuous_fast`, checker C's per-block sum side): c(u | v) is
    c(u) | c(v) for every pair of masks."""
    ctx, objects = _join_test_objects(name)
    for fam in ctx.families:
        for ob in objects:
            fn = fam.component(ob)
            masks = range(1 << ob.size)
            assert all(fn(u | v) == fn(u) | fn(v) for u in masks for v in masks), (
                fam.name, ob.label)


def test_closed_morphism_down_set_oracle():
    # a monotone map between alexandrov spaces is closed iff its image of
    # every down-set is a down-set; the inclusion of the top of the chain
    # is not closed, the inclusion of the bottom is
    top = CHAIN3.restrict(("c2",))
    bot = CHAIN3.restrict(("c0",))
    inc_top = Morphism(top, CHAIN3, (("c2", "c2"),))
    inc_bot = Morphism(bot, CHAIN3, (("c0", "c0"),))
    sf_top = SpaceMorphism(inc_top, ALEXANDROV.space(top), ALEXANDROV.space(CHAIN3))
    sf_bot = SpaceMorphism(inc_bot, ALEXANDROV.space(bot), ALEXANDROV.space(CHAIN3))
    assert not is_closed_morphism(sf_top)
    assert is_closed_morphism(sf_bot)


def test_dense_morphism_and_dense_closed_factorization():
    top = CHAIN3.restrict(("c2",))
    inc = Morphism(top, CHAIN3, (("c2", "c2"),))
    sf = SpaceMorphism(inc, ALEXANDROV.space(top), ALEXANDROV.space(CHAIN3))
    assert is_dense(sf)
    d, c = dense_closed_factorize(sf)
    assert is_dense(d)
    assert is_closed_morphism(c)
    assert c.f.source == d.f.target
    # middle is the closure of the image: everything below c2
    assert d.f.target.elements == ("c0", "c1", "c2")


def test_dense_closed_factorization_nontrivial_middle():
    mid_pt = CHAIN3.restrict(("c1",))
    inc = Morphism(mid_pt, CHAIN3, (("c1", "c1"),))
    sf = SpaceMorphism(inc, ALEXANDROV.space(mid_pt), ALEXANDROV.space(CHAIN3))
    assert not is_dense(sf)
    d, c = dense_closed_factorize(sf)
    assert d.f.target.elements == ("c0", "c1")
    assert is_dense(d)
    assert is_closed_morphism(c)


def test_subspace_closure_is_trace():
    amb = ALEXANDROV.space(CHAIN3)
    sub = Subobject(CHAIN3, ("c1", "c2"))
    sp = subspace(amb, sub)
    # closing {c2} inside the subspace traces the ambient closure
    m2 = 1 << sp.ob.index["c2"]
    assert sp.ob.labels_of(sp.cls_mask(m2)) == ("c1", "c2")


def test_subspace_of_subspace_composes():
    amb = ALEXANDROV.space(CHAIN3)
    s1 = subspace(amb, Subobject(CHAIN3, ("c0", "c1")))
    s2 = subspace(s1, Subobject(s1.ob, ("c1",)))
    m = 1 << s2.ob.index["c1"]
    assert s2.cls_mask(m) == m


def test_closed_lattice_of_sierpinski():
    ctx = builtin("finpre")
    sp = ALEXANDROV.space(SIERPINSKI)
    closed = closed_lattice(ctx.system, sp)
    carriers = sorted(tuple(c.elements) for c in closed)
    assert carriers == [(), ("s0",), ("s0", "s1")]


def test_proper_and_compact_examples():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ALEXANDROV
    # identity on the point is proper
    one = pool[1]
    sf = SpaceMorphism(id_map(one), fam.space(one), fam.space(one))
    assert is_proper(fam, pool, sf, 2)
    # every finite alexandrov space is compact
    for x in pool:
        assert is_compact(fam, pool, fam.space(x), 2)


def test_indiscrete_non_proper_inclusion():
    # the inclusion of a point into the indiscrete two-point space is not
    # closed, hence not proper
    ctx = builtin("finset")
    pool = ctx.objects(2)
    two = pool[2]
    pt = two.restrict((two.elements[0],))
    inc = Morphism(pt, two, ((two.elements[0], two.elements[0]),))
    sf = SpaceMorphism(inc, INDISCRETE.space(pt), INDISCRETE.space(two))
    assert not is_closed_morphism(sf)
    assert not is_proper(INDISCRETE, pool, sf, 2)


def test_diagonal_morphism_shape():
    # everything is collapsed, so the kernel pair is the full square and
    # the diagonal picks out its two reflexive points
    f = Morphism(SIERPINSKI, SIERPINSKI, (("s0", "s0"), ("s1", "s0")))
    d = diagonal_morphism(f)
    # the source is the reflexive-pair copy of the domain
    from extcheck.core import is_isomorphic
    assert is_isomorphic(d.source, SIERPINSKI)
    assert d.target.size == 4
    inj = Morphism(SIERPINSKI, SIERPINSKI, (("s0", "s0"), ("s1", "s1")))
    assert diagonal_morphism(inj).target.size == 2


def test_sierpinski_is_not_hausdorff_but_discrete_is():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ALEXANDROV
    assert not is_hausdorff(fam, pool, fam.space(SIERPINSKI), 2)
    disc = FiniteObject(("d0", "d1"), make_preorder(("d0", "d1")))
    assert is_hausdorff(fam, pool, fam.space(disc), 2)


def test_separated_morphisms_examples():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ALEXANDROV
    disc = FiniteObject(("d0", "d1"), make_preorder(("d0", "d1")))
    one = pool[1]
    to_pt = Morphism(disc, one, tuple((e, one.elements[0])
                                      for e in disc.elements))
    sf = SpaceMorphism(to_pt, fam.space(disc), fam.space(one))
    assert is_separated(fam, pool, sf, 2)
    collapse = Morphism(SIERPINSKI, one,
                        tuple((e, one.elements[0]) for e in SIERPINSKI.elements))
    sf2 = SpaceMorphism(collapse, fam.space(SIERPINSKI), fam.space(one))
    assert not is_separated(fam, pool, sf2, 2)


def test_hausdorff_for_identity_family_is_universal():
    ctx = builtin("finset")
    pool = ctx.objects(2)
    for x in pool:
        assert is_hausdorff(IDENTITY, pool, IDENTITY.space(x), 2)


def test_sierpinski_hausdorff_verdict_is_stable_at_bound_3():
    ctx = builtin("finpre")
    pool = ctx.objects(3)
    fam = ALEXANDROV
    assert not is_hausdorff(fam, pool, fam.space(SIERPINSKI), 3)


def test_failing_proper_witness_is_pinned():
    # The constant map from the 3-point fork p1 <= p2, p1 <= p3 onto p1 of
    # the 2-point indiscrete preorder is not proper under alexandrov.  The
    # first test map w, the chain collapsed onto p1, passes only because
    # its 6-point apex is ordered componentwise by down-masks: with the
    # apex's up-masks, or its discrete order, that w fails instead, at
    # (p1, p1) and at (p2, p1).  So this witness pins the apex's points,
    # their order and the order relation on them.
    from test_golden_reports import WORKLOAD_EXTRAS

    ctx = builtin("finpre").with_extra_objects(WORKLOAD_EXTRAS)
    pool = ctx.objects(2)
    fork = next(x for x in pool if x.name == "fork3")
    pair = next(x for x in pool if x.name == "pre2_2")
    f = Morphism(fork, pair, (("p1", "p1"), ("p2", "p1"), ("p3", "p1")))
    sf = SpaceMorphism(f, ALEXANDROV.space(fork), ALEXANDROV.space(pair))
    ok, witness = is_proper_witness(ALEXANDROV, pool, sf, 3)
    assert not ok
    assert witness == {
        "w": {"source": {"name": "pre2_1", "elements": ["p1", "p2"],
                         "order": [["p1", "p1"], ["p1", "p2"], ["p2", "p2"]]},
              "target": {"name": "pre2_2", "elements": ["p1", "p2"],
                         "order": [["p1", "p1"], ["p1", "p2"], ["p2", "p1"],
                                   ["p2", "p2"]]},
              "map": {"p1": "p2", "p2": "p1"}},
        "apex": [["p2", "p1"], ["p2", "p2"], ["p2", "p3"]],
        "apex_point": ["p2", "p1"]}
