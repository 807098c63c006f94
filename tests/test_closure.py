"""Closure families, and the derived topological notions on plain maps."""

import pytest

from extcheck.closure import (
    ALEXANDROV,
    IDENTITY,
    INDISCRETE,
    ClosureFamily,
    diagonal_morphism,
    get_family,
    is_proper_witness,
    is_separated_witness,
    to_point,
    validate_closure,
    _closed_fast,
    _continuous_fast,
)
from extcheck.contexts import builtin, crossed_coproduct_context
from extcheck.core import (
    FiniteObject,
    Morphism,
    enumerate_morphisms,
    identity as id_map,
    serialize_morphism,
    sum_morphisms,
)
from extcheck.subobjects import Subobject
from oracles import (
    closed_lattice,
    diagonal_literal,
    is_closed_morphism,
    is_continuous,
    make_preorder,
    proper_literal,
)


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
    fn = ALEXANDROV.component(CHAIN3)
    i2 = CHAIN3.index["c2"]
    assert fn(1 << i2) == (1 << CHAIN3.size) - 1
    i0 = CHAIN3.index["c0"]
    assert fn(1 << i0) == 1 << i0
    assert CHAIN3.labels_of(fn(Subobject(CHAIN3, ("c1",)).mask)) == ("c0", "c1")


def test_indiscrete_closure_grounded_and_total():
    fn = INDISCRETE.component(CHAIN3)
    assert fn(0) == 0
    assert fn(1) == (1 << CHAIN3.size) - 1


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
    src = IDENTITY.component(SIERPINSKI)
    tgt = ALEXANDROV.component(SIERPINSKI)
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
            fx = fam.component(x)
            for y in pool:
                fy = fam.component(y)
                for f in ctx.hom(x, y):
                    lit = is_continuous(f, fx, fy)
                    assert lit == _continuous_fast(f.idx, fx, fy, x.size)
                    if lit:
                        assert is_closed_morphism(f, fx, fy) == _closed_fast(
                            f.idx, fx, fy, x.size)


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
    fc = ALEXANDROV.component(CHAIN3)
    assert not is_closed_morphism(inc_top, ALEXANDROV.component(top), fc)
    assert is_closed_morphism(inc_bot, ALEXANDROV.component(bot), fc)


def test_closed_lattice_of_sierpinski():
    ctx = builtin("finpre")
    closed = closed_lattice(ctx.system, SIERPINSKI, ALEXANDROV.component(SIERPINSKI))
    carriers = sorted(tuple(c.elements) for c in closed)
    assert carriers == [(), ("s0",), ("s0", "s1")]


def test_proper_and_compact_examples():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ALEXANDROV
    # identity on the point is proper
    one = pool[1]
    assert is_proper_witness(fam, pool, id_map(one), 2) == (True, None)
    # every finite alexandrov space is compact
    for x in pool:
        assert is_proper_witness(fam, pool, to_point(x), 2)[0]


def test_indiscrete_non_proper_inclusion():
    # the inclusion of a point into the indiscrete two-point space is not
    # closed, hence not proper
    ctx = builtin("finset")
    pool = ctx.objects(2)
    two = pool[2]
    pt = two.restrict((two.elements[0],))
    inc = Morphism(pt, two, ((two.elements[0], two.elements[0]),))
    fp, f2 = INDISCRETE.component(pt), INDISCRETE.component(two)
    assert is_continuous(inc, fp, f2)
    assert not is_closed_morphism(inc, fp, f2)
    assert not is_proper_witness(INDISCRETE, pool, inc, 2)[0]


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


# Labels that sort below the comma of "(a,b)", so that the kernel pair's
# labels do not sort as its index pairs do.
ODD_LABELS = ("a", "a ", "a!")


def _diagonal_test_maps():
    """Every map of the finset and finpre bound-2 pools, and every map
    among objects with labels that sort below the comma."""
    maps = []
    for name in ("finset", "finpre"):
        ctx = builtin(name)
        pool = ctx.objects(2)
        maps += [f for x in pool for y in pool for f in ctx.hom(x, y)]
    chain = make_preorder(ODD_LABELS, [("a", "a "), ("a ", "a!")])
    for x in (FiniteObject(ODD_LABELS), FiniteObject(ODD_LABELS, chain)):
        ends = (x, x.restrict(ODD_LABELS[1:]))
        maps += [f for s in ends for t in ends for f in enumerate_morphisms(s, t)]
    return maps


def test_diagonal_is_the_kernel_pair_equalizer():
    """`diagonal_morphism` serializes as the equalizer of the kernel pair's
    projections does: the same objects, names, labels and orders."""
    maps = _diagonal_test_maps()
    assert len(maps) > 100
    for f in maps:
        assert serialize_morphism(diagonal_morphism(f)) == serialize_morphism(
            diagonal_literal(f)), f.mapping


@pytest.mark.parametrize("fam_name", ["alexandrov", "identity", "indiscrete"])
def test_separated_test_is_the_proper_test_of_the_literal_diagonal(fam_name):
    """At finpre bound 2, on every map of the pool and every map from a sum
    of two to the point, a continuous map's separated test gives the
    (ok, witness) of the proper test of its kernel-pair diagonal."""
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ctx.family(fam_name)
    maps = [f for x in pool for y in pool for f in ctx.hom(x, y)]
    maps += [to_point(ctx.coproduct(x, y).ob) for x in pool for y in pool]
    failures = 0
    for f in maps:
        got = is_separated_witness(fam, pool, f, 2)
        if is_continuous(f, fam.component(f.source), fam.component(f.target)):
            assert got == is_proper_witness(fam, pool, diagonal_literal(f), 2), (
                f.mapping)
            failures += not got[0]
        else:
            assert got == (False, {"continuous": False})
    # the comparison is not vacuous where the family can fail a map
    assert (failures == 0) == (fam_name == "identity")


def test_sierpinski_is_not_hausdorff_but_discrete_is():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ALEXANDROV
    assert not is_separated_witness(fam, pool, to_point(SIERPINSKI), 2)[0]
    disc = FiniteObject(("d0", "d1"), make_preorder(("d0", "d1")))
    assert is_separated_witness(fam, pool, to_point(disc), 2)[0]


def test_separated_morphisms_examples():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ALEXANDROV
    disc = FiniteObject(("d0", "d1"), make_preorder(("d0", "d1")))
    one = pool[1]
    to_pt = Morphism(disc, one, tuple((e, one.elements[0])
                                      for e in disc.elements))
    assert is_separated_witness(fam, pool, to_pt, 2) == (True, None)
    collapse = Morphism(SIERPINSKI, one,
                        tuple((e, one.elements[0]) for e in SIERPINSKI.elements))
    assert not is_separated_witness(fam, pool, collapse, 2)[0]


def test_hausdorff_for_identity_family_is_universal():
    ctx = builtin("finset")
    pool = ctx.objects(2)
    for x in pool:
        assert is_separated_witness(IDENTITY, pool, to_point(x), 2)[0]


def test_sierpinski_hausdorff_verdict_is_stable_at_bound_3():
    ctx = builtin("finpre")
    pool = ctx.objects(3)
    fam = ALEXANDROV
    assert not is_separated_witness(fam, pool, to_point(SIERPINSKI), 3)[0]


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
    ok, witness = is_proper_witness(ALEXANDROV, pool, f, 3)
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


def _proper_test_maps():
    """Every map with an end in the finpre bound-2 pool and the other in
    the pool or among its sums, the crossed mutant's sums included, and
    every sum of two maps of the pool."""
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    sums = [c.coproduct(x, y).ob for c in (ctx, crossed_coproduct_context(ctx))
            for x in pool for y in pool]
    ends = [(x, y) for x in pool for y in [*pool, *sums]] + [
        (x, y) for x in sums for y in pool]
    maps = [f for x, y in ends for f in enumerate_morphisms(x, y)]
    homs = [f for x in pool for y in pool for f in ctx.hom(x, y)]
    maps += [sum_morphisms(f, g, ctx.coproduct(f.source, g.source).ob,
                           ctx.coproduct(f.target, g.target).ob)
             for f in homs for g in homs]
    return ctx, pool, maps


@pytest.mark.parametrize("fam_name", ["alexandrov", "identity", "indiscrete"])
def test_proper_test_matches_label_level_pullbacks(fam_name):
    """`is_proper_witness`'s apex tables and singleton equations decide each
    map as the literal definition does, with the same first failing w."""
    ctx, pool, maps = _proper_test_maps()
    fam = ctx.family(fam_name)
    failures = 0
    for f in maps:
        ok, witness = is_proper_witness(fam, pool, f, 2)
        lit_ok, lit_w = proper_literal(fam, pool, f, 2)
        assert ok == lit_ok, (f.mapping, witness)
        if not ok:
            failures += 1
            assert witness.get("w") == (lit_w and serialize_morphism(lit_w))
    # the comparison is not vacuous where the family can fail a map
    assert (failures == 0) == (fam_name == "identity")


def _indiscrete_on_two(size, down):
    full = (1 << size) - 1
    return (lambda mask: full if mask else 0) if size == 2 else (lambda mask: mask)


def test_map_that_is_not_continuous_is_reported():
    """Under a family indiscrete on 2 points and the identity elsewhere, the
    inclusion of 2 into 3 is not continuous: both tests report that, the
    separated one although the map's diagonal is continuous and proper."""
    fam = ClosureFamily("indiscrete-on-2", False, _indiscrete_on_two)
    pool = builtin("finset").objects(3)
    two, three = pool[2], pool[3]
    inc = Morphism(two, three, tuple((e, e) for e in two.elements))
    assert not is_continuous(inc, fam.component(two), fam.component(three))
    assert is_proper_witness(fam, pool, inc, 2) == (False, {"continuous": False})
    assert is_separated_witness(fam, pool, inc, 2) == (False, {"continuous": False})
    assert is_proper_witness(fam, pool, diagonal_morphism(inc), 2) == (True, None)
