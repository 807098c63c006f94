"""Closure families, and the derived topological notions on plain maps."""

import pytest

from extcheck.closure import (
    ALEXANDROV,
    IDENTITY,
    INDISCRETE,
    ClosureFamily,
    get_family,
    validate_closure,
    _closed_fast,
    _continuous_fast,
    _kernel_diagonal,
)
from extcheck.contexts import builtin, crossed_coproduct_context
from extcheck.core import (
    FiniteObject,
    Morphism,
    enumerate_morphisms,
    is_isomorphic,
    pair_label,
    points,
)
from extcheck.subobjects import Subobject
from oracles import (
    closed_lattice,
    diagonal_literal,
    hom,
    identity as id_map,
    is_closed_morphism,
    is_continuous,
    is_proper_witness,
    is_separated_witness,
    make_preorder,
    proper_literal,
    sum_morphisms,
    to_point,
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
                for f in hom(ctx, x, y):
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
    assert is_proper_witness(fam, id_map(one)) == (True, None)
    # every finite alexandrov space is compact
    for x in pool:
        assert is_proper_witness(fam, to_point(x))[0]


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
    assert is_proper_witness(INDISCRETE, inc) == (False, {"closed": False})


def test_diagonal_morphism_shape():
    # everything is collapsed, so the kernel pair is the full square and
    # the diagonal picks out its two reflexive points, (0,0) and (1,1)
    f = Morphism(SIERPINSKI, SIERPINSKI, (("s0", "s0"), ("s1", "s0")))
    pairs, down, diagonal = _kernel_diagonal(f.idx, f.source)
    assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert diagonal == (0, 3)
    # ordered componentwise: (0,0) lies below every pair
    assert [points(d) for d in down] == [(0,), (0, 1), (0, 2), (0, 1, 2, 3)]
    inj = Morphism(SIERPINSKI, SIERPINSKI, (("s0", "s0"), ("s1", "s1")))
    assert _kernel_diagonal(inj.idx, SIERPINSKI)[1:] == ((0b01, 0b11), (0, 1))
    plain = FiniteObject(("s0", "s1"))
    assert _kernel_diagonal(id_map(plain).idx, plain)[1:] == ((), (0, 1))


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
        maps += [f for x in pool for y in pool for f in hom(ctx, x, y)]
    chain = make_preorder(ODD_LABELS, [("a", "a "), ("a ", "a!")])
    for x in (FiniteObject(ODD_LABELS), FiniteObject(ODD_LABELS, chain)):
        ends = (x, x.restrict(ODD_LABELS[1:]))
        maps += [f for s in ends for t in ends for f in enumerate_morphisms(s, t)]
    return maps


def test_diagonal_is_the_kernel_pair_equalizer():
    """`_kernel_diagonal`'s index pairs, order and table, labelled "(a,b)",
    are the equalizer of the kernel pair's projections: the same points,
    the same order, and the diagonal onto the pairs (a,a)."""
    maps = _diagonal_test_maps()
    assert len(maps) > 100
    for f in maps:
        pairs, down, diagonal = _kernel_diagonal(f.idx, f.source)
        e = f.source.elements
        labels = [pair_label(e[a], e[b]) for a, b in pairs]
        lit = diagonal_literal(f)
        assert sorted(lit.target.elements) == sorted(labels), f.mapping
        order = None if not f.source.has_order else {
            (labels[j], labels[k]) for k, row in enumerate(down) for j in points(row)}
        assert lit.target.order == order, f.mapping
        assert lit.table == {pair_label(x, x): labels[k] for x, k in zip(e, diagonal)}, (
            f.mapping)


def _literal_proper_verdict(fam, f):
    """(ok, witness) of "continuous and closed" from the literal sweeps."""
    src_fn, tgt_fn = fam.component(f.source), fam.component(f.target)
    if not is_continuous(f, src_fn, tgt_fn):
        return False, {"continuous": False}
    if not is_closed_morphism(f, src_fn, tgt_fn):
        return False, {"closed": False}
    return True, None


@pytest.mark.parametrize("fam_name", ["alexandrov", "identity", "indiscrete"])
def test_separated_test_is_the_proper_test_of_the_literal_diagonal(fam_name):
    """On every map of `_diagonal_test_maps` the family applies to, and
    every map from a sum of two finpre bound-2 objects to the point, a
    continuous map's separated test gives the (ok, witness) of the literal
    sweeps on its kernel-pair diagonal, and the verdict of the literal
    proper test of that diagonal."""
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ctx.family(fam_name)
    maps = [f for f in _diagonal_test_maps() if f.source.has_order or not fam.needs_order]
    maps += [to_point(ctx.coproduct(x, y).ob) for x in pool for y in pool]
    failures = 0
    for f in maps:
        got = is_separated_witness(fam, f)
        if is_continuous(f, fam.component(f.source), fam.component(f.target)):
            diagonal = diagonal_literal(f)
            assert got == _literal_proper_verdict(fam, diagonal), f.mapping
            assert got[0] == proper_literal(fam, pool, diagonal, 2)[0], f.mapping
            failures += not got[0]
        else:
            assert got == (False, {"continuous": False})
    # the comparison is not vacuous where the family can fail a map
    assert (failures == 0) == (fam_name == "identity")


def test_sierpinski_is_not_hausdorff_but_discrete_is():
    fam = ALEXANDROV
    assert is_separated_witness(fam, to_point(SIERPINSKI)) == (False, {"closed": False})
    disc = FiniteObject(("d0", "d1"), make_preorder(("d0", "d1")))
    assert is_separated_witness(fam, to_point(disc)) == (True, None)


def test_separated_morphisms_examples():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    fam = ALEXANDROV
    disc = FiniteObject(("d0", "d1"), make_preorder(("d0", "d1")))
    one = pool[1]
    to_pt = Morphism(disc, one, tuple((e, one.elements[0])
                                      for e in disc.elements))
    assert is_separated_witness(fam, to_pt) == (True, None)
    collapse = Morphism(SIERPINSKI, one,
                        tuple((e, one.elements[0]) for e in SIERPINSKI.elements))
    assert not is_separated_witness(fam, collapse)[0]


def test_hausdorff_for_identity_family_is_universal():
    ctx = builtin("finset")
    pool = ctx.objects(2)
    for x in pool:
        assert is_separated_witness(IDENTITY, to_point(x))[0]


def test_sierpinski_hausdorff_verdict_is_stable_at_bound_3():
    # Under alexandrov a space is Hausdorff exactly when its order is
    # discrete: the diagonal's image of the down-set of a is the pairs
    # (b, b) below a, and the down-set of (a, a) is all of down a x down a.
    # Sierpinski space is in the bound-3 pool, up to isomorphism.
    pool = builtin("finpre").objects(3)
    assert any(is_isomorphic(x, SIERPINSKI) for x in pool)
    for x in pool:
        discrete = sum(1 for _ in x.order) == x.size
        assert is_separated_witness(ALEXANDROV, to_point(x))[0] == discrete, x.label


def test_failing_proper_witness_is_pinned():
    # The constant map from the 3-point fork p1 <= p2, p1 <= p3 onto p1 of
    # the 2-point indiscrete preorder is monotone, and not proper under
    # alexandrov: the image of the down-set of p1 is {p1}, the down-set of
    # its image both points.  The witness names the failed condition.
    from test_golden_reports import WORKLOAD_EXTRAS

    ctx = builtin("finpre").with_extra_objects(WORKLOAD_EXTRAS)
    pool = ctx.objects(2)
    fork = next(x for x in pool if x.name == "fork3")
    pair = next(x for x in pool if x.name == "pre2_2")
    f = Morphism(fork, pair, (("p1", "p1"), ("p2", "p1"), ("p3", "p1")))
    assert is_proper_witness(ALEXANDROV, f) == (False, {"closed": False})
    assert not proper_literal(ALEXANDROV, pool, f, 3)[0]


def _proper_test_maps(name="finpre", bound=2):
    """Every map with an end in the context's pool at `bound` and the other
    in that pool or among the sums of its bound-2 pool, the crossed
    mutant's sums included when ordered, and every sum of two maps of the
    bound-2 pool."""
    ctx = builtin(name)
    pool, small = ctx.objects(bound), ctx.objects(2)
    sums = [c.coproduct(x, y).ob
            for c in [ctx] + ([crossed_coproduct_context(ctx)] if ctx.ordered else [])
            for x in small for y in small]
    ends = [(x, y) for x in pool for y in [*pool, *sums]] + [
        (x, y) for x in sums for y in pool]
    maps = [f for x, y in ends for f in enumerate_morphisms(x, y)]
    homs = [f for x in small for y in small for f in hom(ctx, x, y)]
    maps += [sum_morphisms(f, g, ctx.coproduct(f.source, g.source).ob,
                           ctx.coproduct(f.target, g.target).ob)
             for f in homs for g in homs]
    return ctx, pool, maps


def _check_proper_test_against_literal(ctx, pool, maps, fam_name, bound):
    """Each map's verdict is that of the literal definition at `bound`, and
    a failing map's witness names the condition that fails."""
    fam = ctx.family(fam_name)
    failures = 0
    for f in maps:
        ok, witness = is_proper_witness(fam, f)
        assert ok == proper_literal(fam, pool, f, bound)[0], (f.mapping, witness)
        if not ok:
            failures += 1
            assert witness == _literal_proper_verdict(fam, f)[1], f.mapping
    # the comparison is not vacuous where the family can fail a map
    assert (failures == 0) == (fam_name == "identity")


@pytest.mark.parametrize("fam_name", ["alexandrov", "identity", "indiscrete"])
def test_proper_test_matches_label_level_pullbacks(fam_name):
    """Continuous and closed decides each map as the literal definition
    does, on label-level pullbacks from test sources of up to 2 points."""
    _check_proper_test_against_literal(*_proper_test_maps(), fam_name, 2)


@pytest.mark.parametrize("fam_name", ["identity", "indiscrete"])
def test_proper_test_matches_label_level_pullbacks_on_finset(fam_name):
    """The same at finset bound 3, from test sources of up to 3 points."""
    _check_proper_test_against_literal(*_proper_test_maps("finset", 3), fam_name, 3)


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
    assert is_proper_witness(fam, inc) == (False, {"continuous": False})
    assert is_separated_witness(fam, inc) == (False, {"continuous": False})
    assert is_proper_witness(fam, diagonal_literal(inc)) == (True, None)
