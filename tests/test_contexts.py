"""Object enumeration, builtin contexts, and the deliberately broken
variants used to prove the validators can fail."""

import math
from pathlib import Path

import pytest

import oracles
from oracles import bijections, hom, make_preorder
from extcheck import contexts
from extcheck.cli import load_objects
from extcheck.contexts import (
    builtin,
    crossed_coproduct_context,
    finpre_objects,
    finset_objects,
    preorders_of_size,
    split_mono_context,
    swapped_system_context,
    validate_extensive,
)
from extcheck.core import (
    Coproduct,
    FiniteObject,
    clopen_splits,
    coproduct,
    enumerate_morphisms,
    initial,
    is_injective,
    is_isomorphic,
    monotone_bijections,
)

# The 3-point preorders the validators benchmark adds to the finpre pool.
VALIDATOR_EXTRAS = (Path(__file__).resolve().parent.parent
                    / "perfbench" / "inputs" / "validators.json")


def test_finset_pool_sizes():
    assert [ob.size for ob in finset_objects(3)] == [0, 1, 2, 3]


def test_preorder_counts_up_to_iso():
    # iso classes of preorders on 0..4 points, OEIS A001930 (size 5, 139
    # classes, takes seconds and is left out)
    assert [len(preorders_of_size(k)) for k in range(5)] == [1, 1, 3, 9, 33]
    assert len(finpre_objects(3)) == 14
    assert len(finpre_objects(4)) == 47


def test_preorder_enumeration_is_irredundant():
    for k in range(4):
        obs = preorders_of_size(k)
        for i, a in enumerate(obs):
            for b in obs[i + 1:]:
                assert not is_isomorphic(a, b)


def test_labeled_preorder_count_cross_check():
    # summing n!/|Aut| over iso classes recovers the labeled counts
    # 4 (n=2) and 29 (n=3)
    for n, expected in ((2, 4), (3, 29)):
        total = 0
        for ob in preorders_of_size(n):
            autos = sum(1 for _ in _automorphisms(ob))
            total += math.factorial(n) // autos
        assert total == expected


def _automorphisms(ob):
    from extcheck.core import is_iso
    for f in bijections(ob, ob):
        if is_iso(f):
            yield f


def test_builtin_rejects_unknown_name():
    with pytest.raises(KeyError):
        builtin("topoi")


def test_context_families():
    assert [f.name for f in builtin("finset").families] == ["identity",
                                                            "indiscrete"]
    assert [f.name for f in builtin("finpre").families] == ["alexandrov",
                                                            "identity",
                                                            "indiscrete"]


def test_hom_enumeration_matches_core():
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            assert hom(ctx, x, y) == enumerate_morphisms(x, y)


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_hom_tables_match_label_level_enumeration(name):
    """The context's hom store holds, per pair of the bound-3 pool (under
    finpre, with every 4-point preorder added), the index tables of the
    label-level enumeration, in order; `monotone_bijections` yields the
    tables of the injective maps of that enumeration."""
    ctx = builtin(name)
    objects = ctx.objects(3) + (preorders_of_size(4) if name == "finpre" else ())
    bijective = 0
    for x in objects:
        for y in objects:
            literal = enumerate_morphisms.__wrapped__(x, y)
            assert ctx.hom_tables(x, y) == tuple(f.idx for f in literal), (x, y)
            tables = list(monotone_bijections(x, y))
            assert tables == [f.idx for f in literal
                              if x.size == y.size and is_injective(f)]
            bijective += len(tables)
    assert bijective and len(ctx._homs) == len(objects) ** 2


def test_witness_names_the_objects_that_first_asked():
    """A witness map is built between the objects that first asked for its
    hom set in that context: after `initial(True)`, named "0", asked first,
    a map out of the equal pool object `pre0_0` names "0"; a new context
    starts its own store."""
    ctx = builtin("finpre")
    empty, point = ctx.objects(1)
    zero = initial(True)
    assert zero == empty and (zero.name, empty.name) == ("0", "pre0_0")
    assert ctx.hom_tables(zero, point) == ((),)
    assert ctx.hom_tables(empty, point) is ctx.hom_tables(zero, point)
    assert ctx.morphism(empty, point, ()).source.name == "0"
    fresh = builtin("finpre")
    fresh.hom_tables(empty, point)
    assert fresh.morphism(zero, point, ()).source.name == "pre0_0"


def test_coproduct_is_cached_per_context():
    ctx = builtin("finset")
    x, y = ctx.objects(2)[1:3]
    assert ctx.coproduct(x, y) is ctx.coproduct(x, y)


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_builtin_contexts_are_extensive(name):
    ctx = builtin(name)
    report = validate_extensive(ctx, 2)
    assert report.passed, [c.id for c in report.failed()]


def test_extra_objects_join_pool_up_to_iso():
    ctx = builtin("finpre")
    vee = FiniteObject(("a", "b", "c"),
                       make_preorder(("a", "b", "c"), [("a", "b"), ("a", "c")]),
                       name="vee")
    ctx2 = ctx.with_extra_objects([vee])
    # already covered by the enumerated pool at bound 3
    assert len(ctx2.objects(3)) == len(ctx.objects(3))
    # but genuinely new at bound 2
    assert len(ctx2.objects(2)) == len(ctx.objects(2)) + 1


def test_extra_objects_flavor_checked():
    ctx = builtin("finset")
    ordered = FiniteObject(("a",), make_preorder(("a",)))
    with pytest.raises(ValueError):
        ctx.with_extra_objects([ordered]).objects(2)


def test_crossed_coproduct_mutant_fails_extensivity():
    ctx = crossed_coproduct_context(builtin("finpre"))
    report = validate_extensive(ctx, 2)
    assert not report.passed
    failed = {c.id for c in report.failed()}
    assert "coproducts_pullback_stable" in failed or \
        "distributivity_two_by_x" in failed or \
        "coproduct_disjoint" in failed


def test_swapped_mutant_keeps_objects_but_breaks_system():
    base = builtin("finset")
    mut = swapped_system_context(base)
    assert mut.objects(2) == base.objects(2)
    from extcheck.factorization import validate_system
    assert not validate_system(mut.system, mut.objects(2), mut).passed


def test_split_mono_context_is_also_proper_on_finset():
    # on finite sets split monos and monos coincide away from the empty
    # object corner, so the validator pinpoints exactly where they differ
    base = builtin("finset")
    mut = split_mono_context(base)
    from extcheck.factorization import validate_system
    report = validate_system(mut.system, mut.objects(2), mut)
    # 0 -> 1 is mono but has no retraction, so M-completeness must fail
    assert not report.passed
    failed = {c.id for c in report.failed()}
    assert "m_complete" in failed or "m_stable_under_pullback" in failed \
        or "factorizations_valid" in failed


def _finpre_extra():
    return builtin("finpre").with_extra_objects(
        load_objects(str(VALIDATOR_EXTRAS), True))


# case -> (context maker, bound, whether the index certificate is guarded on)
PULLBACK_CASES = {
    "finset-b3": (lambda: builtin("finset"), 3, True),
    "finpre-b2": (lambda: builtin("finpre"), 2, True),
    "finpre-extra-b2": (_finpre_extra, 2, True),
    "finpre-extra-swapped-b2": (
        lambda: swapped_system_context(_finpre_extra()), 2, True),
    "finpre-extra-split-b2": (
        lambda: split_mono_context(_finpre_extra()), 2, True),
    "finpre-extra-crossed-b2": (
        lambda: crossed_coproduct_context(_finpre_extra()), 2, False),
}


@pytest.mark.parametrize("case", PULLBACK_CASES)
def test_extensivity_laws_match_literal_pullbacks(case):
    make, bound, guarded = PULLBACK_CASES[case]
    assert (make().coproduct_fn is coproduct) == guarded
    report = validate_extensive(make(), bound)
    ctx = make()
    assert report.check("coproducts_pullback_stable") == \
        oracles.pullback_stability(ctx, bound)
    assert report.check("coproduct_disjoint") == oracles.coproduct_disjoint(ctx, bound)


@pytest.mark.parametrize("bound", [1, 2])
def test_crossed_instances_on_tables_match_literal_instances(monkeypatch, bound):
    # Every instance of the crossed mutant with the validators' extras, not
    # only those up to the first witness.  The decision on index tables
    # holds exactly where the literal instance does, and with its
    # label-level re-run for a failing f each outcome is the literal one,
    # witness included.
    ctx = crossed_coproduct_context(_finpre_extra())
    pool = ctx.objects(bound)
    real = contexts._pullback_stability_literal
    kinds = set()
    for x in pool:
        for y in pool:
            cp = ctx.coproduct(x, y)
            for z in pool:
                literal = [oracles.pullback_stability_instance(ctx, cp, f)
                           for f in hom(ctx, z, cp.ob)]
                monkeypatch.setattr(contexts, "_pullback_stability_literal",
                                    lambda *args: "fails")
                decided = list(contexts._pullback_stability_tables(ctx, cp, z))
                assert decided == [None if o is None else "fails" for o in literal]
                monkeypatch.setattr(contexts, "_pullback_stability_literal", real)
                assert list(contexts._pullback_stability_tables(ctx, cp, z)) == literal
                kinds.update("holds" if o is None else min(o.keys() - {"f"})
                             for o in literal)
    assert kinds == ({"holds", "comparison"} if bound == 1
                     else {"holds", "comparison", "error"})


@pytest.mark.parametrize("case", ["finset-b3", "finpre-b2", "finpre-extra-b2"])
def test_index_certificate_holds_only_where_literal_instance_does(case):
    # The block-sum property (`oracles.is_block_sum`) is what lets the
    # validator count the maps into a plain sum instead of pulling each
    # back: every instance over a block sum holds, and every sum that
    # `core.coproduct` builds is one, so the validator needs no guard on
    # the sum beyond the context's coproduct being plain.
    make, bound, _ = PULLBACK_CASES[case]
    ctx = make()
    assert ctx.coproduct_fn is coproduct
    held = 0
    for x, y, z, f in oracles.pullback_stability_instances(ctx, bound):
        cp = ctx.coproduct(x, y)
        assert oracles.is_block_sum(cp)
        held += 1
        assert oracles.pullback_stability_instance(ctx, cp, f) is None
    assert held


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_index_certificate_decides_comparison_over_any_cospan(name):
    # Legs l: x -> w and r: y -> w that need not be coproduct injections,
    # so the per-sum check also meets overlapping, non-covering and
    # non-reflecting legs.  With the plain sum in the middle, it holds
    # exactly on the cospans where every literal instance holds, and there
    # the split count is |hom(z, w)|.
    ctx = builtin(name)
    pool = ctx.objects(2)
    outcomes = set()
    for w in pool:
        for x in pool:
            for y in pool:
                for l in hom(ctx, x, w):
                    for r in hom(ctx, y, w):
                        cospan = Coproduct(w, x, y, l.idx, r.idx)
                        certified = oracles.is_block_sum(cospan)
                        literal = all(
                            oracles.pullback_stability_instance(ctx, cospan, f) is None
                            for z in pool for f in hom(ctx, z, w))
                        assert certified == literal
                        if certified:
                            for z in pool:
                                assert contexts._sum_hom_count(z, x, y) == \
                                    len(hom(ctx, z, w))
                        outcomes.add(certified)
    assert outcomes == {True, False}


# case -> (context maker, bound) of the split count's differential test
SPLIT_COUNT_CASES = {
    "finset-b3": (lambda: builtin("finset"), 3),
    "finpre-b3": (lambda: builtin("finpre"), 3),
    "finpre-extra-b2": (_finpre_extra, 2),
}


@pytest.mark.parametrize("case", SPLIT_COUNT_CASES)
def test_split_count_matches_enumeration(case):
    make, bound = SPLIT_COUNT_CASES[case]
    ctx = make()
    pool = ctx.objects(bound)
    for x in pool:
        for y in pool:
            sum_ob = ctx.coproduct(x, y).ob
            for z in pool:
                # Uncached, since each hom set is read once here.
                maps = enumerate_morphisms.__wrapped__(z, sum_ob)
                assert contexts._sum_hom_count(z, x, y) == len(maps)


def test_clopen_splits_match_brute_force():
    # P is clopen when it holds everything above and below its points.
    def clopen(ob, p):
        return all((ob.up_masks[i] | ob.down_masks[i]) & ~p == 0
                   for i in range(ob.size) if p >> i & 1)

    assert clopen_splits(()) == (0,)
    for ob in finpre_objects(3):
        assert clopen_splits(ob.up_masks) == tuple(
            p for p in range(1 << ob.size) if clopen(ob, p))


def _count_pullbacks(monkeypatch) -> list:
    calls = []
    real = contexts.pullback
    monkeypatch.setattr(contexts, "pullback",
                        lambda f, g: calls.append((f, g)) or real(f, g))
    return calls


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_guarded_pullback_stability_builds_no_pullback(monkeypatch, name):
    calls = _count_pullbacks(monkeypatch)
    result = validate_extensive(builtin(name), 2).check("coproducts_pullback_stable")
    assert result.passed and result.checked > 0
    assert calls == []


def test_crossed_mutant_takes_the_literal_route(monkeypatch):
    calls = _count_pullbacks(monkeypatch)
    ctx = crossed_coproduct_context(builtin("finpre"))
    result = validate_extensive(ctx, 2).check("coproducts_pullback_stable")
    # Its sums are not block sums.  Each instance is decided on index
    # tables, and only the failing one is re-run label-level, with two
    # pullbacks, for its witness.
    assert (result.passed, result.checked, len(calls)) == (False, 54, 2)
    assert result.witness["error"] == \
        "not monotone: L:(p1,p1)<=R:(p2,p1) but p1<=p2 fails"
    assert result.witness["f"]["map"] == {"p1": "L:p1", "p2": "R:p1"}
