"""Object enumeration, builtin contexts, and the deliberately broken
variants used to prove the validators can fail."""

import math

import pytest

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
from extcheck.core import enumerate_morphisms, is_isomorphic, make_preorder, FiniteObject


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
    from extcheck.core import monotone_bijections, is_iso
    for f in monotone_bijections(ob, ob):
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
            assert ctx.hom(x, y) == enumerate_morphisms(x, y)


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
    assert not validate_system(mut.system, mut.objects(2)).passed


def test_split_mono_context_is_also_proper_on_finset():
    # on finite sets split monos and monos coincide away from the empty
    # object corner, so the validator pinpoints exactly where they differ
    base = builtin("finset")
    mut = split_mono_context(base)
    from extcheck.factorization import validate_system
    report = validate_system(mut.system, mut.objects(2))
    # 0 -> 1 is mono but has no retraction, so M-completeness must fail
    assert not report.passed
    failed = {c.id for c in report.failed()}
    assert "m_complete" in failed or "m_stable_under_pullback" in failed \
        or "factorizations_valid" in failed
