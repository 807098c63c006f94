"""Orthogonality, factorization, and whole-system validation."""

from pathlib import Path

import pytest

import oracles
from extcheck import factorization
from extcheck.cli import load_objects
from extcheck.contexts import (
    builtin,
    crossed_coproduct_context,
    finpre_objects,
    finset_objects,
    split_mono_context,
    swapped_system_context,
)
from extcheck.core import (
    FiniteObject,
    Morphism,
    compose,
    embedding_table,
    enumerate_morphisms,
    identity,
    make_preorder,
    pair_label,
    pullback,
    table_of,
)
from extcheck.factorization import (
    FactorizationSystem,
    _down_arrow_exhaustive,
    _first_unfilled_square,
    _pullback_table,
    _square_witness,
    _unmonotone_fills,
    down_arrow,
    down_arrow_witness,
    image_factorization,
    validate_system,
)
from test_golden_reports import WORKLOAD_EXTRAS
from test_subobjects import _no_two_point_sources

VALIDATOR_EXTRAS = (Path(__file__).resolve().parent.parent
                    / "perfbench" / "inputs" / "validators.json")


def plain(*labels):
    return FiniteObject(tuple(labels), None)


SIERPINSKI = FiniteObject(("s0", "s1"),
                          make_preorder(("s0", "s1"), [("s0", "s1")]))


def test_image_factorization_splits_through_image():
    x, y = plain("a", "b", "c"), plain("u", "v", "w")
    f = Morphism(x, y, (("a", "u"), ("b", "u"), ("c", "v")))
    fac = image_factorization(f)
    assert fac.mid.elements == ("u", "v")
    assert compose(fac.m_part, fac.e_part) == f
    assert fac.e_part.table == {"a": "u", "b": "u", "c": "v"}
    assert fac.m_part.table == {"u": "u", "v": "v"}


def test_is_embedding_requires_order_reflection():
    dis = FiniteObject(("d0", "d1"), make_preorder(("d0", "d1")))
    skew = Morphism(dis, SIERPINSKI, (("d0", "s0"), ("d1", "s1")))
    assert not embedding_table(*table_of(skew))
    sub = SIERPINSKI.restrict(("s1",))
    inc = Morphism(sub, SIERPINSKI, (("s1", "s1"),))
    assert embedding_table(*table_of(inc))


def test_surjection_is_orthogonal_to_injection():
    x, y = plain("a", "b"), plain("u")
    e = Morphism(x, y, (("a", "u"), ("b", "u")))
    z, w = plain("p"), plain("p", "q")
    m = Morphism(z, w, (("p", "p"),))
    assert down_arrow(e, m)
    ok, wit = down_arrow_witness(e, m)
    assert ok and wit is None


def test_non_surjection_fails_orthogonality_against_some_injection():
    # e not epi: a square with u missing the diagonal exists
    x, y = plain("a"), plain("u", "v")
    e = Morphism(x, y, (("a", "u"),))
    z, w = plain("p"), plain("p", "q")
    m = Morphism(z, w, (("p", "p"),))
    ok, wit = down_arrow_witness(e, m)
    assert not ok
    assert wit["diagonals"] == 0


def test_orthogonality_failure_for_order_reasons():
    # Quotient collapsing the discrete pair onto a point is in E; the
    # Sierpinski embedding of the bottom point is in M.  A square whose
    # diagonal would need to be non-monotone must be rejected by the
    # fiberwise fast path just as by exhaustive search.
    dis = FiniteObject(("d0", "d1"), make_preorder(("d0", "d1")))
    e = Morphism(dis, SIERPINSKI, (("d0", "s0"), ("d1", "s1")))
    pt = SIERPINSKI.restrict(("s0",))
    m = Morphism(pt, SIERPINSKI, (("s0", "s0"),))
    # e is monotone bijective but not order reflecting, hence not iso; it
    # is surjective so the builtin system puts it in E
    sys = builtin("finpre").system
    assert sys.in_e(e)
    assert sys.in_m(m)
    assert down_arrow(e, m)


def _unfilled_witness(e, m, fills):
    """The witness of `_first_unfilled_square`, as the validator serializes
    it."""
    square = _first_unfilled_square(e, m, fills)
    return square and _square_witness(e, m, *square)


def test_down_arrow_builds_no_witness(monkeypatch):
    # The completeness laws call down_arrow on every map outside E or M and
    # keep only its truth value, so it must not serialize a square: with
    # the serializer broken, down_arrow still decides failing pairs of
    # both paths, the fibrewise one (surjective against injective) and the
    # exhaustive one, as down_arrow_witness did before.
    pool = builtin("finpre").with_extra_objects(WORKLOAD_EXTRAS).objects(2)
    homs = [f for x in pool for y in pool for f in enumerate_morphisms(x, y)]
    sample = homs[::7]
    expected = [down_arrow_witness(e, m)[0] for e in sample for m in sample]
    fast = [not down_arrow_witness(e, m)[0] for e in sample for m in sample
            if oracles.surjective(e) and oracles.injective(m)]
    assert any(fast) and expected.count(False) > sum(fast)

    def refuse(*args):
        raise AssertionError("down_arrow serialized a square")

    monkeypatch.setattr(factorization, "_square_witness", refuse)
    monkeypatch.setattr(factorization, "serialize_morphism", refuse)
    assert [down_arrow(e, m) for e in sample for m in sample] == expected


def test_down_arrow_fiberwise_matches_exhaustive():
    # Every (E, M) pair of finpre at bound 2: the per-pair fibrewise sweep
    # agrees with the exhaustive square search, and the validator's sweep,
    # which builds the fills once per e and source of m, finds the same
    # witness.
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    sys = ctx.system
    homs = [f for x in pool for y in pool for f in ctx.hom(x, y)]
    es = [f for f in homs if sys.in_e(f)]
    ms = [f for f in homs if sys.in_m(f)]
    failed = 0
    for e in es:
        fills = {}
        for m in ms:
            ok, witness = oracles.down_arrow_fiberwise(e, m)
            assert ok == (_down_arrow_exhaustive(e, m) is None), (e.mapping, m.mapping)
            if m.source not in fills:
                fills[m.source] = _unmonotone_fills(e, m.source)
            assert _unfilled_witness(e, m, fills[m.source]) == witness
            failed += not ok
    assert es and ms and failed == 0


def test_hoisted_squares_find_the_per_pair_witness():
    # Surjections against injections that are not embeddings, on finpre at
    # bound 2 plus three 3-point preorders: squares do fail here, so the
    # hoisted sweep must return the per-pair witness, not merely agree
    # that one exists.
    pool = builtin("finpre").with_extra_objects(WORKLOAD_EXTRAS).objects(2)
    homs = [f for x in pool for y in pool for f in enumerate_morphisms(x, y)]
    es = [f for f in homs if oracles.surjective(f)]
    ms = [f for f in homs if oracles.injective(f)
          and not embedding_table(*table_of(f))]
    witnesses = 0
    for e in es:
        for m in ms:
            witness = oracles.down_arrow_fiberwise(e, m)[1]
            assert _unfilled_witness(e, m, _unmonotone_fills(e, m.source)) == witness
            witnesses += witness is not None
    assert witnesses


def test_pullback_table_is_the_label_level_projection():
    # Every cospan (g, m) of finpre at bound 2, m in any class: the index
    # pullback is pullback(g, m).p1 with its points in (a, b) order.
    pool = builtin("finpre").objects(2)
    homs = [f for x in pool for y in pool for f in enumerate_morphisms(x, y)]
    for m in homs:
        for g in homs:
            if g.target != m.target:
                continue
            pb = pullback(g, m)
            pos = [pb.ob.index[pair_label(a, b)] for a in g.source.elements
                   for b in m.source.elements if g(a) == m(b)]
            p_idx, p_up, n, tgt_up = table_of(pb.p1)
            assert _pullback_table(g, m) == (
                tuple(p_idx[k] for k in pos),
                tuple(sum(1 << j for j, q in enumerate(pos) if (p_up[k] >> q) & 1)
                      for k in pos),
                n, tgt_up)


def _finpre_extra():
    return builtin("finpre").with_extra_objects(
        load_objects(str(VALIDATOR_EXTRAS), True))


def _no_two_point_tables(base):
    """`_no_two_point_sources` with E narrowed the same way, so that both
    table predicates differ from the base and isomorphisms of 2-point
    objects fall outside E."""
    ctx = _no_two_point_sources(base)
    sys = ctx.system
    ctx.system = FactorizationSystem(
        f"{sys.name}-tables",
        lambda idx, *rest: base.system.e_table(idx, *rest) and len(idx) != 2,
        sys.m_table)
    return ctx


# case -> (context maker, bound)
VALIDATE_CASES = {
    "finset-b3": (lambda: builtin("finset"), 3),
    "finpre-b2": (lambda: builtin("finpre"), 2),
    "finpre-extra-b2": (_finpre_extra, 2),
    "finpre-extra-swapped-b2": (lambda: swapped_system_context(_finpre_extra()), 2),
    "finpre-extra-crossed-b2": (lambda: crossed_coproduct_context(_finpre_extra()), 2),
    "finpre-extra-split-b2": (lambda: split_mono_context(_finpre_extra()), 2),
    "finpre-no-2-b2": (lambda: _no_two_point_sources(builtin("finpre")), 2),
    "finpre-no-2-tables-b2": (lambda: _no_two_point_tables(builtin("finpre")), 2),
}


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_validate_system_matches_label_level_oracle(case):
    make, bound = VALIDATE_CASES[case]
    ctx = make()
    pool = ctx.objects(bound)
    report = validate_system(ctx.system, pool)
    assert report.to_dict() == oracles.validate_system(ctx.system, pool).to_dict()
    if case.startswith("finpre-no-2"):
        assert report.check("m_stable_under_pullback").witness is not None


def _homs_up_to_3(name):
    """Every hom between the objects of at most three points: the
    `finset` pool at bound 3, or the `finpre` one plus the workload's
    three 3-point preorders."""
    objects = finset_objects(3) if name == "finset" else (
        finpre_objects(3) + WORKLOAD_EXTRAS)
    return [f for x in objects for y in objects for f in enumerate_morphisms(x, y)]


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_table_predicates_agree_with_label_level(name):
    ctx = builtin(name)
    homs = _homs_up_to_3(name)
    literal_m = (oracles.injective if name == "finset" else
                 lambda f: oracles.injective(f) and oracles.order_reflecting(f))
    swapped = swapped_system_context(ctx).system
    for f in homs:
        args = table_of(f)
        in_e, in_m = oracles.surjective(f), literal_m(f)
        assert ctx.system.e_table(*args) == ctx.system.in_e(f) == in_e
        assert ctx.system.m_table(*args) == ctx.system.in_m(f) == in_m
        assert swapped.e_table(*args) == swapped.in_e(f) == in_m
        assert swapped.m_table(*args) == swapped.in_m(f) == in_e
    assert homs


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_split_predicate_matches_label_level_retraction(name):
    """The split mutant's M, decided on tables, holds exactly for the maps
    with a label-level retraction; both ways occur among injective maps."""
    split = split_mono_context(builtin(name)).system
    outcomes = set()
    for f in _homs_up_to_3(name):
        split_mono = oracles.has_retraction(f)
        assert split.m_table(*table_of(f)) == split_mono, f.mapping
        if oracles.injective(f):
            outcomes.add(split_mono)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_builtin_systems_validate(name):
    ctx = builtin(name)
    report = validate_system(ctx.system, ctx.objects(2))
    assert report.passed, [c.id for c in report.failed()]


def test_factorize_rejects_wrong_composite():
    x = plain("a", "b")
    f = Morphism(x, x, (("a", "a"), ("b", "a")))
    fac = image_factorization(f)
    assert compose(fac.m_part, fac.e_part) == f


def test_swapped_classes_fail_validation():
    ctx = swapped_system_context(builtin("finset"))
    report = validate_system(ctx.system, ctx.objects(2))
    assert not report.passed
    failed = {c.id for c in report.failed()}
    assert failed & {"orthogonality", "e_members_are_epi",
                     "m_members_are_mono", "factorizations_valid"}
    # the first orthogonality witness carries a full square
    orth = [c for c in report.checks if c.id == "orthogonality"]
    if orth and not orth[0].passed:
        wit = orth[0].witness
        assert {"e", "m", "square_u", "square_v", "diagonals"} <= set(wit)


def test_completeness_checks_detect_interlopers():
    # identity morphisms belong to both classes; the validator's
    # completeness checks must agree with direct membership
    ctx = builtin("finset")
    sys = ctx.system
    x = plain("a", "b")
    assert sys.in_e(identity(x)) and sys.in_m(identity(x))
