"""Orthogonality, factorization, and whole-system validation."""

import pytest

from extcheck.contexts import builtin, swapped_system_context
from extcheck.core import (
    FiniteObject,
    Morphism,
    compose,
    identity,
    make_preorder,
)
from extcheck.factorization import (
    down_arrow,
    down_arrow_witness,
    image_factorization,
    is_embedding,
    validate_system,
)


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
    assert not is_embedding(skew)
    sub = SIERPINSKI.restrict(("s1",))
    inc = Morphism(sub, SIERPINSKI, (("s1", "s1"),))
    assert is_embedding(inc)


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


def test_down_arrow_fiberwise_matches_exhaustive():
    from extcheck.factorization import (_down_arrow_exhaustive,
                                        _down_arrow_fiberwise)
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    sys = ctx.system
    homs = [f for x in pool for y in pool for f in ctx.hom(x, y)]
    es = [f for f in homs if sys.in_e(f)][:12]
    ms = [f for f in homs if sys.in_m(f)][:12]
    for e in es:
        for m in ms:
            left = _down_arrow_fiberwise(e, m)[0]
            right = _down_arrow_exhaustive(e, m)[0]
            assert left == right, (e.mapping, m.mapping)


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
