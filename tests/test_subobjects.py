"""Admissible subobject lattices and the tagged-sum calculus on them."""

import itertools

import pytest

from extcheck import contexts, core, subobjects, theorems
from extcheck.closure import IDENTITY
from extcheck.contexts import (
    Context,
    builtin,
    crossed_coproduct_context,
    finset_objects,
    preorders_of_size,
    split_mono_context,
    swapped_system_context,
)
from extcheck.core import (
    FiniteObject,
    Morphism,
    compose,
    coproduct,
    inclusion,
    points,
)
from extcheck.factorization import FactorizationSystem
from extcheck.subobjects import (
    Subobject,
    check_adjunction_admissible,
    image,
    iota_map,
    subobject_from_mask,
    subobject_lattice,
    sum_subobjects,
)
from oracles import (
    L_map,
    R_map,
    corestriction,
    enumerate_subobjects,
    hom,
    in_m,
    inclusion_table,
    join_subobjects,
    make_preorder,
    preimage,
    restriction,
    sum_morphisms,
    table_of,
)


@pytest.fixture(params=["finset", "finpre"])
def ctx(request):
    return builtin(request.param)


SIERPINSKI = FiniteObject(("s0", "s1"),
                          make_preorder(("s0", "s1"), [("s0", "s1")]))


def test_every_subset_is_admissible_in_builtins(ctx):
    for x in ctx.objects(3):
        lat = ctx.sub_lattice(x)
        assert len(lat.masks) == 2 ** x.size


def _join(x: FiniteObject, a: int, b: int) -> int:
    """The oracle join of two masks of x, as a mask."""
    return join_subobjects(subobject_from_mask(x, a), subobject_from_mask(x, b)).mask


def test_lattice_order_and_bounds(ctx):
    x = ctx.objects(3)[-1]
    full = (1 << x.size) - 1
    lat = ctx.sub_lattice(x)
    assert lat.masks[0] == 0 and lat.masks[-1] == full
    for s in lat:
        assert s & ~full == 0


def test_meet_is_intersection_join_is_union(ctx):
    x = ctx.objects(2)[-1]
    lat = ctx.sub_lattice(x)
    for a in lat:
        for b in lat:
            assert a & b in lat.masks
            assert _join(x, a, b) == a | b


def test_lattice_distributivity(ctx):
    x = ctx.objects(2)[-1]
    lat = ctx.sub_lattice(x)
    for p in lat:
        for q in lat:
            for r in lat:
                assert p & _join(x, q, r) == _join(x, p & q, p & r)


def test_subobject_rep_is_admissible_inclusion(ctx):
    sys = ctx.system
    for x in ctx.objects(2):
        for m in ctx.sub_lattice(x):
            s = subobject_from_mask(x, m)
            assert in_m(sys, s.rep)
            assert s.rep.source == s.ob


def test_image_and_preimage_are_adjoint(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for f in hom(ctx, x, y):
                for s in ctx.sub_lattice(x):
                    for t in ctx.sub_lattice(y):
                        lhs = image(f, subobject_from_mask(x, s)).mask & ~t == 0
                        rhs = s & ~preimage(f, subobject_from_mask(y, t)).mask == 0
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
            for f in hom(ctx, x, y):
                for m in ctx.sub_lattice(x):
                    s = subobject_from_mask(x, m)
                    img = image(f, s)
                    r = restriction(f, s)
                    assert compose(img.rep, r) == compose(f, s.rep)


def test_tagged_extension_maps_round_trip(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for a in ctx.sub_lattice(x):
                back_l, back_r = iota_map(L_map(subobject_from_mask(x, a), y))
                assert (back_l.mask, back_r.mask) == (a, 0)
            for b in ctx.sub_lattice(y):
                back_l, back_r = iota_map(R_map(x, subobject_from_mask(y, b)))
                assert (back_l.mask, back_r.mask) == (0, b)


def test_iota_of_sum_recovers_components(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            for a in ctx.sub_lattice(x):
                for b in ctx.sub_lattice(y):
                    sa, sb = subobject_from_mask(x, a), subobject_from_mask(y, b)
                    res = sum_subobjects(sa, sb)
                    assert res.mask in ctx.sub_lattice(res.ambient).masks
                    la, rb = iota_map(res)
                    assert la == sa and rb == sb


def test_sum_subobject_is_join_of_extensions(ctx):
    pool = ctx.objects(2)
    for x in pool:
        for y in pool:
            admissible = ctx.sub_lattice(coproduct(x, y).ob).masks
            for a in ctx.sub_lattice(x):
                for b in ctx.sub_lattice(y):
                    sa, sb = subobject_from_mask(x, a), subobject_from_mask(y, b)
                    joined = join_subobjects(L_map(sa, y), R_map(x, sb))
                    assert joined == sum_subobjects(sa, sb)
                    assert joined.mask in admissible


def _no_two_point_sources(base: Context) -> Context:
    """The base context with M narrowed to morphisms whose source does not
    have two points, so that some sums of admissibles are not admissible
    and M is not stable under pullback."""
    sys = base.system
    narrowed = FactorizationSystem(
        f"{sys.name}|no-2", sys.e_table,
        lambda idx, *rest: sys.m_table(idx, *rest) and len(idx) != 2)
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


# The cases whose sums of two are compared at bound 3, not 2.
BOUND_3_SUMS = ("finset", "finset!swapped", "finset!split",
                "finpre", "finpre!swapped", "finpre!split")


@pytest.mark.parametrize("case", SUM_CASES)
def test_lattice_masks_match_label_level_enumeration(case):
    """`ctx.sub_lattice(x)` lists the masks of the oracle's label-level
    enumeration, in its order (size first, then labels, which the lattice
    reads as points): on every pool object at bound 3, and on every
    constructed sum of two, plain and the context's own, at bound 2, or at
    bound 3 under the plain, swapped and split systems."""
    base, variant = SUM_CASES[case]
    ctx = builtin(base) if variant is None else variant(builtin(base))
    pool = ctx.objects(3 if case in BOUND_3_SUMS else 2)
    sums = [cp(x, y).ob for x in pool for y in pool
            for cp in (coproduct, ctx.coproduct)]
    for x in (*ctx.objects(3), *sums):
        lat = ctx.sub_lattice(x)
        assert lat.ambient == x
        assert lat.masks == tuple(s.mask for s in enumerate_subobjects(ctx.system, x))


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_inclusion_table_is_the_label_level_inclusion(name):
    """A lattice calls `m_table` once per subset of its object, in the
    lattice's (size, points) order, each time on `inclusion_table`: the
    `table_of` the label-level inclusion with the induced order, built
    from scratch.  On every pool object at bound 3 and every plain sum of
    two of them, under the plain, swapped and split systems."""
    for variant in (None, swapped_system_context, split_mono_context):
        ctx = builtin(name) if variant is None else variant(builtin(name))
        pool = ctx.objects(3)
        for x in (*pool, *(coproduct(a, b).ob for a in pool for b in pool)):
            calls = []

            def m_table(*table):
                calls.append(table)
                return ctx.system.m_table(*table)

            lat = subobject_lattice(
                FactorizationSystem("recorded", ctx.system.e_table, m_table), x)
            order = sorted(range(1 << x.size), key=lambda m: (m.bit_count(), points(m)))
            assert calls == [inclusion_table(x, m) for m in order]
            assert lat.masks == tuple(m for m, table in zip(order, calls)
                                      if ctx.system.m_table(*table))
        for x in pool:
            for m in range(1 << x.size):
                assert inclusion_table(x, m) == table_of(
                    inclusion(x.restrict(x.labels_of(m)), x))


# The M class of each builtin context, by the name `contexts` builds it from.
BUILTIN_M = {"finset": "injective_table", "finpre": "embedding_table"}


@pytest.mark.parametrize("name", BUILTIN_M)
def test_builtin_lattices_decide_no_table(name, monkeypatch):
    """Under a builtin system a lattice is every subset and calls `m_table`
    on none: counted by wrapping the module-level predicate wherever it is
    bound, as the benchmark's tracer does, before the context is built.
    A wrapped copy of the same predicate is another system, which decides
    every subset, so the counter does count."""
    predicate = getattr(core, BUILTIN_M[name])
    calls = []

    def counted(*table):
        calls.append(table)
        return predicate(*table)

    for module in (core, contexts, subobjects):
        monkeypatch.setattr(module, BUILTIN_M[name], counted)
    ctx = builtin(name)
    assert ctx.system.m_table is counted
    pool = ctx.objects(3)
    objects = (*pool, *(coproduct(a, b).ob for a in pool for b in pool))
    for x in objects:
        lat = ctx.sub_lattice(x)
        assert sorted(lat.masks) == list(range(1 << x.size))
    assert calls == []
    wrapped = FactorizationSystem("wrapped", ctx.system.e_table,
                                  lambda *table: counted(*table))
    for x in objects:
        subobject_lattice(wrapped, x)
    assert len(calls) == sum(1 << x.size for x in objects)


@pytest.mark.parametrize("name", BUILTIN_M)
def test_every_subset_lattice_equals_the_decided_lattice(name):
    """The builtin systems' lattices, taken as every subset, equal the
    lattices a wrapped copy of the same `m_table` decides subset by subset,
    masks and order: on every object of 4 points (every preorder of 4
    points on finpre) and every plain sum of two objects of the bound-2
    pool."""
    ctx = builtin(name)
    sys = ctx.system
    decided = FactorizationSystem(
        "decided", sys.e_table, lambda *table: sys.m_table(*table))
    fours = preorders_of_size(4) if name == "finpre" else finset_objects(4)[-1:]
    pool = ctx.objects(2)
    for x in (*fours, *(coproduct(a, b).ob for a in pool for b in pool)):
        assert subobject_lattice(sys, x).masks == subobject_lattice(decided, x).masks


@pytest.mark.parametrize("case", SUM_CASES)
def test_sum_admissibility_by_mask_matches_literal_definition(case):
    """For every admissible a of x and b of y at bound 2, the checkers' mask
    test (a.mask | b.mask << |x| admissible in the plain sum X + Y, and
    checker A's outcome, condition (a) under the identity closure) agrees
    with the literal definition: the sum of the two inclusions is in M, and
    the image of the copairing of the tagged images of a and b is the tagged
    carrier.  The join of the tagged images is always their union."""
    base, variant = SUM_CASES[case]
    ctx = builtin(base) if variant is None else variant(builtin(base))
    sys = ctx.system
    pool = ctx.objects(2)
    instances = theorems._closed_sum_outcomes(ctx, pool, IDENTITY)
    seen = set()
    for x, y in itertools.product(pool, repeat=2):
        sum_masks = ctx.plain_sum_lattice(x, y)
        for a in ctx.sub_lattice(x):
            for b in ctx.sub_lattice(y):
                sa, sb = subobject_from_mask(x, a), subobject_from_mask(y, b)
                cp = coproduct(x, y)
                img_l, img_r = image(cp.inl, sa), image(cp.inr, sb)
                joined = join_subobjects(img_l, img_r)
                assert joined.mask == img_l.mask | img_r.mask
                literal = (in_m(sys, sum_morphisms(sa.rep, sb.rep, None, cp.ob))
                           and joined.elements == sum_subobjects(sa, sb).elements)
                assert ((a | (b << x.size)) in sum_masks) == literal
                assert next(instances)[:5] == (literal, x, y, a, b)
                seen.add(literal)
    assert next(instances, "exhausted") == "exhausted"
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


def test_adjunction_sides_agree_on_every_mask_triple():
    """The two sides `check_adjunction_admissible` compares, (m | n << nx)
    & ~p == 0 and m & ~(p & low) == 0 and n & ~(p >> nx) == 0, agree on
    every triple of masks of an nx-point and an ny-point carrier, nx, ny
    <= 3, admissible or not: whatever lattices it is handed, that check
    cannot fail."""
    for nx, ny in itertools.product(range(4), repeat=2):
        low = (1 << nx) - 1
        for m, n, p in itertools.product(range(1 << nx), range(1 << ny),
                                         range(1 << nx + ny)):
            assert ((m | n << nx) & ~p == 0) == (
                m & ~(p & low) == 0 and n & ~(p >> nx) == 0)


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
                pl, pr = iota_map(subobject_from_mask(amb, p))
                assert (p & low, p >> nx) == (pl.mask, pr.mask)
            for m in ctx.sub_lattice(x):
                assert (subobject_from_mask(amb, m)
                        == L_map(subobject_from_mask(x, m), y))
            for n in ctx.sub_lattice(y):
                assert (subobject_from_mask(amb, n << nx)
                        == R_map(x, subobject_from_mask(y, n)))


def test_subobject_from_mask_round_trip(ctx):
    x = ctx.objects(2)[-1]
    for mask in range(1 << x.size):
        s = subobject_from_mask(x, mask)
        assert s.mask == mask
