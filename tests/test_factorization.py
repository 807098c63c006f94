"""Orthogonality, factorization, and whole-system validation."""

from pathlib import Path

import pytest

import oracles
from oracles import hom, identity, in_e, in_m, make_preorder, table_of
from extcheck import contexts, factorization
from extcheck.cli import load_objects
from extcheck.contexts import (
    builtin,
    crossed_coproduct_context,
    finpre_objects,
    finset_objects,
    split_mono_context,
    surjections_injections,
    swapped_system_context,
)
from extcheck.core import (
    FiniteObject,
    Morphism,
    compose,
    embedding_table,
    enumerate_morphisms,
    injective_table,
    pair_label,
    pullback,
    surjective_table,
)
from extcheck.factorization import (
    FactorizationSystem,
    _by_precomposite,
    _exhaustive_square,
    _fibres,
    _Pool,
    _pullback_table,
    _first_bad_square,
    _square_witness,
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
    assert in_e(sys, e)
    assert in_m(sys, m)
    assert down_arrow_witness(e, m)[0]


class _Labelled(factorization._Map):
    """A numbered map that carries its label-level map as `f`."""


def _numbered(objects):
    """The pool numbered as `validate_system` numbers it, and its maps in
    the validator's order, each with its label-level map."""
    pool = _Pool(objects, lambda x, y: tuple(f.idx for f in enumerate_morphisms(x, y)))
    maps = []
    for p, x in enumerate(objects):
        for q, y in enumerate(objects):
            for g, f in zip(pool.read(p, q), enumerate_morphisms(x, y)):
                maps.append(_Labelled(*g))
                maps[-1].f = f
    return pool, maps


def _join_sweep(pool, e, m, groups):
    """`_exhaustive_square` of the pair, with the bottoms and diagonals
    grouped by their composite with e memoized in `groups`, per e."""
    for key in (e.t, m.t), (e.t, m.s):
        if key not in groups:
            groups[key] = _by_precomposite(e.idx, pool.hom[key])
    return _exhaustive_square(m.idx, pool.hom[e.s, m.s], groups[e.t, m.t],
                              groups[e.t, m.s])


def _kernel_witness(pool, e, m, fills):
    """The witness of `_Pool.bad_square`, as the validator serializes it."""
    square = pool.bad_square(e, m, pool.reflects(m), fills)
    return square and _square_witness(e.f, m.f, *square)


def test_down_arrow_builds_no_witness(monkeypatch):
    # The square search decides orthogonality without serializing a
    # square: with the serializer broken, `_first_bad_square` still
    # decides failing pairs of both paths, the fibrewise one (surjective
    # against injective) and the exhaustive one, as down_arrow_witness
    # does.
    pool = builtin("finpre").with_extra_objects(WORKLOAD_EXTRAS).objects(2)
    homs = [f for x in pool for y in pool for f in enumerate_morphisms(x, y)]
    sample = homs[::7]
    expected = [down_arrow_witness(e, m)[0] for e in sample for m in sample]
    fast = [not down_arrow_witness(e, m)[0] for e in sample for m in sample
            if oracles.surjective(e) and oracles.injective(m)]
    assert any(fast) and expected.count(False) > sum(fast)

    def refuse(*args):
        raise AssertionError("the square search serialized a square")

    monkeypatch.setattr(factorization, "_square_witness", refuse)
    monkeypatch.setattr(factorization, "serialize_morphism", refuse)
    assert [_first_bad_square(e, m) is None
            for e in sample for m in sample] == expected


def test_down_arrow_fiberwise_matches_exhaustive():
    # Every (E, M) pair of finpre at bound 2: the per-pair fibrewise sweep
    # agrees with the literal sweep over label-level squares, and the
    # validator's square search, which builds the fills once per e and
    # source of m, finds the same witness.
    ctx = builtin("finpre")
    pool, maps = _numbered(ctx.objects(2))
    sys = ctx.system
    es = [g for g in maps if in_e(sys, g.f)]
    ms = [g for g in maps if in_m(sys, g.f)]
    failed = 0
    for e in es:
        fills = {}
        for m in ms:
            ok, witness = oracles.down_arrow_fiberwise(e.f, m.f)
            assert ok == (oracles.exhaustive_square(e.f, m.f) is None), (
                e.f.mapping, m.f.mapping)
            assert _kernel_witness(pool, e, m, fills) == witness
            failed += not ok
    assert es and ms and failed == 0


def test_hoisted_squares_find_the_per_pair_witness():
    # Surjections against injections that are not embeddings, on finpre at
    # bound 2 plus three 3-point preorders: squares do fail here, so the
    # hoisted sweep must return the per-pair witness, not merely agree
    # that one exists.
    pool, maps = _numbered(
        builtin("finpre").with_extra_objects(WORKLOAD_EXTRAS).objects(2))
    es = [g for g in maps if oracles.surjective(g.f)]
    ms = [g for g in maps if oracles.injective(g.f)
          and not embedding_table(*table_of(g.f))]
    witnesses = 0
    for e in es:
        for m in ms:
            witness = oracles.down_arrow_fiberwise(e.f, m.f)[1]
            assert _kernel_witness(pool, e, m, {}) == witness
            witnesses += witness is not None
    assert witnesses


def test_order_reflecting_members_fill_every_square():
    # The lemma behind the validator's shortcut: for e surjective and m
    # injective and order-reflecting, m.w is monotone exactly when w is,
    # so every square has its diagonal.  The literal sweep over every
    # square confirms it for every such pair of finpre at bound 3 plus
    # three 3-point preorders, where `bad_square` does not sweep.
    pool, maps = _numbered(finpre_objects(3) + WORKLOAD_EXTRAS)
    es = [g for g in maps if oracles.surjective(g.f)]
    ms = [g for g in maps if oracles.injective(g.f) and oracles.order_reflecting(g.f)]
    assert len(es) * len(ms) == 72846
    for e in es:
        groups = {}
        for m in ms:
            assert pool.bad_square(e, m, True, {}) is None
            assert _join_sweep(pool, e, m, groups) is None


@pytest.mark.parametrize("swapped", [False, True], ids=["plain", "swapped"])
def test_m_stability_decides_each_pullback_key_once(monkeypatch, swapped):
    # The table of g's pullback along m depends only on the ids of the two
    # sources and on m's fibre over each g(a).  On finpre at bound 2 plus
    # the validators' extras, M-stability builds a table and calls m_table
    # on it once per such key, far fewer times than it has instances, and
    # the report is still the label-level oracle's.
    ctx = _finpre_extra()
    if swapped:
        ctx = swapped_system_context(ctx)
    base = ctx.system
    objects = ctx.objects(2)
    pool, maps = _numbered(objects)
    keys, instances = set(), 0
    for m in maps:
        if base.m_table(*table_of(m.f)):
            fibres = _fibres(m.idx, pool.size[m.t])
            for g in maps:
                if g.t == m.t:
                    instances += 1
                    keys.add((g.s, m.s, tuple(tuple(fibres[t]) for t in g.idx)))
    tables, decided = [], []
    real_table = factorization._pullback_table

    def pullback_table(*args):
        tables.append(real_table(*args))
        return tables[-1]

    def m_table(*args):
        # The validator calls m_table on each table as soon as it is built.
        if len(decided) < len(tables):
            assert args == tables[len(decided)]
            decided.append(args)
        return base.m_table(*args)

    monkeypatch.setattr(factorization, "_pullback_table", pullback_table)
    report = validate_system(FactorizationSystem(base.name, base.e_table, m_table),
                             objects, ctx)
    stable = report.check("m_stable_under_pullback")
    assert stable.passed and stable.checked == instances
    assert len(decided) == len(tables) == len(keys) < instances
    assert report.to_dict() == oracles.validate_system(base, objects, ctx).to_dict()


@pytest.mark.parametrize("swapped", [False, True], ids=["plain", "swapped"])
def test_e_complete_groups_each_key_once(monkeypatch, swapped):
    # A grouping of hom(b, x) by its composite with e reads only e's table,
    # e's target id b and the end id x of m, so e_complete builds it once
    # per distinct such key across all its maps, not once per map; and
    # every grouping or list of fills a map's sweep reads from the shared
    # memo is the one that map would build itself.  Under the plain classes
    # the image square settles every map of a pool that holds its images,
    # so that case runs on finpre plus the validators' extras at bound 1,
    # where the 3-point extras' images are missing and the search runs;
    # the swapped case runs on finpre at bound 3.  Only the swapped classes
    # leave surjective maps outside E, whose sweeps read fills.
    pools, law, builds, checked, fills = [], [None], [], set(), []
    real_of = factorization.CheckResult.of.__func__
    real_by_precomposite = factorization._by_precomposite

    class Pool(_Pool):
        def __init__(self, objects, hom_tables):
            super().__init__(objects, hom_tables)
            pools.append(self)

        def bad_square(self, e, m, reflects, per_e):
            square = super().bad_square(e, m, reflects, per_e)
            key = id(per_e), e.idx, e.s, e.t, m.s, m.t
            if law[0] == "e_complete" and key not in checked:
                checked.add(key)
                for x in (m.s, m.t):
                    if x in per_e:
                        assert per_e[x] == real_by_precomposite(e.idx, self.hom[e.t, x])
                if ("fills", e.s, m.s) in per_e:
                    fills.append(key)
                    assert per_e["fills", e.s, m.s] == factorization._unmonotone_fills(
                        e.idx, self.size[e.t], self.order[e.t], self.up[m.s],
                        self.hom[e.s, m.s])
            return square

    def of(cls, check_id, outcomes):
        law[0] = check_id
        return real_of(cls, check_id, outcomes)

    def by_precomposite(e_idx, homs):
        if law[0] == "e_complete":
            (b, x), = (key for key, tables in pools[-1].hom.items() if tables is homs)
            builds.append((tuple(e_idx), b, x))
        return real_by_precomposite(e_idx, homs)

    monkeypatch.setattr(factorization, "_Pool", Pool)
    monkeypatch.setattr(factorization.CheckResult, "of", classmethod(of))
    monkeypatch.setattr(factorization, "_by_precomposite", by_precomposite)
    report = (swapped_system_context(builtin("finpre")).validate_factorization(3)
              if swapped else _finpre_extra().validate_factorization(1))
    assert report.check("e_complete").passed
    assert len(builds) == len(set(builds)) > 0
    assert bool(fills) == swapped


@pytest.mark.parametrize("swapped", [False, True], ids=["plain", "swapped"])
def test_indexed_sweep_matches_literal_sweep(swapped):
    # Every (e, m) pair of finpre at bound 2 plus the validators' extras,
    # under the plain classes and the swapped ones, so that e not
    # surjective and m not injective both occur: the join over bottoms and
    # diagonals grouped by their composite with e finds the oracle's
    # first square without exactly one diagonal, with its count.
    ctx = _finpre_extra()
    if swapped:
        ctx = swapped_system_context(ctx)
    pool, maps = _numbered(ctx.objects(2))
    sys = ctx.system
    es = [g for g in maps if in_e(sys, g.f)]
    ms = [g for g in maps if in_m(sys, g.f)]
    seen = set()
    for e in es:
        groups = {}
        for m in ms:
            square = _join_sweep(pool, e, m, groups)
            literal = oracles.exhaustive_square(e.f, m.f)
            assert square == (literal and (literal[0].idx, literal[1].idx, literal[2]))
            seen.add((oracles.surjective(e.f), oracles.injective(m.f),
                      square and square[2]))
    # (e surjective, m injective, diagonals of the first bad square)
    if swapped:
        assert {(False, True, 0), (False, False, 0), (False, False, 2)} <= seen
    else:
        assert seen == {(True, True, None)}


def test_pullback_table_is_the_label_level_projection():
    # Every cospan (g, m) of finpre at bound 2, m in any class: the index
    # pullback from m's fibres is pullback(g, m).p1 with its points in
    # (a, b) order.
    pool = builtin("finpre").objects(2)
    homs = [f for x in pool for y in pool for f in enumerate_morphisms(x, y)]
    for m in homs:
        fibres = _fibres(m.idx, m.target.size)
        for g in homs:
            if g.target != m.target:
                continue
            pb = pullback(g, m)
            pos = [pb.ob.index[pair_label(a, b)] for a in g.source.elements
                   for b in m.source.elements if g.table[a] == m.table[b]]
            p_idx, p_up, n, tgt_up = table_of(pb.p1)
            assert _pullback_table(g.idx, g.source.up_masks, fibres,
                                   m.source.up_masks) == (
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


def _with_system(base, system):
    """The base context validated under another system."""
    base.system = system
    return base


def _m_not_closed():
    """M: the injective tables except a 1-point source into a 3-point
    target, so that a member 1 -> 2 followed by a member 2 -> 3 is not."""
    ctx = _finpre_extra()
    return _with_system(ctx, FactorizationSystem(
        "m-not-closed", ctx.system.e_table,
        lambda idx, src_up, n, tgt_up: (
            injective_table(idx, src_up, n, tgt_up) and (len(idx), n) != (1, 3))))


def _e_not_closed():
    """E: the surjective tables except a 3-point source onto a 1-point
    target, so that a member 3 -> 2 followed by a member 2 -> 1 is not."""
    ctx = _finpre_extra()
    return _with_system(ctx, FactorizationSystem(
        "e-not-closed",
        lambda idx, src_up, n, tgt_up: (
            surjective_table(idx, src_up, n, tgt_up) and (len(idx), n) != (3, 1)),
        ctx.system.m_table))


def _no_point_identities():
    """E without the identities of 1-point objects: each is outside E and
    orthogonal to all of M, and its image member, itself, is an iso, so its
    image square has a diagonal and does not settle it."""
    ctx = builtin("finpre")
    e_table = ctx.system.e_table
    return _with_system(ctx, FactorizationSystem(
        "no-point-identities",
        lambda idx, src_up, n, tgt_up: (
            e_table(idx, src_up, n, tgt_up) and (len(idx), n) != (1, 1)),
        ctx.system.m_table))


# case -> (context maker, bound)
VALIDATE_CASES = {
    "finset-b3": (lambda: builtin("finset"), 3),
    "finset-split-b1": (lambda: split_mono_context(builtin("finset")), 1),
    "finpre-b2": (lambda: builtin("finpre"), 2),
    "finpre-split-b1": (lambda: split_mono_context(builtin("finpre")), 1),
    "finpre-surj-inj-b2": (
        lambda: _with_system(builtin("finpre"), surjections_injections()), 2),
    "finpre-extra-b2": (_finpre_extra, 2),
    "finpre-extra-swapped-b2": (lambda: swapped_system_context(_finpre_extra()), 2),
    "finpre-extra-crossed-b2": (lambda: crossed_coproduct_context(_finpre_extra()), 2),
    "finpre-extra-split-b2": (lambda: split_mono_context(_finpre_extra()), 2),
    "finpre-extra-m-not-closed-b2": (_m_not_closed, 2),
    "finpre-extra-e-not-closed-b2": (_e_not_closed, 2),
    "finpre-no-2-b2": (lambda: _no_two_point_sources(builtin("finpre")), 2),
    "finpre-no-2-tables-b2": (lambda: _no_two_point_tables(builtin("finpre")), 2),
    "finpre-no-point-ids-b2": (_no_point_identities, 2),
}

# case -> the laws it is there to fail
FAILING_LAWS = {
    # The map 0 -> 1 is outside E and orthogonal to both members of M,
    # the two identities.
    "finset-split-b1": ("e_complete",),
    "finpre-split-b1": ("e_complete",),
    # The discrete 2-point object onto the Sierpinski space is in both.
    # Against itself it has a square, identities top and bottom, whose one
    # candidate diagonal, its inverse, is not monotone.
    "finpre-surj-inj-b2": ("e_cap_m_is_iso", "orthogonality"),
    "finpre-extra-m-not-closed-b2": ("m_closed_under_composition",),
    "finpre-extra-e-not-closed-b2": ("e_closed_under_composition",),
    "finpre-no-2-b2": ("m_stable_under_pullback",),
    "finpre-no-2-tables-b2": ("m_stable_under_pullback",),
    # The map 0 -> 1 has no retraction, so it is outside M, and it is
    # orthogonal to all of E; its coimage member, the identity of 0, is an
    # iso, so only the search settles it.
    "finpre-extra-split-b2": ("m_complete",),
    "finpre-no-point-ids-b2": ("e_complete",),
}


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_validate_system_matches_label_level_oracle(case):
    make, bound = VALIDATE_CASES[case]
    ctx = make()
    pool = ctx.objects(bound)
    report = validate_system(ctx.system, pool, ctx)
    assert report.to_dict() == oracles.validate_system(ctx.system, pool, ctx).to_dict()
    for law in FAILING_LAWS.get(case, ()):
        assert not report.check(law).passed, law


def _certificate_squares(ctx, bound):
    """The numbered pool, and each completeness certificate the validator
    may read, as (image, e, m, square), `image` telling which: a map
    outside E against an injective member of M with its target and image
    (`image_square`), and a surjective member of E with the source and
    kernel of a map outside M against that map (`coimage_square`)."""
    pool, maps = _numbered(ctx.objects(bound))
    sys = ctx.system
    classes = [(g, sys.e_table(*table_of(g.f)), sys.m_table(*table_of(g.f)))
               for g in maps]
    kernel = factorization._kernel
    out = []
    for f, in_e, in_m in classes:
        if not in_e:
            out += [(True, f, m, pool.image_square(f, m)) for m, _, member in classes
                    if member and m.inj and m.t == f.t and set(m.idx) == set(f.idx)]
        if not in_m:
            out += [(False, e, f, pool.coimage_square(e, f)) for e, member, _ in classes
                    if member and e.surj and e.s == f.s
                    and kernel(e.idx) == kernel(f.idx)]
    return pool, out


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_certificate_squares_count_their_diagonals(case):
    # A certificate is a square exactly when the literal hom sets hold its
    # top and bottom: the image square's top is the one u with m.u = e
    # under the identity, the coimage square's bottom the one v with v.e =
    # m over the identity.  Its diagonals, counted by enumerating hom(b, c),
    # number one when the member is an iso (`_Pool.iso`) and none
    # otherwise; and where there are none, the square search of the pair
    # fails too.
    make, bound = VALIDATE_CASES[case]
    pool, certificates = _certificate_squares(make(), bound)
    counts = set()
    for image, e, m, square in certificates:
        a, b, c, d = e.s, e.t, m.s, m.t
        if image:
            found = [u for u in pool.hom[a, c] if tuple(m.idx[t] for t in u) == e.idx]
            literal = found and (found[0], tuple(range(pool.size[d])))
        else:
            found = [v for v in pool.hom[b, d] if tuple(v[t] for t in e.idx) == m.idx]
            literal = found and (tuple(range(pool.size[a])), found[0])
        assert len(found) <= 1 and square == (literal or None), (
            e.f.mapping, m.f.mapping)
        if square is None:
            continue
        u, v = square
        count = sum(tuple(w[t] for t in e.idx) == u
                    and tuple(m.idx[t] for t in w) == v for w in pool.hom[b, c])
        assert count == pool.iso(m if image else e), (e.f.mapping, m.f.mapping)
        if not count:
            assert pool.bad_square(e, m, pool.reflects(m), {}) is not None
        counts.add(count)
    assert counts


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_builtin_completeness_searches_no_square(monkeypatch, name):
    # Under the builtin systems at bound 3, every map outside a class has
    # a certificate whose member is not an iso, and every pair of the
    # orthogonality sweep is a surjection against an embedding: the three
    # laws make no `bad_square` call, and the report is the label-level
    # oracle's.
    ctx = builtin(name)
    objects = ctx.objects(3)
    calls = []
    real = _Pool.bad_square

    def bad_square(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(_Pool, "bad_square", bad_square)
    report = validate_system(ctx.system, objects, ctx)
    assert report.passed and not calls
    assert report.to_dict() == oracles.validate_system(ctx.system, objects, ctx).to_dict()


def test_validate_system_reads_each_hom_set_once(monkeypatch):
    # The pool is numbered once: |pool|^2 hom sets read from the context's
    # store, each enumerated there once, and no other enumeration by any
    # law.
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    reads, enumerated = [], []
    real_read, real_maps = ctx.hom_tables, contexts._monotone_maps

    def read(x, y):
        reads.append((x, y))
        return real_read(x, y)

    def maps(x, y, injective):
        enumerated.append((x, y, injective))
        return real_maps(x, y, injective)

    monkeypatch.setattr(ctx, "hom_tables", read)
    monkeypatch.setattr(contexts, "_monotone_maps", maps)
    monkeypatch.setattr(factorization, "_monotone_maps", maps)
    assert validate_system(ctx.system, pool, ctx).passed
    assert len(reads) == len(enumerated) == len(pool) ** 2


def test_passing_validation_builds_no_map_or_object(monkeypatch):
    # Once the pool's homs are enumerated, every law decides on index
    # tables: a passing run constructs no Morphism and no FiniteObject.
    ctx = builtin("finpre")
    pool = ctx.objects(2)
    assert validate_system(ctx.system, pool, ctx).passed

    def refuse(self):
        raise AssertionError(f"validate_system built a {type(self).__name__}")

    monkeypatch.setattr(Morphism, "__post_init__", refuse)
    monkeypatch.setattr(FiniteObject, "__post_init__", refuse)
    assert validate_system(ctx.system, pool, ctx).passed


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
        want_e, want_m = oracles.surjective(f), literal_m(f)
        assert ctx.system.e_table(*args) == in_e(ctx.system, f) == want_e
        assert ctx.system.m_table(*args) == in_m(ctx.system, f) == want_m
        assert swapped.e_table(*args) == in_e(swapped, f) == want_m
        assert swapped.m_table(*args) == in_m(swapped, f) == want_e
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
    report = validate_system(ctx.system, ctx.objects(2), ctx)
    assert report.passed, [c.id for c in report.failed()]


def test_factorize_rejects_wrong_composite():
    x = plain("a", "b")
    f = Morphism(x, x, (("a", "a"), ("b", "a")))
    fac = image_factorization(f)
    assert compose(fac.m_part, fac.e_part) == f


def test_swapped_classes_fail_validation():
    ctx = swapped_system_context(builtin("finset"))
    report = validate_system(ctx.system, ctx.objects(2), ctx)
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
    assert in_e(sys, identity(x)) and in_m(sys, identity(x))
