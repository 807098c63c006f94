"""Join semilattices, hom enumeration, and biproduct structure."""

import itertools

import pytest

from extcheck.contexts import builtin
from extcheck.core import FiniteObject, terminal
from extcheck.semilattice import (
    Biproduct,
    JoinSemilattice,
    closed_biproduct,
    closed_semilattice,
    compose_homs,
    enumerate_homs,
    hom_matrix,
    identity_hom,
    is_hom,
    join_homs,
    lattice_from_masks,
    matrix_roundtrip,
    matrix_to_hom,
    subobject_biproduct,
    verify_biproduct,
    zero_hom,
)
from oracles import SemilatticeHom, join_of


def powerset_lattice(n: int) -> JoinSemilattice:
    masks = list(range(1 << n))
    return lattice_from_masks(masks, lambda a, b: a | b, 0)


def lattice_of_masks(masks) -> JoinSemilattice:
    """The lattice of ascending masks, closed under intersection, with the
    least mask above a union as the join."""
    return lattice_from_masks(
        masks, lambda a, b: next(m for m in masks if a | b | m == m), masks[0])


# The two non-distributive lattices: the diamond (three atoms, each pair
# joining to the top) and the pentagon (a < b, c beside both).
M3 = (0b000, 0b001, 0b010, 0b100, 0b111)
N5 = (0b000, 0b001, 0b011, 0b100, 0b111)


def test_lattice_laws_validated_on_construction():
    lat = powerset_lattice(2)
    assert lat.n == 4
    assert lat.leq(0, 3) and not lat.leq(3, 0)
    assert join_of(lat, [1, 2]) == 3


def test_bad_zero_is_rejected():
    with pytest.raises(ValueError):
        JoinSemilattice(((0, 1), (1, 1)), zero=1)


def test_non_commutative_table_is_rejected():
    with pytest.raises(ValueError):
        JoinSemilattice(((0, 1), (0, 1)), zero=0)


def test_non_associative_join_is_refused_by_hom_enumeration():
    # commutative, idempotent, zero-neutral, but (1 v 2) v 3 = 3 while
    # 1 v (2 v 3) = 1; construction does not check associativity
    lat = JoinSemilattice(((0, 1, 2, 3),
                           (1, 1, 3, 1),
                           (2, 3, 2, 3),
                           (3, 1, 3, 3)), zero=0)
    assert not lat.associative
    assert powerset_lattice(2).associative
    for src, tgt in ((lat, powerset_lattice(1)), (powerset_lattice(1), lat)):
        with pytest.raises(ValueError, match="join not associative"):
            enumerate_homs(src, tgt)


def test_join_irreducibles_of_powerset():
    lat = powerset_lattice(3)
    # exactly the singletons; each element's index is its mask
    assert lat.irreducibles == (1, 2, 4)
    assert lattice_of_masks(N5).irreducibles == (1, 2, 3)


def test_hom_enumeration_matches_brute_force_on_small_lattices():
    for n_src, n_tgt in ((1, 2), (2, 1), (2, 2)):
        src, tgt = powerset_lattice(n_src), powerset_lattice(n_tgt)
        fast = set(enumerate_homs(src, tgt))
        slow = set()
        for values in itertools.product(range(tgt.n), repeat=src.n):
            cand = SemilatticeHom(src, tgt, tuple(values))
            assert is_hom(src, tgt, values) == cand.is_valid()
            if cand.is_valid():
                slow.add(cand.table)
        assert fast == slow


def test_hom_enumeration_on_non_distributive_lattices():
    """On M3 and N5 the generator equations reject candidates, so the
    staged rejection path runs; the tables, in order, are those of the
    reference enumeration and of the brute-force filter."""
    lats = [lattice_of_masks(M3), lattice_of_masks(N5), powerset_lattice(2)]
    counts = []
    for src, tgt in itertools.product(lats, repeat=2):
        homs = enumerate_homs(src, tgt)
        assert homs == _homs_by_is_valid(src, tgt)
        assert homs == tuple(
            table for table in itertools.product(range(tgt.n), repeat=src.n)
            if SemilatticeHom(src, tgt, table).is_valid())
        counts.append(len(homs))
    assert counts == [50, 41, 25, 41, 43, 25, 25, 25, 16]


def test_hom_composition_and_join():
    lat = powerset_lattice(2)
    ih = identity_hom(lat)
    zh = zero_hom(lat, lat)
    assert compose_homs(ih, ih) == ih
    assert compose_homs(zh, ih) == zh
    assert join_homs(lat, ih, zh) == ih
    # against the reference homs, on every pair of endo-homs
    homs = enumerate_homs(lat, lat)
    for g, h in itertools.product(homs, repeat=2):
        ref_g, ref_h = SemilatticeHom(lat, lat, g), SemilatticeHom(lat, lat, h)
        assert compose_homs(g, h) == ref_g.after(ref_h).table
        assert join_homs(lat, g, h) == ref_g.join(ref_h).table


def test_identity_closed_semilattice_matches_oracle_join():
    """The subobject biproduct's lattices, the closed lattices of the
    identity closure, join as the label-level oracle does."""
    from extcheck.closure import IDENTITY
    from extcheck.subobjects import subobject_from_mask
    from oracles import join_subobjects

    for name in ("finset", "finpre"):
        ctx = builtin(name)
        for x in ctx.objects(2):
            lat, masks = closed_semilattice(IDENTITY.space(x), ctx.sub_lattice(x))
            assert masks == ctx.sub_lattice(x).masks
            # join table agrees with the factorization-system join
            for i, mi in enumerate(masks):
                for j, mj in enumerate(masks):
                    joined = join_subobjects(subobject_from_mask(x, mi),
                                             subobject_from_mask(x, mj))
                    assert masks[lat.join[i][j]] == joined.mask


def test_closed_semilattice_of_indiscrete_pair():
    ctx = builtin("finset")
    two = ctx.objects(2)[2]
    from extcheck.closure import INDISCRETE
    sp = INDISCRETE.space(two)
    lat, masks = closed_semilattice(sp, ctx.sub_lattice(two))
    assert lat.n == 2
    assert masks == (0, (1 << two.size) - 1)


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_subobject_biproduct_passes(name):
    ctx = builtin(name)
    one = terminal(ctx.ordered)
    bp = subobject_biproduct(ctx.sub_lattice, one, one, ctx.coproduct(one, one))
    assert bp.passed, [c.id for c in bp.report.failed()]
    assert bp.total.n == 4
    assert bp.left.n == bp.right.n == 2


def test_biproduct_with_empty_summand():
    ctx = builtin("finset")
    from extcheck.core import initial
    zero = initial(False)
    one = terminal(False)
    bp = subobject_biproduct(ctx.sub_lattice, zero, one, ctx.coproduct(zero, one))
    assert bp.passed
    assert bp.left.n == 1


def test_broken_projection_fails_verification():
    lat1 = powerset_lattice(1)
    lat2 = powerset_lattice(2)
    # wrong: sends the right atom to the top of the left factor
    report = verify_biproduct(lat1, lat1, lat2, (0, 1), (0, 2), (0, 1, 0, 1),
                              (0, 1, 1, 1))
    assert not report.passed
    failed = {c.id for c in report.failed()}
    assert "projection_kills_other_injection" in failed
    good = verify_biproduct(lat1, lat1, lat2, (0, 1), (0, 2), (0, 1, 0, 1),
                            (0, 0, 1, 1))
    assert good.passed and [c.checked for c in good.checks] == [1, 4, 2, 2, 1]
    # a table of the wrong length fails the endpoint check alone
    short = verify_biproduct(lat1, lat1, lat2, (0, 1), (0, 2), (0, 1, 0),
                             (0, 0, 1, 1))
    assert [(c.id, c.passed) for c in short.checks] == [
        ("endpoints_consistent", False), ("maps_are_homs", False)]


def test_hom_matrix_of_identity_is_identity_matrix():
    ctx = builtin("finset")
    one = terminal(False)
    bp = subobject_biproduct(ctx.sub_lattice, one, one, ctx.coproduct(one, one))
    mat = hom_matrix(bp, bp, identity_hom(bp.total))
    assert mat[0][0] == identity_hom(bp.left)
    assert mat[1][1] == identity_hom(bp.right)
    assert mat[0][1] == zero_hom(bp.right, bp.left)
    assert mat[1][0] == zero_hom(bp.left, bp.right)


def test_matrix_round_trip_exhaustive_on_two_point_sum():
    ctx = builtin("finpre")
    one = terminal(True)
    bp = subobject_biproduct(ctx.sub_lattice, one, one, ctx.coproduct(one, one))
    homs = enumerate_homs(bp.total, bp.total)
    assert len(homs) == 16
    for h in homs:
        mat = hom_matrix(bp, bp, h)
        assert matrix_to_hom(bp, bp, mat) == h


def _lattice_algebra_pool():
    """finpre at bound 1 plus the two-element chain, as the `lattice-algebra`
    benchmark workload passes it through `--objects`."""
    chain = FiniteObject(("p1", "p2"),
                         frozenset({("p1", "p1"), ("p2", "p2"), ("p1", "p2")}),
                         "chain2")
    ctx = builtin("finpre").with_extra_objects([chain])
    return ctx, ctx.objects(1)


def _homs_by_is_valid(src, tgt):
    """Reference enumeration: the join-extension of every monotone
    assignment on the join-irreducibles, kept when `SemilatticeHom.is_valid`."""
    irr = src.irreducibles
    order = [(p, q) for p, i in enumerate(irr) for q, j in enumerate(irr)
             if src.leq(i, j)]
    out = []
    for assign in itertools.product(range(tgt.n), repeat=len(irr)):
        if not all(tgt.leq(assign[p], assign[q]) for p, q in order):
            continue
        hom = SemilatticeHom(src, tgt, tuple(
            join_of(tgt, (a for i, a in zip(irr, assign) if src.leq(i, x)))
            for x in range(src.n)))
        if hom.is_valid():
            out.append(hom.table)
    return tuple(out)


def _structure_maps(bp):
    """The injections and the projections of a biproduct as reference
    homs."""
    return ((SemilatticeHom(bp.left, bp.total, bp.inj_l),
             SemilatticeHom(bp.right, bp.total, bp.inj_r)),
            (SemilatticeHom(bp.total, bp.left, bp.proj_l),
             SemilatticeHom(bp.total, bp.right, bp.proj_r)))


@pytest.mark.parametrize("pool", ["finset-b2", "lattice-algebra"])
def test_table_hom_algebra_matches_object_composites(pool):
    """Every hom between sum lattices, the capped pairs included: the table
    enumeration equals the reference one (and, where all tables can be
    tried, the brute-force filter), the table matrix calculus equals the
    literal `compose_homs`/`join_homs` composites, and `matrix_roundtrip`
    decides each round trip as the matrix calculus does."""
    if pool == "finset-b2":
        ctx = builtin("finset")
        objs = ctx.objects(2)
    else:
        ctx, objs = _lattice_algebra_pool()
    bps = [subobject_biproduct(ctx.sub_lattice, x, y, ctx.coproduct(x, y))
           for x, y in itertools.product(objs, repeat=2)]
    total = 0
    for s, t in itertools.product(bps, repeat=2):
        src, tgt = s.total, t.total
        homs = enumerate_homs(src, tgt)
        assert homs == _homs_by_is_valid(src, tgt)
        if tgt.n ** src.n <= 4096:
            assert set(homs) == {
                table for table in itertools.product(range(tgt.n), repeat=src.n)
                if SemilatticeHom(src, tgt, table).is_valid()}
        roundtrips = []
        s_inj, s_proj = _structure_maps(s)
        t_inj, t_proj = _structure_maps(t)
        for h in homs:
            hom = SemilatticeHom(src, tgt, h)
            lit = [[p.after(hom.after(i)) for i in s_inj] for p in t_proj]
            mat = hom_matrix(s, t, h)
            assert mat == tuple(tuple(e.table for e in row) for row in lit)
            parts = [inj.after(lit[r][c].after(proj))
                     for r, inj in enumerate(t_inj)
                     for c, proj in enumerate(s_proj)]
            joined = parts[0]
            for part in parts[1:]:
                joined = joined.join(part)
            assert matrix_to_hom(s, t, mat) == joined.table
            roundtrips.append(matrix_to_hom(s, t, mat) == h)
        assert list(matrix_roundtrip(s, t, homs)) == roundtrips
        total += len(homs)
    # 21,081 below the round-trip cap (the checker's 21,083 adds the
    # identity and zero of the capped pair) and the 65,536 endo-homs of the
    # 16-element lattice above it
    assert total == 21081 + 65536


def test_matrix_roundtrip_with_broken_projection():
    """With the broken projection of `test_broken_projection_fails_verification`
    some homs do not round-trip: `matrix_roundtrip` fails exactly those the
    matrix calculus fails, the first of them first."""
    lat1, lat2 = powerset_lattice(1), powerset_lattice(2)
    maps = (0, 1), (0, 2), (0, 1, 0, 1), (0, 1, 1, 1)
    report = verify_biproduct(lat1, lat1, lat2, *maps)
    bp = Biproduct(lat1, lat1, lat2, *maps, report)
    homs = enumerate_homs(lat2, lat2)
    literal = [matrix_to_hom(bp, bp, hom_matrix(bp, bp, h)) == h for h in homs]
    assert list(matrix_roundtrip(bp, bp, homs)) == literal
    assert True in literal and False in literal
    first = next(h for h, ok in zip(homs, matrix_roundtrip(bp, bp, homs))
                 if not ok)
    assert first == homs[literal.index(False)] == (0, 0, 1, 1)


def test_matrix_to_hom_of_zero_matrix():
    ctx = builtin("finset")
    one = terminal(False)
    bp = subobject_biproduct(ctx.sub_lattice, one, one, ctx.coproduct(one, one))

    z = zero_hom
    mat = ((z(bp.left, bp.left), z(bp.right, bp.left)),
           (z(bp.left, bp.right), z(bp.right, bp.right)))
    assert matrix_to_hom(bp, bp, mat) == z(bp.total, bp.total)


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_closed_biproduct_alexandrov_and_identity(name):
    ctx = builtin(name)
    one = terminal(ctx.ordered)
    for fam in ctx.families:
        bp = closed_biproduct(ctx.sub_lattice, fam, one, one, ctx.coproduct(one, one))
        if fam.name == "indiscrete":
            assert not bp.passed
        else:
            assert bp.passed, (fam.name, [c.id for c in bp.report.failed()])
