"""Verdict-level behavior of the theorem checkers."""

import pytest

from extcheck.contexts import (
    builtin,
    crossed_coproduct_context,
    split_mono_context,
    swapped_system_context,
)
from extcheck.core import serialize_object
from extcheck.theorems import (
    CHECKERS,
    FAMILY_FREE,
    THEOREM_IDS,
    first_counterexample,
    run_checker,
)


@pytest.fixture(scope="module")
def finset():
    return builtin("finset")


@pytest.fixture(scope="module")
def finpre():
    return builtin("finpre")


def _family_bound(thm: str) -> int:
    return 1 if thm in ("G", "H") else 2


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_every_checker_passes_on_builtin_contexts(name):
    """The meta-invariant: in a validated context every verdict passes,
    either because all sides agree or because the hypothesis fails."""
    ctx = builtin(name)
    memo = {}
    for thm in THEOREM_IDS:
        if thm in FAMILY_FREE or thm == "validate":
            fams = [None]
        else:
            fams = list(ctx.families)
        for fam in fams:
            v = run_checker(thm, ctx, fam, _family_bound(thm), memo)
            assert v.passed, (thm, fam and fam.name, v.sides, v.witnesses)
            assert v.status in ("ok", "hypothesis-failed")


def test_deep_bound_2_for_g_and_h_on_alexandrov(finpre):
    memo = {}
    fam = finpre.family("alexandrov")
    for thm in ("G", "H"):
        v = run_checker(thm, finpre, fam, 2, memo)
        assert v.status == "ok"
        assert v.passed, (thm, v.sides, v.witnesses)
        assert all(value for _, value in v.sides)


def test_checker_a_sides_and_counts(finset):
    v = run_checker("A", finset, None, 2, {})
    assert v.theorem == "A" and v.family is None
    assert dict(v.sides) == {"sums_of_admissibles_admissible": True,
                             "e_monos_pull_back_along_injections": True}
    counts = dict(v.counts)
    assert counts["subobject_pairs"] == 49
    assert counts["e_monos"] > 0
    assert v.equivalence_ok is True
    # a confirming witness is recorded when nothing fails
    assert any(w.get("kind") == "confirming" for w in v.witnesses)


def test_checker_b_indiscrete_first_counterexample(finset):
    fam = finset.family("indiscrete")
    v = run_checker("B", finset, fam, 2, {})
    assert v.passed and v.equivalence_ok
    assert all(value is False for _, value in v.sides)
    wit = next(w for w in v.witnesses
               if w["side"] == "sums_of_closed_embeddings_closed")
    # the smallest violation: both components a point, empty against full
    assert wit["x"]["elements"] == ["x1"]
    assert wit["y"]["elements"] == ["x1"]
    assert wit["a"]["elements"] == []
    assert wit["b"]["elements"] == ["x1"]
    assert wit["sum_admissible"] is True
    assert wit["closure_of_sum"] == ["L:x1", "R:x1"]


def test_gated_checkers_report_hypothesis_failed(finset):
    fam = finset.family("indiscrete")
    memo = {}
    for thm in ("D", "F", "G", "H", "biproduct"):
        v = run_checker(thm, finset, fam, 2, memo)
        assert v.status == "hypothesis-failed", thm
        assert v.passed
        assert v.sides == ()
        assert v.hypothesis


def test_checker_c_indiscrete_sides_agree_false(finset):
    fam = finset.family("indiscrete")
    v = run_checker("C", finset, fam, 2, {})
    assert v.status == "ok"
    assert dict(v.sides) == {"sums_of_closed_morphisms_closed": False,
                             "injections_closed": False}
    assert v.equivalence_ok and v.passed
    assert len(v.witnesses) == 2


def test_checker_e_all_conditions_true(finpre):
    v = run_checker("E", finpre, None, 2, {})
    assert v.passed
    assert all(value for _, value in v.sides)
    counts = dict(v.counts)
    assert counts["direct_quadruples"] > 0


def test_checker_e_skips_direct_sweep_at_bound_3(finset):
    v = run_checker("E", finset, None, 3, {})
    assert v.passed
    assert dict(v.counts)["direct_quadruples"] == 0
    assert dict(v.counts)["morphism_pairs"] == 3600


def _sum_idx(f, g):
    return f.idx + tuple(t + f.target.size for t in g.idx)


def test_checker_e_sweeps_every_pair_at_bound_3(finset, monkeypatch):
    """At bound 3 every morphism pair is swept: a failure forced on one
    pair's sum is reported with the first pair of that sum as witness and
    its 1-based index as `morphism_pairs`."""
    from itertools import product

    from extcheck import theorems
    from extcheck.core import serialize_morphism

    pool = finset.objects(3)
    homs = [f for x in pool for y in pool for f in finset.hom(x, y)]
    pairs = list(product(homs, repeat=2))
    # Two 3-point sources: no single hom's table has the sum's length.
    f = next(h for h in homs[len(homs) // 2:] if h.source.size == 3)
    bad = _sum_idx(f, homs[-1])
    n, (p, q) = next((n, pq) for n, pq in enumerate(pairs, 1)
                     if _sum_idx(*pq) == bad)
    assert n < len(pairs)
    real = theorems._image_parts
    monkeypatch.setattr(theorems, "_image_parts",
                        lambda idx: (0, ()) if idx == bad else real(idx))
    v = run_checker("E", finset, None, 3, {})
    assert not v.passed
    assert dict(v.sides) == {"factorization_of_sum_is_sum_of_factorizations": False,
                             "sum_middle_objects_agree": True,
                             "single_summand_pieces_consistent": True,
                             "direct_summand_sweep": True}
    assert dict(v.counts)["morphism_pairs"] == n
    assert v.witnesses == ({"f": serialize_morphism(p), "g": serialize_morphism(q),
                            "side": "factorization_of_sum_is_sum_of_factorizations",
                            "kind": "counterexample"},)


def _with_fork3(base):
    from test_golden_reports import WORKLOAD_EXTRAS
    return base.with_extra_objects(WORKLOAD_EXTRAS[:1])


E_ORACLE_CASES = {
    "finset-b2": ("finset", None, 2),
    "finset!swapped-b2": ("finset", swapped_system_context, 2),
    "finset!split-b2": ("finset", split_mono_context, 2),
    "finpre-b1": ("finpre", None, 1),
    "finpre!swapped-b1": ("finpre", swapped_system_context, 1),
    "finpre!split-b1": ("finpre", split_mono_context, 1),
    "finpre!crossed-b1": ("finpre", crossed_coproduct_context, 1),
    # The first workload preorder, a 3-point fork, beside the empty one:
    # 8,100 quadruples.  With all three at bound 1 there are 1,168,561,
    # which the reference sweeps in minutes.
    "finpre+fork3-b0": ("finpre", _with_fork3, 0),
    "finpre-b2": ("finpre", None, 2),
}


@pytest.mark.parametrize("case", E_ORACLE_CASES)
def test_checker_e_matches_label_level_oracle(case):
    """Checker E on index tables reports exactly what the label-level
    reference reports, which builds every sum, image, restriction and
    composite as an object."""
    from oracles import factorization_of_sums

    base, variant, bound = E_ORACLE_CASES[case]
    ctx = builtin(base) if variant is None else variant(builtin(base))
    assert (run_checker("E", ctx, None, bound, {}).to_dict()
            == factorization_of_sums(ctx, bound).to_dict())


def _with_closed_maps_objects(base):
    from pathlib import Path

    from extcheck.cli import load_objects
    path = Path(__file__).resolve().parents[1] / "perfbench/inputs/closed-maps.json"
    return base.with_extra_objects(load_objects(str(path), base.ordered))


# case -> (base context, variant, bound, {family: failing pairs}).  The
# crossed mutant's alexandrov sums and every indiscrete sum have closure
# tables that are not block-diagonal, so their cross terms are decided per
# pair, on passing and on failing pairs.
C_SUM_ORACLE_CASES = {
    "finset-b3": ("finset", None, 3, {"identity": 0, "indiscrete": 102}),
    "finpre+closed-maps-b2": ("finpre", _with_closed_maps_objects, 2,
                              {"alexandrov": 0, "identity": 0,
                               "indiscrete": 1344}),
    "finpre+closed-maps!crossed-b2": (
        "finpre", lambda ctx: crossed_coproduct_context(
            _with_closed_maps_objects(ctx)), 2,
        {"alexandrov": 6337, "identity": 0, "indiscrete": 1344}),
}


@pytest.mark.parametrize("case", C_SUM_ORACLE_CASES)
def test_checker_c_sum_side_matches_per_pair_oracle(case):
    """Checker C's sum side, decided per block on closure tables, yields
    the outcome of every pair that the per-pair `_closed_fast` sweep
    yields, witnesses included, in the same order."""
    from functools import cache

    from oracles import closed_sum_of_closed_outcomes
    from extcheck import theorems

    base, variant, bound, failing = C_SUM_ORACLE_CASES[case]
    ctx = builtin(base) if variant is None else variant(builtin(base))
    pool = ctx.objects(bound)
    for fam in ctx.families:
        cls_of = cache(fam.component)
        closed = theorems._continuous_morphisms(ctx, pool, cls_of, closed=True)
        blocked = list(theorems._closed_sum_of_closed_outcomes(ctx, closed, cls_of))
        per_pair = list(closed_sum_of_closed_outcomes(ctx, closed, cls_of))
        assert blocked == per_pair, fam.name
        assert len(blocked) == len(closed) ** 2
        assert sum(o is not None for o in blocked) == failing[fam.name]


def _no_two_point_e(base):
    """The base context with E narrowed to maps whose source does not have
    two points, so that some E-mono between sums pulls back along an
    injection to a map outside E."""
    from extcheck.factorization import FactorizationSystem

    sys = base.system
    base.system = FactorizationSystem(
        f"{sys.name}|e-no-2",
        lambda idx, *rest: sys.e_table(idx, *rest) and len(idx) != 2, sys.m_table)
    return base


def _with_workload_extras(base):
    from test_golden_reports import WORKLOAD_EXTRAS
    return base.with_extra_objects(WORKLOAD_EXTRAS)


# case -> (base context, variant, bound, whether the side holds)
PULLBACK_SIDE_CASES = {
    "finset-b2": ("finset", None, 2, True),
    "finpre+extras-b2": ("finpre", _with_workload_extras, 2, True),
    "finset!swapped-b2": ("finset", swapped_system_context, 2, True),
    "finpre!swapped-b2": ("finpre", swapped_system_context, 2, True),
    "finpre!crossed-b2": ("finpre", crossed_coproduct_context, 2, True),
    "finset!split-b2": ("finset", split_mono_context, 2, True),
    "finpre!split-b2": ("finpre", split_mono_context, 2, True),
    "finset!e-no-2-b2": ("finset", _no_two_point_e, 2, False),
    "finpre!e-no-2-b2": ("finpre", _no_two_point_e, 2, False),
}


@pytest.mark.parametrize("case", PULLBACK_SIDE_CASES)
def test_injection_pullback_side_matches_label_level_oracle(case):
    """Checkers A and F's pullback side, decided on index slices of each
    E-mono, gives the (ok, witness, count) of the side that builds every
    injection pullback as a `Morphism`, for every registered family."""
    from oracles import injection_pullback_side
    from extcheck import theorems

    base, variant, bound, holds = PULLBACK_SIDE_CASES[case]
    ctx = builtin(base) if variant is None else variant(builtin(base))
    for fam in ctx.families:
        side = theorems._injection_pullback_side(ctx, fam, bound, {})
        assert side == injection_pullback_side(ctx, fam, bound), fam.name
        assert side[0] == holds and ("pulled_back" in side[1]) != holds


def test_verdict_serialization_shape(finset):
    v = run_checker("A", finset, None, 1, {})
    doc = v.to_dict()
    assert doc["theorem"] == "A"
    assert doc["context"] == "finset"
    assert isinstance(doc["sides"], list)
    assert isinstance(doc["counts"], dict)
    assert doc["passed"] is True


def test_validate_wrapper_covers_all_families(finpre):
    v = run_checker("validate", finpre, None, 2, {})
    names = [name for name, _ in v.sides]
    assert names == ["extensivity", "factorization", "closure_alexandrov",
                     "closure_identity", "closure_indiscrete"]
    assert v.passed


def test_unknown_theorem_id_rejected(finset):
    with pytest.raises(KeyError):
        run_checker("Z", finset, None, 2, {})
    with pytest.raises(ValueError):
        run_checker("B", finset, None, 2, {})


def test_split_mono_context_sides_agree(finset):
    """Self-test: on the split-mono variant the A-sides may flip, but the
    checker must still report agreement plus a witness."""
    mut = split_mono_context(finset)
    v = run_checker("A", mut, None, 2, {})
    assert v.status == "ok"
    assert v.equivalence_ok == (v.sides[0][1] == v.sides[1][1])
    assert v.witnesses


def test_crossed_coproduct_mutant_fails_validate(finpre):
    mut = crossed_coproduct_context(finpre)
    v = run_checker("validate", mut, None, 2, {})
    assert not v.passed
    assert dict(v.sides)["extensivity"] is False
    assert v.witnesses


def test_swapped_system_mutant_fails_validate(finset):
    mut = swapped_system_context(finset)
    v = run_checker("validate", mut, None, 2, {})
    assert not v.passed
    assert dict(v.sides)["factorization"] is False


def test_memo_reuses_gate_results(finset):
    memo = {}
    fam = finset.family("identity")
    run_checker("C", finset, fam, 2, memo)
    assert ("closed_sums", "identity", 2) in memo
    before = dict(memo)
    run_checker("D", finset, fam, 2, memo)
    # D's gate reads the entry C's gate stored, untouched
    assert all(memo[k] == before[k] for k in before)


@pytest.mark.parametrize("runs, sweep, bound, sweeps", [
    pytest.param(("A", "C"), "_closed_sum_outcomes", 2, [1, 0],
                 id="A-C-_closed_sum_outcomes-2"),
    pytest.param(("B", "D"), "_closed_sum_outcomes", 2, [1, 0],
                 id="B-D-_closed_sum_outcomes-2"),
    pytest.param(("C", "G"), "_c_sides", 1, [1, 0], id="C-G-_c_sides-1"),
    # A's pullback side is F's under the identity closure.
    pytest.param(("A", "F", "F/identity"), "_e_monos_between_sums", 2,
                 [1, 1, 0], id="A-F-F(identity)-_e_monos_between_sums-2"),
    # The subobject side is the closed side under the identity closure.
    pytest.param(("biproduct", "biproduct/identity"),
                 "_lattice_biproduct_outcomes", 1, [2, 0],
                 id="biproduct-biproduct(identity)-_lattice_biproduct_outcomes-1"),
])
def test_gate_reads_the_side_its_checker_stored(runs, sweep, bound, sweeps,
                                                monkeypatch):
    """Run on one memo after the checker whose side it reads, a checker
    sweeps that side no further; every verdict equals a memo-less run.  A
    run is a theorem, on alexandrov unless it names another family."""
    from extcheck import theorems

    ctx = builtin("finpre")
    calls = []
    real = getattr(theorems, sweep)

    def counted(*args):
        calls.append(sweep)
        return real(*args)

    monkeypatch.setattr(theorems, sweep, counted)
    memo, verdicts, swept = {}, [], []
    runs = [(*run.split("/"), "alexandrov")[:2] for run in runs]
    for thm, fam in runs:
        before = len(calls)
        verdicts.append(run_checker(thm, ctx, ctx.family(fam), bound, memo))
        swept.append(len(calls) - before)
    assert swept == sweeps
    monkeypatch.undo()
    for (thm, fam), v in zip(runs, verdicts):
        fresh = builtin("finpre")
        assert run_checker(thm, fresh, fresh.family(fam), bound, None) == v


def test_checker_dispatch_table_is_total():
    assert set(THEOREM_IDS) == set(CHECKERS)


def test_adjunctions_finpre_bound_3_counts_and_memo(monkeypatch):
    """Both adjunction sides hold for every finpre family at bound 3; the
    family-independent admissible side is swept once per run and then
    served from the memo, with the same verdict as an unmemoized run."""
    from extcheck import cli, theorems

    sweeps = []
    sweep = theorems.check_adjunction_admissible

    def counted(*lattices):
        sweeps.append(lattices)
        return sweep(*lattices)

    monkeypatch.setattr(theorems, "check_adjunction_admissible", counted)
    result = cli.run(cli.RunConfig(context="finpre", theorems=("adjunctions",),
                                   bound=3))
    pool = result.context.objects(3)
    assert len(sweeps) == len(pool) ** 2
    closed = {"alexandrov": 56644, "identity": 395641, "indiscrete": 1457}
    assert [v.family for v in result.verdicts] == list(closed)
    for v in result.verdicts:
        assert v.passed and all(ok for _, ok in v.sides)
        assert dict(v.counts) == {"admissible_triples": 395641,
                                  "closed_triples": closed[v.family]}
    monkeypatch.undo()
    fresh = builtin("finpre")
    for v in result.verdicts:
        assert run_checker("adjunctions", fresh, fresh.family(v.family),
                           3, None) == v


def test_biproduct_subobject_side_is_swept_once_per_run(monkeypatch):
    """The family-independent `subobject_lattice_biproduct` side, the closed
    side under the identity closure, is built once per run and served from
    the memo for the other families, with the same verdicts as unmemoized
    runs."""
    from collections import Counter
    from itertools import product

    from extcheck import theorems
    from extcheck.closure import IDENTITY

    ctx = builtin("finpre")
    built, roundtrip = Counter(), Counter()
    real_closed, real_sub = theorems.closed_biproduct, theorems.subobject_biproduct

    def counted(lattice_of, family, x, y, cp):
        if family is IDENTITY:
            built[x, y] += 1
        return real_closed(lattice_of, family, x, y, cp)

    def counted_roundtrip(lattice_of, x, y, cp):
        roundtrip[x, y] += 1
        return real_sub(lattice_of, x, y, cp)

    monkeypatch.setattr(theorems, "closed_biproduct", counted)
    monkeypatch.setattr(theorems, "subobject_biproduct", counted_roundtrip)
    memo = {}
    verdicts = [run_checker("biproduct", ctx, fam, 1, memo) for fam in ctx.families]
    assert [v.status for v in verdicts] == ["ok", "ok", "hypothesis-failed"]
    # Once for the side, also serving identity's closed side, and once for
    # the hom round trip, which builds every pair of objects of size at most
    # 2: at bound 1, all of them.
    pairs = list(product(ctx.objects(1), repeat=2))
    assert built == roundtrip == {pair: 1 for pair in pairs}
    monkeypatch.undo()
    for fam, v in zip(ctx.families, verdicts):
        assert run_checker("biproduct", builtin("finpre"), fam, 1, None) == v


def test_first_counterexample_counts_through_the_first_failure():
    outcomes = iter([None, None, {"w": 1}, None, {"w": 2}])
    assert first_counterexample(outcomes) == (False, {"w": 1}, 3)
    # the rest of the side is left unconsumed
    assert list(outcomes) == [None, {"w": 2}]


def test_first_counterexample_never_resumes_past_the_failure():
    def outcomes():
        yield None
        yield {"w": 2}
        raise AssertionError("resumed past the first counterexample")

    assert first_counterexample(outcomes()) == (False, {"w": 2}, 2)


def test_first_counterexample_on_an_exhausted_side():
    assert first_counterexample(None for _ in range(4)) == (True, None, 4)
    assert first_counterexample(iter(())) == (True, None, 0)


@pytest.mark.parametrize("base", ["finset", "finpre"])
@pytest.mark.parametrize("variant", [swapped_system_context, split_mono_context])
def test_biproduct_needs_empty_and_union_closed_admissibles(base, variant,
                                                            monkeypatch):
    """On the variants whose admissible subobjects miss the empty one, the
    biproduct checker reports the failed hypothesis with the first object
    that breaks it, and builds neither semilattice biproduct."""
    from extcheck import theorems

    def unguarded(*args):
        raise AssertionError("semilattice biproduct built without its hypothesis")

    monkeypatch.setattr(theorems, "subobject_biproduct", unguarded)
    monkeypatch.setattr(theorems, "closed_biproduct", unguarded)
    ctx = variant(builtin(base))
    point = ctx.objects(1)[1]
    assert point.size == 1
    for bound in (1, 2):
        memo = {}
        for fam in ctx.families:
            v = run_checker("biproduct", ctx, fam, bound, memo)
            assert v.status == "hypothesis-failed" and v.passed
            assert v.hypothesis == ("admissible subobjects contain the empty "
                                    "one and are closed under unions")
            assert v.witnesses == ({"object": serialize_object(point)},)
        assert ("biproduct_roundtrip", bound) not in memo


# Under identity the two sides are one memo entry, so only another family
# can fail one and not the other.
@pytest.mark.parametrize("name, fam_name", [("finpre", "alexandrov")])
def test_closed_biproduct_side_runs_past_a_subobject_failure(name, fam_name,
                                                             monkeypatch):
    """A forced `subobject_lattice_biproduct` failure on the first pair
    ends that side only: the closed lattices of every pair are still built,
    and the closed side keeps the value it has without the failure."""
    from itertools import product

    from extcheck import theorems
    from extcheck.closure import IDENTITY
    from extcheck.core import CheckResult, Report

    ctx = builtin(name)
    fam = ctx.family(fam_name)
    unforced = dict(run_checker("biproduct", ctx, fam, 1, {}).sides)
    pairs = list(product(ctx.objects(1), repeat=2))
    real_closed = theorems.closed_biproduct
    closed_pairs = []

    def failing_on_first_pair(lattice_of, family, x, y, cp):
        bp = real_closed(lattice_of, family, x, y, cp)
        if family is IDENTITY and (x, y) == pairs[0]:
            bp.report = Report("biproduct", (CheckResult("forced", False, 1),))
        elif family is fam:
            closed_pairs.append((x, y))
        return bp

    monkeypatch.setattr(theorems, "closed_biproduct", failing_on_first_pair)
    v = run_checker("biproduct", ctx, fam, 1, {})
    sides = dict(v.sides)
    assert sides["subobject_lattice_biproduct"] is False
    assert sides["closed_lattice_biproduct"] is unforced["closed_lattice_biproduct"]
    assert closed_pairs == pairs
    assert dict(v.counts)["object_pairs"] == 1
    x, y = pairs[0]
    assert v.witnesses[0] == {"x": serialize_object(x), "y": serialize_object(y),
                              "failed": ["forced"],
                              "side": "subobject_lattice_biproduct",
                              "kind": "counterexample"}


def test_roundtrip_side_names_the_first_hom_that_fails(monkeypatch):
    """With every sum lattice's right projection broken to zero, the
    round-trip side fails, and its witness and count are those of the first
    hom, over the (source, target) pairs in order, whose 2x2 matrix does not
    join back on the literal matrix calculus."""
    from extcheck import theorems
    from extcheck.semilattice import enumerate_homs, hom_matrix, matrix_to_hom

    real = theorems.subobject_biproduct

    def broken(lattice_of, x, y, cp):
        bp = real(lattice_of, x, y, cp)
        bp.proj_r = (bp.right.zero,) * bp.total.n
        return bp

    monkeypatch.setattr(theorems, "subobject_biproduct", broken)
    ctx = builtin("finset")
    pool = ctx.objects(1)
    ok, witness, count = first_counterexample(
        theorems._roundtrip_outcomes(ctx, pool))
    assert not ok

    bps = [(key, broken(ctx.sub_lattice, *key, ctx.coproduct(*key)))
           for key in theorems._object_pairs(pool)]

    def literal():
        for s_key, s in bps:
            for t_key, t in bps:
                for h in enumerate_homs(s.total, t.total):
                    yield (None if matrix_to_hom(s, t, hom_matrix(s, t, h)) == h
                           else {"source_pair": [o.label for o in s_key],
                                 "target_pair": [o.label for o in t_key],
                                 "hom_table": list(h)})

    assert (witness, count) == first_counterexample(literal())[1:]
