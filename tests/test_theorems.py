"""Verdict-level behavior of the theorem checkers."""

import pytest

from extcheck.closure import ClosureFamily
from extcheck.contexts import (
    Context,
    builtin,
    crossed_coproduct_context,
    preorders_of_size,
    split_mono_context,
    swapped_system_context,
)
from extcheck.core import LEFT_TAG, RIGHT_TAG, count_instances, serialize_object
from extcheck.factorization import FactorizationSystem
from extcheck.theorems import (
    CHECKERS,
    FAMILY_FREE,
    THEOREM_IDS,
    first_counterexample,
    run_checker,
)
from oracles import hom


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
        if thm in FAMILY_FREE:
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
    homs = [f for x in pool for y in pool for f in hom(finset, x, y)]
    pairs = list(product(homs, repeat=2))
    # Two 3-point sources: no single hom's table has the sum's length.
    f = next(h for h in homs[len(homs) // 2:] if h.source.size == 3)
    bad = _sum_idx(f, homs[-1])
    n, (p, q) = next((n, pq) for n, pq in enumerate(pairs, 1)
                     if _sum_idx(*pq) == bad)
    assert n < len(pairs)
    real = theorems.image_parts
    monkeypatch.setattr(theorems, "image_parts",
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


def _with_bench_objects(base, name="closed-maps"):
    from pathlib import Path

    from extcheck.cli import load_objects
    path = Path(__file__).resolve().parents[1] / f"perfbench/inputs/{name}.json"
    return base.with_extra_objects(load_objects(str(path), base.ordered))


def _expanded(outcomes) -> list:
    """`outcomes` with each run of k instances that hold as k Nones."""
    from itertools import chain, repeat
    return list(chain.from_iterable(
        repeat(None, o) if o.__class__ is int else (o,) for o in outcomes))


# case -> (base context, variant, bound, {family: failing pairs}).  The
# crossed mutant's alexandrov sums and every indiscrete sum have closure
# tables that are not block-diagonal, so their cross terms are decided per
# pair, on passing and on failing pairs.
C_SUM_ORACLE_CASES = {
    "finset-b3": ("finset", None, 3, {"identity": 0, "indiscrete": 102}),
    "finpre+closed-maps-b2": ("finpre", _with_bench_objects, 2,
                              {"alexandrov": 0, "identity": 0,
                               "indiscrete": 1344}),
    "finpre+closed-maps!crossed-b2": (
        "finpre", lambda ctx: crossed_coproduct_context(
            _with_bench_objects(ctx)), 2,
        {"alexandrov": 6337, "identity": 0, "indiscrete": 1344}),
}


@pytest.mark.parametrize("case", C_SUM_ORACLE_CASES)
def test_checker_c_sum_side_matches_per_pair_oracle(case):
    """Checker C's sum side, decided per block on closure tables, yields
    the outcome of every pair that the per-pair `_closed_fast` sweep
    yields, witnesses included, in the same order, once each run of k
    pairs that hold is expanded into k Nones."""
    from functools import cache

    from oracles import closed_sum_of_closed_outcomes
    from extcheck import theorems

    base, variant, bound, failing = C_SUM_ORACLE_CASES[case]
    ctx = builtin(base) if variant is None else variant(builtin(base))
    pool = ctx.objects(bound)
    for fam in ctx.families:
        closed = theorems._continuous_morphisms(ctx, pool, fam)
        blocked = _expanded(
            theorems._closed_sum_of_closed_outcomes(ctx, closed, fam))
        per_pair = list(closed_sum_of_closed_outcomes(ctx, closed, cache(fam.component)))
        assert blocked == per_pair, fam.name
        assert len(blocked) == sum(len(block) for _, _, block in closed) ** 2
        assert sum(o is not None for o in blocked) == failing[fam.name]


# case -> (base context, variant, bound)
SPLIT_CASES = {
    "finset-b3": ("finset", None, 3),
    "finpre+closed-maps-b2": ("finpre", _with_bench_objects, 2),
    **{f"finpre+closed-maps!{mutant.__name__.split('_')[0]}-b2": (
        "finpre", lambda ctx, mutant=mutant: mutant(_with_bench_objects(ctx)), 2)
       for mutant in (crossed_coproduct_context, split_mono_context,
                      swapped_system_context)},
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_closure_split_is_componentwise_exactly_where_every_sum_closes_so(case):
    """The context's `ClosureSplit` of x + y holds the family's closures of
    x, y and the context's x + y, and says "block-diagonal, with halves
    equal to x's and y's own singleton tables, c(empty) rows included"
    exactly when the closure of a | b << |x| is fx(a) | fy(b) << |x| for
    every pair of masks, under every registered family and `LEAKY`; both
    answers occur.  `LEAKY`'s sums are all block-diagonal: what fails there
    is the own-tables half.  Equal halves, and only those, share a number
    in the context."""
    from itertools import product

    base, variant, bound = SPLIT_CASES[case]
    ctx = builtin(base) if variant is None else variant(builtin(base))
    pool = ctx.objects(bound)

    def table(fn, n):
        return (*(fn(1 << i) for i in range(n)), fn(0))

    answers, numbers = set(), {}
    for fam in (*ctx.families, LEAKY):
        for x, y in product(pool, repeat=2):
            split = ctx.closure_split(x, y, fam)
            nx, ny = x.size, y.size
            fx, fy = fam.component(x), fam.component(y)
            fsum = fam.component(ctx.coproduct(x, y).ob)
            assert all(split.fsum(m) == fsum(m) for m in range(1 << nx + ny))
            assert table(split.fx, nx) == table(fx, nx)
            assert table(split.fy, ny) == table(fy, ny)
            componentwise = (split.diagonal and split.lows == table(fx, nx)
                             and split.highs == table(fy, ny))
            literal = all(fsum(a | b << nx) == fx(a) | fy(b) << nx
                          for a in range(1 << nx) for b in range(1 << ny))
            assert componentwise == literal, (fam.name, x, y)
            assert split.diagonal or fam is not LEAKY
            answers.add(literal)
            for number, half in ((split.low, split.lows), (split.high, split.highs)):
                assert numbers.setdefault(number, half) == half
    assert answers == {True, False}
    assert len(set(numbers.values())) == len(numbers)


def _no_two_point_e(base):
    """The base context with E narrowed to maps whose source does not have
    two points, so that some E-mono between sums pulls back along an
    injection to a map outside E."""
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
    pytest.param(("biproduct", "B"), "_closed_sum_outcomes", 2, [1, 0],
                 id="biproduct-B-_closed_sum_outcomes-2"),
    pytest.param(("C", "G"), "_closed_sum_of_closed_outcomes", 1, [1, 0],
                 id="C-G-_closed_sum_of_closed_outcomes-1"),
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


# Not extensive on objects of 3+ points, which at bound 2 are sums only: the
# closure of such a sum drops its point 1.
LEAKY = ClosureFamily("leaky", False, lambda size, down: (
    (lambda m: m & ~2) if size >= 3 else (lambda m: m)))


@pytest.mark.parametrize("base, variant", [
    pytest.param("finset", None, id="finset-b2"),
    pytest.param("finpre", None, id="finpre-b2"),
    pytest.param("finpre", lambda ctx: _with_bench_objects(ctx, "sum-extensions"),
                 id="finpre+sum-extensions-b2")])
def test_adjunction_sides_match_per_triple_oracle(base, variant):
    """Both adjunction sides, decided a row at a time on bitsets, yield the
    outcome of every triple that the per-triple sweep yields, witnesses
    included, in the same order, once runs are expanded; so their (ok,
    witness, count) agree, under every registered family and under one
    whose closure of a sum drops a point, where the closed side fails."""
    from functools import cache
    from itertools import chain

    from oracles import admissible_adjunction_outcomes, closed_adjunction_outcomes
    from extcheck import theorems
    from extcheck.core import CheckResult
    from extcheck.subobjects import check_adjunction_admissible

    ctx = builtin(base) if variant is None else variant(builtin(base))
    pool = ctx.objects(2)
    lattices = [(ctx.sub_lattice(x), ctx.sub_lattice(y),
                 ctx.plain_sum_lattice(x, y))
                for x, y in theorems._object_pairs(pool)]
    for lats in lattices:
        assert check_adjunction_admissible(*lats).checks == (CheckResult.of(
            "extension_preimage_adjunction", admissible_adjunction_outcomes(*lats)),)
    assert theorems._admissible_adjunction_side(ctx, pool) == first_counterexample(
        chain.from_iterable(admissible_adjunction_outcomes(*lats) for lats in lattices))
    failing = 0
    for fam in (*ctx.families, LEAKY):
        rows = list(theorems._closed_adjunction_outcomes(ctx, pool, fam, False))
        triples = list(closed_adjunction_outcomes(ctx, pool, cache(fam.component)))
        assert _expanded(rows) == triples, fam.name
        assert first_counterexample(rows) == first_counterexample(triples)
        failing += any(triples)
    assert failing == 1


@pytest.mark.parametrize("name, counts, v_labels", [
    ("finpre", (("admissible_triples", 2809), ("closed_triples", 78)), ["p1"]),
    ("finset", (("admissible_triples", 441), ("closed_triples", 46)), ["x1"])],
    ids=["finpre", "finset"])
def test_closed_adjunction_side_fails_where_a_sum_closure_leaks(name, counts,
                                                                v_labels):
    """Under `LEAKY`, whose closure of a 3-point sum drops point 1, the
    closure of the extension of v, y's first point, is empty, so below the
    empty w, while v is not below w's preimage: the closed side fails
    there, with each side's value and count and the witness pinned.  A
    side that assumed its rows hold would report true."""
    ctx = builtin(name)
    pool = ctx.objects(2)
    v = run_checker("adjunctions", ctx, LEAKY, 2, {})
    assert v.status == "ok" and not v.passed
    assert v.sides == (("admissible_extension_adjunction", True),
                       ("closed_extension_adjunction", False))
    assert v.counts == counts
    assert v.witnesses == ({
        "x": serialize_object(pool[1]), "y": serialize_object(pool[2]),
        "u": [], "v": v_labels, "w": [], "lhs": True, "rhs": False,
        "side": "closed_extension_adjunction", "kind": "counterexample"},)


@pytest.mark.parametrize("base, mutant, bound", [
    pytest.param("finset", None, 2, id="finset-b2"),
    pytest.param("finpre", None, 2, id="finpre-b2"),
    pytest.param("finpre", crossed_coproduct_context, 1, id="finpre-crossed-b1"),
    *(pytest.param(base, mutant, 1, id=f"{base}-{mutant.__name__}-b1")
      for base in ("finset", "finpre")
      for mutant in (split_mono_context, swapped_system_context))])
def test_closed_adjunction_side_served_from_the_admissible_side(base, mutant, bound,
                                                               monkeypatch):
    """A pair whose closed side reads exactly what the admissible side read
    is served from that side's decision: the closed side's (ok, witness,
    count) is the same with that serving and with every pair decided on its
    rows, under every registered family and `LEAKY`.  The serving happens:
    under the identity closure it calls the row kernel for fewer pairs."""
    from extcheck import theorems

    ctx = builtin(base) if mutant is None else mutant(builtin(base))
    pool = ctx.objects(bound)
    admissible_ok = theorems._admissible_adjunction_side(ctx, pool)[0]
    assert admissible_ok
    calls = []
    kernel = theorems.adjunction_outcomes

    def counted(*args):
        calls.append(args[:3])
        return kernel(*args)

    monkeypatch.setattr(theorems, "adjunction_outcomes", counted)
    for fam in (*ctx.families, LEAKY):
        sides, rows = [], []
        for ok in (True, False):
            calls.clear()
            sides.append(first_counterexample(theorems._closed_adjunction_outcomes(
                ctx, pool, fam, ok)))
            rows.append(len(calls))
        assert sides[0] == sides[1], fam.name
        if fam.name == "identity":
            assert rows[0] < rows[1]


def test_closed_adjunction_side_under_identity_runs_no_row_of_its_own(monkeypatch):
    """At finpre bound 4, every pair of the closed side under the identity
    closure reads what the admissible side read, so the closed side calls
    the row kernel for none of them and counts the admissible side's
    82,391,929 triples."""
    from extcheck import theorems

    calls = []
    kernel = theorems.adjunction_outcomes

    def counted(*args):
        calls.append(args[:3])
        return kernel(*args)

    monkeypatch.setattr(theorems, "adjunction_outcomes", counted)
    ctx = builtin("finpre")
    v = run_checker("adjunctions", ctx, ctx.family("identity"), 4, {})
    assert v.passed and calls == []
    assert dict(v.counts) == {"admissible_triples": 82391929,
                              "closed_triples": 82391929}


def test_biproduct_subobject_side_is_swept_once_per_run(monkeypatch):
    """On finpre at bound 1, one run of every family decides the product
    certificate once per pair for each of the identity and alexandrov
    closures: the family-independent `subobject_lattice_biproduct` side,
    the closed side under identity, is swept once and served from the
    memo.  Every pair is certified, so the only literal `closed_biproduct`
    builds are the hom round trip's, one under identity per pair of
    objects of at most 2 points: at bound 1, every pair.  The verdicts
    equal unmemoized runs'.  On the crossed mutant at bound 2 under
    alexandrov, whose gate fails, the side swept past every failure
    decides each of the 25 pairs once and builds exactly the 16 that the
    certificate refuses, each failing."""
    from collections import Counter
    from itertools import product

    from extcheck import theorems

    decided, built = Counter(), Counter()
    real_certified, real_closed = theorems._product_certified, theorems.closed_biproduct

    def certified(ctx, family, x, y):
        decided[family.name, x, y] += 1
        return real_certified(ctx, family, x, y)

    def counted(ctx, family, x, y):
        built[family.name, x, y] += 1
        return real_closed(ctx, family, x, y)

    monkeypatch.setattr(theorems, "_product_certified", certified)
    monkeypatch.setattr(theorems, "closed_biproduct", counted)
    ctx = builtin("finpre")
    pairs = list(product(ctx.objects(1), repeat=2))
    memo = {}
    verdicts = [run_checker("biproduct", ctx, fam, 1, memo) for fam in ctx.families]
    assert [v.status for v in verdicts] == ["ok", "ok", "hypothesis-failed"]
    assert decided == {(fam, x, y): 1 for fam in ("alexandrov", "identity")
                       for x, y in pairs}
    assert built == {("identity", x, y): 1 for x, y in pairs}

    crossed = crossed_coproduct_context(builtin("finpre"))
    pairs = list(product(crossed.objects(2), repeat=2))
    decided.clear(), built.clear()
    outcomes = list(theorems._lattice_biproduct_outcomes(
        crossed, crossed.objects(2), crossed.family("alexandrov")))
    refused = [k for k, (x, y) in enumerate(pairs)
               if not real_certified(crossed, crossed.family("alexandrov"), x, y)]
    assert decided == {("alexandrov", x, y): 1 for x, y in pairs}
    assert built == {("alexandrov", *pairs[k]): 1 for k in refused}
    assert len(refused) == 16
    assert [k for k, o in enumerate(outcomes) if o is not None] == refused
    monkeypatch.undo()
    for fam, v in zip(ctx.families, verdicts):
        assert run_checker("biproduct", builtin("finpre"), fam, 1, None) == v


def test_c_sum_side_builds_each_sum_table_once(monkeypatch):
    """On finpre at bound 2, C's sum side builds one `ClosureSplit` per
    distinct (x, z) end pair it reads: the sources of every two blocks of
    closed maps, and their targets."""
    from extcheck import contexts, theorems
    from extcheck.contexts import ClosureSplit, Context

    ctx = builtin("finpre")
    pool = ctx.objects(2)
    built, keys = [], []
    real = Context.closure_split

    def split(*fields):
        built.append(fields)
        return ClosureSplit(*fields)

    def read(self, x, y, family):
        keys.append((x, y))
        return real(self, x, y, family)

    monkeypatch.setattr(contexts, "ClosureSplit", split)
    monkeypatch.setattr(Context, "closure_split", read)
    for fam in ctx.families:
        closed = theorems._continuous_morphisms(ctx, pool, fam)
        built.clear(), keys.clear()
        outcomes = list(theorems._closed_sum_of_closed_outcomes(ctx, closed, fam))
        sources = {x for x, _, _ in closed}
        targets = {y for _, y, _ in closed}
        read_pairs = {(a, c) for a in sources for c in sources} | {
            (b, d) for b in targets for d in targets}
        assert len(built) == len(read_pairs), fam.name
        assert len(built) < 2 * len(closed) ** 2
        assert set(keys) == read_pairs
        n_maps = sum(len(block) for _, _, block in closed)
        assert sum(o if o.__class__ is int else 1 for o in outcomes) == n_maps ** 2


@pytest.mark.parametrize("name", ["finset", "finpre"])
def test_run_builds_each_plain_sum_once_per_context(monkeypatch, name):
    """A `cli.run` of adjunctions, A, B, C and D at bound 2 builds one
    `ClosureSplit` per (x, y, family) that it reads, and `core.coproduct`
    once per (x, y), though the splits and the plain sums' lattices are
    read more often than that.  A witness's label-level sum
    (`subobjects.sum_subobjects`, named after its lattices' ambients) is
    built apart and not counted."""
    import dataclasses
    from collections import Counter

    from extcheck import cli, contexts, core
    from extcheck.contexts import ClosureSplit, Context
    from extcheck.core import coproduct

    built, reads, split_keys = Counter(), Counter(), set()

    def counted(x, y):
        built[x, y] += 1
        return coproduct(x, y)

    def split(*fields):
        built["split"] += 1
        return ClosureSplit(*fields)

    def reading(method):
        real = getattr(Context, method)

        def read(ctx, x, y, *family):
            reads[method] += 1
            if family:
                split_keys.add((id(ctx), x, y, family[0].name))
            return real(ctx, x, y, *family)
        return read

    for module in (core, contexts):
        monkeypatch.setattr(module, "coproduct", counted)
    monkeypatch.setattr(contexts, "ClosureSplit", split)
    for method in ("closure_split", "plain_sum_lattice"):
        monkeypatch.setattr(Context, method, reading(method))
    monkeypatch.setattr(cli, "builtin", lambda context: dataclasses.replace(
        builtin(context), coproduct_fn=counted))
    result = cli.run(cli.RunConfig(context=name, bound=2,
                                   theorems=("adjunctions", "A", "B", "C", "D")))
    assert all(v.passed for v in result.verdicts)
    n_splits = built.pop("split")
    assert built and set(built.values()) == {1}
    assert n_splits == len(split_keys) < reads["closure_split"]
    assert {key[3] for key in split_keys} == {f.name for f in builtin(name).families}
    assert reads["plain_sum_lattice"] > len(built)


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


def test_first_counterexample_counts_runs():
    assert first_counterexample(iter([3, None, 5])) == (True, None, 9)
    assert first_counterexample(iter([7])) == (True, None, 7)


def test_first_counterexample_counts_a_run_before_the_witness():
    outcomes = iter([4, None, 2, {"w": 1}, 6])
    assert first_counterexample(outcomes) == (False, {"w": 1}, 8)
    assert list(outcomes) == [6]


def test_first_counterexample_counts_a_zero_run_as_nothing():
    assert first_counterexample(iter([0, None, 0])) == (True, None, 1)
    assert first_counterexample(iter([0, {"w": 1}])) == (False, {"w": 1}, 1)


def test_first_counterexample_never_consumes_a_run_past_the_failure():
    def outcomes():
        yield 5
        yield {"w": 2}
        yield 10
        raise AssertionError("resumed past the first counterexample")

    assert first_counterexample(outcomes()) == (False, {"w": 2}, 6)


@pytest.mark.parametrize("witness", [True, False])
def test_first_counterexample_reads_a_bool_as_a_witness(witness):
    assert first_counterexample(iter([2, witness, 3])) == (False, witness, 3)


def test_count_instances_finishes_the_count_past_the_first_failure():
    outcomes = iter([None, 3, {"w": 1}, 4, None, {"w": 2}, 0, False])
    ok, witness, count = first_counterexample(outcomes)
    assert (ok, witness, count) == (False, {"w": 1}, 5)
    assert count + count_instances(outcomes) == 12
    assert count_instances(iter(())) == 0


@pytest.mark.parametrize("base", ["finset", "finpre"])
@pytest.mark.parametrize("variant, bound", [(None, 2), (None, 3),
                                            (split_mono_context, 2)])
def test_union_closure_matches_all_pairs_sweep(base, variant, bound):
    """The biproduct's lattice hypothesis, decided per object by the unions
    D(s) of the members inside each mask s, against the sweep over every
    pair of members: on every pool object and every sum of two (the split
    mutant's miss 0 but for the empty object's), and on two mask lists
    that break it, one without 0 and one not closed under unions."""
    from oracles import union_closed
    from extcheck.theorems import _object_pairs, _union_closed

    ctx = builtin(base) if variant is None else variant(builtin(base))
    pool = ctx.objects(bound)
    sums = [ctx.coproduct(x, y).ob for x, y in _object_pairs(pool)]
    seen = set()
    for ob in (*pool, *sums):
        masks = ctx.sub_lattice(ob).masks
        seen.add(union_closed(masks))
        assert _union_closed(masks, ob.size) == union_closed(masks), ob.label
    assert seen == ({True} if variant is None else {True, False})
    for masks in ((1, 2, 3), (0, 1, 2, 4, 7)):
        assert not union_closed(masks) and not _union_closed(masks, 3), masks


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


def _no_point_inclusions(base: Context) -> Context:
    """The base context with M narrowed to maps whose source is not one
    point.  Every lattice still contains 0 and is closed under unions, but
    the sum of two points has its full mask admissible, which is no sum of
    admissible masks of the points: the product certificate's first
    condition fails there, and the literal biproduct build raises."""
    sys = base.system
    narrowed = FactorizationSystem(
        f"{sys.name}|no-1", sys.e_table,
        lambda idx, *rest: sys.m_table(idx, *rest) and len(idx) != 1)
    return Context(f"{base.name}!no-1", base.ordered, narrowed, base.families,
                   base.enumerate_objects)


# case -> (context maker, bound, pairs the certificate refuses per family)
CERTIFICATE_CASES = {
    "finset-b3": (lambda: builtin("finset"), 3,
                  {"identity": 0, "indiscrete": 9, "leaky": 6}),
    "finpre-b3": (lambda: builtin("finpre"), 3,
                  {"alexandrov": 0, "identity": 0, "indiscrete": 169, "leaky": 132}),
    **{f"finpre!{mutant.__name__.split('_')[0]}-b2": (
        lambda mutant=mutant: mutant(builtin("finpre")), 2, refused)
       for mutant, refused in (
           (crossed_coproduct_context,
            {"alexandrov": 16, "identity": 0, "indiscrete": 16, "leaky": 15}),
           (split_mono_context,
            {"alexandrov": 16, "identity": 16, "indiscrete": 16, "leaky": 16}),
           (swapped_system_context,
            {"alexandrov": 0, "identity": 0, "indiscrete": 0, "leaky": 15}))},
    "finpre!no-1-b2": (lambda: _no_point_inclusions(builtin("finpre")), 2,
                       {"alexandrov": 16, "identity": 16, "indiscrete": 16,
                        "leaky": 16}),
}


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_product_certificate_implies_the_literal_biproduct(case):
    """Under every registered family and `LEAKY`, wherever the product
    certificate of a pair holds, the literal `closed_biproduct` passes, or
    raises as building x's or y's own closed lattice raises, which the
    certified path does too (the split and swapped mutants, whose lattices
    miss the empty subobject).  Each family refuses the pinned number of
    pairs.  On the crossed mutant under alexandrov each of its 16 refusals
    fails literally.  With no one-point inclusion in M, under identity,
    each of the 16 refusals has lattices of x and y that build and a
    literal build that raises: the sum has admissible masks whose halves
    are not admissible."""
    from itertools import product

    from extcheck import theorems
    from extcheck.semilattice import closed_biproduct, closed_semilattice

    make, bound, refused = CERTIFICATE_CASES[case]
    ctx = make()

    def outcome(build):
        try:
            return build()
        except KeyError as err:
            return type(err)

    counted = {}
    for fam in (*ctx.families, LEAKY):
        literal = {}
        for x, y in product(ctx.objects(bound), repeat=2):
            own = outcome(lambda: [closed_semilattice(ctx.closure(fam, ob),
                                                      ctx.sub_lattice(ob))
                                   for ob in (x, y)] and True)
            passed = outcome(lambda: closed_biproduct(ctx, fam, x, y).passed)
            if not theorems._product_certified(ctx, fam, x, y):
                literal[x, y] = own, passed
            else:
                assert passed is True or passed is own is KeyError, (fam.name, x, y)
        counted[fam.name] = len(literal)
        if (case, fam.name) == ("finpre!crossed-b2", "alexandrov"):
            assert set(literal.values()) == {(True, False)}
        if (case, fam.name) == ("finpre!no-1-b2", "identity"):
            assert set(literal.values()) == {(True, KeyError)}
    assert counted == refused


# Under identity the two sides are one memo entry, so only another family
# can fail one and not the other.
@pytest.mark.parametrize("name, fam_name", [("finpre", "alexandrov")])
def test_closed_biproduct_side_runs_past_a_subobject_failure(name, fam_name,
                                                             monkeypatch):
    """With the product certificate refused on every pair, so that each
    pair is decided on its literal `closed_biproduct`, a forced
    `subobject_lattice_biproduct` failure on the first pair ends that side
    only: the closed lattices of every pair are still built, and the closed
    side keeps the value it has without the failure."""
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

    def failing_on_first_pair(ctx, family, x, y):
        bp = real_closed(ctx, family, x, y)
        if family is IDENTITY and (x, y) == pairs[0]:
            bp.report = Report("biproduct", (CheckResult("forced", False, 1),))
        elif family is fam:
            closed_pairs.append((x, y))
        return bp

    monkeypatch.setattr(theorems, "closed_biproduct", failing_on_first_pair)
    monkeypatch.setattr(theorems, "_product_certified", lambda *args: False)
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
    from extcheck.closure import IDENTITY
    from extcheck.semilattice import enumerate_homs, hom_matrix, matrix_to_hom

    real = theorems.closed_biproduct

    def broken(ctx, family, x, y):
        bp = real(ctx, family, x, y)
        bp.proj_r = (bp.right.zero,) * bp.total.n
        return bp

    monkeypatch.setattr(theorems, "closed_biproduct", broken)
    ctx = builtin("finset")
    pool = ctx.objects(1)
    ok, witness, count = first_counterexample(
        theorems._roundtrip_outcomes(ctx, pool))
    assert not ok

    bps = [(key, broken(ctx, IDENTITY, *key)) for key in theorems._object_pairs(pool)]

    def literal():
        for s_key, s in bps:
            for t_key, t in bps:
                for h in enumerate_homs(s.total, t.total):
                    yield (None if matrix_to_hom(s, t, hom_matrix(s, t, h)) == h
                           else {"source_pair": [o.label for o in s_key],
                                 "target_pair": [o.label for o in t_key],
                                 "hom_table": list(h)})

    assert (witness, count) == first_counterexample(literal())[1:]


def _right_projection_broken_at(key):
    """A `closed_biproduct` that breaks to zero the right projection of the
    sum of the pair `key` of objects."""
    from extcheck.semilattice import closed_biproduct

    def broken(ctx, family, x, y):
        bp = closed_biproduct(ctx, family, x, y)
        if (x, y) == key:
            bp.proj_r = (bp.right.zero,) * bp.total.n
        return bp
    return broken


def test_roundtrip_side_decides_each_key_once(monkeypatch):
    """The round-trip side calls `count_homs` once per distinct (source,
    target) pair of total lattice tables among the uncapped blocks whose
    guards hold, `enumerate_homs` once per such pair among the uncapped
    blocks whose guards fail, and `matrix_roundtrip` once per distinct
    (tables, source pairs, target joint) key among those plus once per
    capped block, with the guards and every key set built here from the
    structure maps.  On finpre at bound 2 every guard holds: nothing is
    enumerated, and the side counts all 500,243 homs.  With one finset sum
    broken (its right projection to zero), the blocks that read it are
    enumerated, swept here to the end."""
    from functools import reduce
    from itertools import product

    from extcheck import theorems
    from extcheck.closure import IDENTITY

    def tables(bp):
        return bp.total.join, bp.total.zero

    def pairs(bp):
        return tuple((bp.inj_l[a], bp.inj_r[b])
                     for a, b in zip(bp.proj_l, bp.proj_r))

    def joint(bp):
        join, rng = bp.total.join, range(bp.total.n)
        left = [bp.inj_l[m] for m in bp.proj_l]
        right = [bp.inj_r[m] for m in bp.proj_r]
        return tuple(tuple(reduce(lambda a, b: join[a][b],
                                  (left[u], left[w], right[u], right[w]))
                           for w in rng) for u in rng)

    def guarded(s, t):
        return (all(s.total.join[a][b] == k for k, (a, b) in enumerate(pairs(s)))
                and joint(t) == t.total.join)

    calls = dict.fromkeys(("count_homs", "enumerate_homs", "matrix_roundtrip"), 0)
    for called in calls:
        def counted(*args, real=getattr(theorems, called), called=called):
            calls[called] += 1
            return real(*args)
        monkeypatch.setattr(theorems, called, counted)
    # context, bound, index of the broken sum's pair or None, the calls of
    # count_homs, enumerate_homs and matrix_roundtrip, sums and capped blocks
    for name, bound, broken_at, counts, blocks in (
            ("finpre", 2, None, (24, 0, 81), (25, 81)),
            ("finset", 2, 7, (24, 9, 15), (9, 1))):
        ctx = builtin(name)
        pool = ctx.objects(bound)
        keys = list(product([x for x in pool if x.size <= 2], repeat=2))
        build = (theorems.closed_biproduct if broken_at is None
                 else _right_projection_broken_at(keys[broken_at]))
        monkeypatch.setattr(theorems, "closed_biproduct", build)
        calls.update(dict.fromkeys(calls, 0))
        outcomes = list(theorems._roundtrip_outcomes(ctx, pool))
        assert first_counterexample(iter(outcomes))[0] == (broken_at is None)
        if broken_at is None:
            assert count_instances(iter(outcomes)) == 500243

        bps = [build(ctx, IDENTITY, x, y) for x, y in keys]
        counted_keys, hom_keys, roundtrip_keys, capped = set(), set(), set(), 0
        for s, t in product(bps, repeat=2):
            if t.total.n ** len(s.total.irreducibles) > theorems.HOM_ENUMERATION_CAP:
                capped += 1
            elif guarded(s, t):
                counted_keys.add((tables(s), tables(t)))
            else:
                hom_keys.add((tables(s), tables(t)))
                roundtrip_keys.add((tables(s), tables(t), pairs(s), joint(t)))
        assert (len(bps), capped) == blocks
        assert calls == {"count_homs": len(counted_keys),
                         "enumerate_homs": len(hom_keys),
                         "matrix_roundtrip": len(roundtrip_keys) + capped}
        assert tuple(calls.values()) == counts, name


def test_roundtrip_side_keys_round_trips_on_structure_maps(monkeypatch):
    """With the right projection of one sum lattice broken to zero, the
    round-trip side's witness and count are those of the literal per-block
    sweep, although an earlier pair has the same lattice tables: which homs
    round-trip is not decided by the tables alone."""
    from extcheck import theorems
    from extcheck.closure import IDENTITY
    from extcheck.semilattice import enumerate_homs, hom_matrix, matrix_to_hom

    ctx = builtin("finset")
    pool = ctx.objects(2)
    keys = list(theorems._object_pairs(pool))
    two, one = pool[2], pool[1]
    broken = _right_projection_broken_at((two, one))
    bps = [(key, broken(ctx, IDENTITY, *key)) for key in keys]
    tables = [(bp.total.join, bp.total.zero) for _, bp in bps]
    assert (two.size, one.size) == (2, 1)
    assert keys.index((one, two)) < keys.index((two, one))
    assert tables[keys.index((one, two))] == tables[keys.index((two, one))]

    monkeypatch.setattr(theorems, "closed_biproduct", broken)
    outcomes = list(theorems._roundtrip_outcomes(ctx, pool))
    ok, witness, count = first_counterexample(iter(outcomes))
    assert not ok and witness["target_pair"] == [two.label, one.label]

    def literal():
        for s_key, s in bps:
            for t_key, t in bps:
                for h in enumerate_homs(s.total, t.total):
                    yield (None if matrix_to_hom(s, t, hom_matrix(s, t, h)) == h
                           else {"source_pair": [o.label for o in s_key],
                                 "target_pair": [o.label for o in t_key],
                                 "hom_table": list(h)})

    assert (witness, count) == first_counterexample(literal())[1:]
    # Past the first failure too, where the blocks from and into either sum
    # share their lattice tables; the capped block, of the two-point sets'
    # sums, reads neither.
    witnesses = [o for o in outcomes if o.__class__ is dict]
    assert witnesses == [o for o in literal() if o is not None]


# G and H: every side fails where the class's test fails on the maps that
# side alone hands it.

def _summands(ob) -> set:
    return {e[:2] for e in ob.elements} & {LEFT_TAG, RIGHT_TAG}


# For each side of G/H, the ends (source, target) of the test maps that it,
# and no other side, hands the class's test at finpre bound 2.
_G_H_BREAKS = {
    # f + g with both summands non-empty, into a 3-point sum
    "morphism_sums": lambda src, tgt: len(_summands(src)) == 2 and tgt.size == 3,
    # a 3-point sum of spaces, to the point
    "space_sums": lambda src, tgt: (bool(_summands(src)) and src.size == 3
                                    and tgt.elements == ("*",)),
    # the codiagonal of a 2-point space
    "codiagonal": lambda src, tgt: (src.size == 4 and not _summands(tgt)
                                    and tgt.elements != ("*",)),
    # the sum of two terminals, to the point
    "two_point_sum": lambda src, tgt: src.elements == (LEFT_TAG + "*", RIGHT_TAG + "*"),
}

_P1 = {"name": "pre1_0", "elements": ["p1"], "order": [["p1", "p1"]]}
_D2 = {"name": "pre2_0", "elements": ["p1", "p2"], "order": [["p1", "p1"], ["p2", "p2"]]}
_INJECTED = {"injected": True}


def _maps_failure(side):
    return {"f": {"source": _P1, "target": _P1, "map": {"p1": "p1"}},
            "g": {"source": _P1, "target": _D2, "map": {"p1": "p1"}},
            "failure": _INJECTED, "side": side, "kind": "counterexample"}


@pytest.mark.parametrize("thm, breaks, sides, counts, witness", [
    pytest.param(
        "G", "morphism_sums",
        (("sums_of_proper_proper", False), ("sums_of_compact_compact", True),
         ("empty_inclusion_and_codiagonal_proper", True)),
        (("proper_pairs", 137), ("compact_pairs", 25), ("spaces", 5)),
        _maps_failure("sums_of_proper_proper"), id="G-morphism-sums"),
    pytest.param(
        "H", "morphism_sums",
        (("sums_of_separated_separated", False), ("sums_of_hausdorff_hausdorff", True),
         ("two_point_sum_hausdorff", True)),
        (("separated_pairs", 157), ("hausdorff_pairs", 9), ("hausdorff_spaces", 3)),
        _maps_failure("sums_of_separated_separated"), id="H-morphism-sums"),
    pytest.param(
        "G", "space_sums",
        (("sums_of_proper_proper", True), ("sums_of_compact_compact", False),
         ("empty_inclusion_and_codiagonal_proper", True)),
        (("proper_pairs", 676), ("compact_pairs", 8), ("spaces", 5)),
        {"x": _P1, "y": _D2, "failure": _INJECTED,
         "side": "sums_of_compact_compact", "kind": "counterexample"},
        id="G-space-sums"),
    pytest.param(
        "H", "space_sums",
        (("sums_of_separated_separated", True), ("sums_of_hausdorff_hausdorff", False),
         ("two_point_sum_hausdorff", True)),
        (("separated_pairs", 900), ("hausdorff_pairs", 6), ("hausdorff_spaces", 3)),
        {"x": _P1, "y": _D2, "failure": _INJECTED,
         "side": "sums_of_hausdorff_hausdorff", "kind": "counterexample"},
        id="H-space-sums"),
    pytest.param(
        "G", "codiagonal",
        (("sums_of_proper_proper", True), ("sums_of_compact_compact", True),
         ("empty_inclusion_and_codiagonal_proper", False)),
        (("proper_pairs", 676), ("compact_pairs", 25), ("spaces", 3)),
        {"x": _D2, "failure": _INJECTED,
         "side": "empty_inclusion_and_codiagonal_proper", "kind": "counterexample"},
        id="G-criterion"),
    pytest.param(
        "H", "two_point_sum",
        (("sums_of_separated_separated", True), ("sums_of_hausdorff_hausdorff", True),
         ("two_point_sum_hausdorff", False)),
        (("separated_pairs", 900), ("hausdorff_pairs", 9), ("hausdorff_spaces", 3)),
        {"injected": True, "side": "two_point_sum_hausdorff", "kind": "counterexample"},
        id="H-criterion"),
])
def test_g_h_side_fails_where_its_test_fails(monkeypatch, thm, breaks, sides,
                                             counts, witness):
    """The class's test, forced to fail on the maps one side of G or H
    alone tests, fails that side: every side's value and count and the
    first witness are pinned.  A side that assumed its instances hold
    would report true."""
    from extcheck import theorems

    name = {"G": "proper_witness", "H": "separated_witness"}[thm]
    real = getattr(theorems, name)
    injected = _G_H_BREAKS[breaks]

    def test(closure, family, idx, src, tgt):
        if injected(src, tgt):
            return False, _INJECTED
        return real(closure, family, idx, src, tgt)

    monkeypatch.setattr(theorems, name, test)
    ctx = builtin("finpre")
    v = run_checker(thm, ctx, ctx.family("alexandrov"), 2, {})
    assert v.status == "ok" and not v.passed
    assert v.sides == sides
    assert v.counts == counts
    assert v.witnesses[0] == witness


@pytest.mark.parametrize("thm, closures", [("G", 74), ("H", 76)])
def test_g_h_build_each_closure_once(monkeypatch, thm, closures):
    """Run under the three families at finpre bound 2 with one memo, G or H,
    their gates included, calls `ClosureFamily.component` once per
    (family, object) closure that the context keeps: the class's test
    reads the spaces' closures from `Context.closure`, not from the
    family on every map."""
    from collections import Counter

    calls = Counter()
    component = ClosureFamily.component

    def counted(family, ob):
        calls[family.name, ob] += 1
        return component(family, ob)

    monkeypatch.setattr(ClosureFamily, "component", counted)
    ctx = builtin("finpre")
    memo = {}
    verdicts = [run_checker(thm, ctx, fam, 2, memo) for fam in ctx.families]
    assert [v.status for v in verdicts] == ["ok", "ok", "hypothesis-failed"]
    assert set(calls.values()) == {1}
    assert len(calls) == len(ctx._closures) == closures


@pytest.mark.parametrize("thm, count", [("G", "proper_pairs"), ("H", "separated_pairs")])
def test_g_h_report_a_sum_that_is_not_monotone(thm, count):
    """On the crossed mutant, whose sum orders L:p1 below R:p1, the sum of
    the identity of the point and the map onto p2 of the discrete pair is
    not monotone into the context's sums: G and H report it as the first
    counterexample of their morphism side, with failure {"monotone":
    false}, where building it as a map raised."""
    ctx = crossed_coproduct_context(builtin("finpre"))
    v = run_checker(thm, ctx, ctx.family("identity"), 2, {})
    assert v.status == "ok" and not v.passed
    assert [value for _, value in v.sides] == [False, True, True]
    assert dict(v.counts)[count] == 228
    witness = _maps_failure(v.sides[0][0])
    witness["g"]["map"] = {"p1": "p2"}
    assert v.witnesses[0] == dict(witness, failure={"monotone": False})


@pytest.mark.parametrize("thm, count, alexandrov", [
    ("G", "proper_pairs", 676), ("H", "hausdorff_spaces", 3)])
def test_g_h_depend_on_the_pool_not_the_bound(thm, count, alexandrov):
    """With the pool fixed, G and H do not depend on the bound: finpre at
    bound 1 with the 2-point preorders added is the bound-2 pool, and its
    verdicts equal those at bound 2, sides and counts, under every family."""
    extended = builtin("finpre").with_extra_objects(preorders_of_size(2))
    plain = builtin("finpre")
    assert extended.objects(1) == plain.objects(2)
    for fam in plain.families:
        got = run_checker(thm, extended, extended.family(fam.name), 1, {})
        want = run_checker(thm, plain, fam, 2, {})
        assert (got.status, got.passed, got.sides, got.counts) == (
            want.status, want.passed, want.sides, want.counts), fam.name
        if fam.name == "alexandrov":
            assert dict(got.counts)[count] == alexandrov
