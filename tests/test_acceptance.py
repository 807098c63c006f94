"""Top-level acceptance suite.

Each test covers one acceptance requirement end to end and prints a single
summary line (visible with pytest -s).  Budgeted runtimes are asserted, not
just hoped for.
"""

import json
import time

from extcheck.closure import ALEXANDROV, IDENTITY
from extcheck.cli import main
from extcheck.contexts import (
    builtin,
    swapped_system_context,
    validate_extensive,
)
from extcheck.core import terminal
from extcheck.factorization import validate_system
from extcheck.semilattice import (
    closed_biproduct,
    enumerate_homs,
    hom_matrix,
    matrix_to_hom,
)
from extcheck.theorems import run_checker
from oracles import (
    hom,
    is_closed_morphism,
    is_proper_witness,
    is_separated_witness,
    to_point,
)


def _line(tag: str, text: str):
    print(f"\nACCEPTANCE {tag}: pass - {text}")


def test_01_builtin_contexts_are_extensive_at_depth_3():
    for name in ("finset", "finpre"):
        ctx = builtin(name)
        t0 = time.perf_counter()
        report = validate_extensive(ctx, 3)
        elapsed = time.perf_counter() - t0
        assert report.passed, (name, [c.id for c in report.failed()])
        assert elapsed < 60, (name, elapsed)
    _line("01", "extensivity checks pass at size bound 3 in under 60s per "
          "context")


def test_02_factorization_systems_validate_and_swapped_self_test_fails():
    for name in ("finset", "finpre"):
        ctx = builtin(name)
        t0 = time.perf_counter()
        report = validate_system(ctx.system, ctx.objects(3), ctx)
        elapsed = time.perf_counter() - t0
        assert report.passed, (name, [c.id for c in report.failed()])
        assert elapsed < 60, (name, elapsed)
    mut = swapped_system_context(builtin("finset"))
    bad = validate_system(mut.system, mut.objects(2), mut)
    assert not bad.passed
    squares = [c.witness for c in bad.failed()
               if c.witness and "diagonals" in c.witness]
    assert squares, "expected an orthogonality square witness"
    _line("02", "factorization systems validate at bound 3; swapped-class "
          "self-test fails with a square witness")


def test_03_sum_admissibility_equivalence_true_at_depth_3():
    for name in ("finset", "finpre"):
        v = run_checker("A", builtin(name), None, 3, {})
        assert v.status == "ok"
        assert v.equivalence_ok is True, (name, v.sides)
        assert all(val for _, val in v.sides), (name, v.sides)
    _line("03", "sum-of-admissibles equivalence holds in both contexts at "
          "bound 3")


def test_04_closed_embedding_equivalence_and_indiscrete_witness():
    ctx = builtin("finpre")
    good = run_checker("B", ctx, ctx.family("alexandrov"), 3, {})
    assert good.equivalence_ok and all(val for _, val in good.sides)
    bad = run_checker("B", ctx, ctx.family("indiscrete"), 3, {})
    assert bad.equivalence_ok and all(val is False for _, val in bad.sides)
    wit = next(w for w in bad.witnesses
               if w["side"] == "sums_of_closed_embeddings_closed")
    assert wit["a"]["elements"] == [], wit
    assert wit["b"]["elements"] == wit["y"]["elements"] != [], wit
    assert wit["sum_admissible"] is True
    # replay the witness: the closure of the recorded sum is strictly larger
    assert set(wit["closure_of_sum"]) > {"R:" + e for e in wit["b"]["elements"]}
    _line("04", "closed-embedding equivalence: all-true on alexandrov, "
          "all-false on indiscrete with the empty-against-top witness")


def test_05_componentwise_closure_zero_violations_at_depth_3():
    ctx = builtin("finpre")
    v = run_checker("D", ctx, ctx.family("alexandrov"), 3, {})
    assert v.status == "ok"
    assert v.sides == (("closure_of_sum_is_sum_of_closures", True),)
    assert not any(w.get("kind") == "counterexample" for w in v.witnesses)
    counts = dict(v.counts)
    assert counts["subobject_pairs"] > 0
    _line("05", f"closure of sums is componentwise for all "
          f"{counts['subobject_pairs']} admissible pairs at bound 3")


def test_06_factorization_of_sums_for_all_pairs_at_depth_2():
    t0 = time.perf_counter()
    for name in ("finset", "finpre"):
        v = run_checker("E", builtin(name), None, 2, {})
        assert v.passed, (name, v.sides, v.witnesses)
        assert all(val for _, val in v.sides)
        counts = dict(v.counts)
        assert counts["morphism_pairs"] >= 121
        assert counts["direct_quadruples"] > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, elapsed
    _line("06", "factorizations of sums match summandwise for every "
          f"morphism pair at bound 2 in {elapsed:.1f}s")


def test_07_biproducts_at_depth_3_and_matrix_round_trips():
    for name, fam_name in (("finset", "identity"), ("finpre", "alexandrov")):
        ctx = builtin(name)
        v = run_checker("biproduct", ctx, ctx.family(fam_name), 3, {})
        assert v.status == "ok" and v.passed, (name, v.sides, v.witnesses)
        assert dict(v.sides)["subobject_lattice_biproduct"] is True
        assert dict(v.sides)["hom_matrix_roundtrip"] is True
    # exhaustive round-trip on the largest two-by-two case: every hom
    # between the 16-element sum lattices
    ctx = builtin("finset")
    two = ctx.objects(2)[2]
    bp = closed_biproduct(ctx, IDENTITY, two, two)
    homs = enumerate_homs(bp.total, bp.total)
    assert len(homs) == len(set(homs)) == 65536
    for h in homs:
        assert matrix_to_hom(bp, bp, hom_matrix(bp, bp, h)) == h
    _line("07", "subobject lattices of sums are biproducts at bound 3; all "
          f"{len(homs)} endo-homs of the two-by-two lattice round-trip")


def test_08_proper_and_separated_sums_with_compactness_facts():
    ctx = builtin("finpre")
    fam = ctx.family("alexandrov")
    t0 = time.perf_counter()
    memo = {}
    g = run_checker("G", ctx, fam, 2, memo)
    h = run_checker("H", ctx, fam, 2, memo)
    elapsed = time.perf_counter() - t0
    assert g.passed and all(val for _, val in g.sides), g.sides
    assert h.passed and all(val for _, val in h.sides), h.sides
    assert elapsed < 600, elapsed
    # every finite space is compact here, and the two-point discrete sum
    # of terminals is Hausdorff while the Sierpinski space is not
    pool = ctx.objects(2)
    for x in pool:
        assert is_proper_witness(fam, to_point(x))[0], x.label
    one = terminal(True)
    two_points = ctx.coproduct(one, one).ob
    assert is_separated_witness(fam, to_point(two_points))[0]
    sierpinski = next(x for x in pool
                      if x.size == 2 and sum(1 for _ in x.order) == 3)
    assert not is_separated_witness(fam, to_point(sierpinski))[0]
    _line("08", f"sums preserve proper and separated at bound 2 "
          f"({elapsed:.1f}s); compactness and Hausdorff calls come out right")


def test_09_closed_morphisms_match_down_set_oracle_at_depth_3():
    ctx = builtin("finpre")
    pool = ctx.objects(3)
    checked = 0
    for x in pool:
        fx = ALEXANDROV.component(x)
        for y in pool:
            fy = ALEXANDROV.component(y)
            for f in hom(ctx, x, y):
                module_says = is_closed_morphism(f, fx, fy)
                oracle = True
                for mask in range(1 << x.size):
                    if fx(mask) != mask:
                        continue  # not a down-set
                    img = f.image_mask(mask)
                    if fy(img) != img:
                        oracle = False
                        break
                assert module_says == oracle, f.mapping
                checked += 1
    assert checked == sum(
        len(hom(ctx, x, y)) for x in pool for y in pool)
    _line("09", f"closed-morphism test agrees with the down-set image "
          f"oracle on all {checked} monotone maps at bound 3")


def test_10_structured_reports_are_byte_identical(tmp_path, capsys):
    args = ["--context", "finset", "--format", "structured"]
    p1, p2 = tmp_path / "first.json", tmp_path / "second.json"
    assert main(args + ["--report", str(p1)]) == 0
    assert main(args + ["--report", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    doc = json.loads(b1)
    assert doc["passed"] is True and doc["bound"] is None
    _line("10", "two full-suite runs with the default configuration "
          "produce byte-identical structured reports")
