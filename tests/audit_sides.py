"""Side-mutation audit: every audited side can fail in some test.

A golden report cannot tell a side that decided every instance from one
that assumed them: both report the same counts.  So each mutation below
replaces one side's decision by "holds" (or, for a side that counts runs
of instances, miscounts them), in a temporary copy of `src/`,
`tests/` and `perfbench/inputs/`, and runs there the tests that must catch
it.  The mutation is caught when those tests fail, and survives when they
pass.

Usage, from the repository root:

    python3 tests/audit_sides.py

It prints the table of mutations, then each one's outcome.  Pytest's
output is shown whenever its exit status is not the expected one.

Exit status: 0 when every mutation is caught, 1 when one survives, 2 when
the unmutated tests fail, a decision no longer appears exactly once in its
file, or a mutated copy fails before any test decides (the table needs
updating).  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
THEOREMS = "src/extcheck/theorems.py"
CLOSURE = "src/extcheck/closure.py"
CONTEXTS = "src/extcheck/contexts.py"
FACTORIZATION = "src/extcheck/factorization.py"
SUBOBJECTS = "src/extcheck/subobjects.py"
SEMILATTICE = "src/extcheck/semilattice.py"
G_H = "tests/test_theorems.py::test_g_h_side_fails_where_its_test_fails"
PROPER = "tests/test_closure.py::test_proper_test_matches_label_level_pullbacks"
C_ORACLE = "tests/test_theorems.py::test_checker_c_sum_side_matches_per_pair_oracle"
VALIDATE = "tests/test_factorization.py::test_validate_system_matches_label_level_oracle"
PULLBACK_KEY = "tests/test_factorization.py::test_m_stability_decides_each_pullback_key_once"
SWEEP = "tests/test_factorization.py::test_indexed_sweep_matches_literal_sweep"
E_GROUPS = "tests/test_factorization.py::test_e_complete_groups_each_key_once"
CROSSED = "tests/test_contexts.py::test_crossed_instances_on_tables_match_literal_instances"
GOLDEN_B = tuple(f"tests/test_golden_reports.py::test_structured_report_matches_golden[{stem}]"
                 for stem in ("finset-b2", "finpre-b1"))
LEAKY_ADJ = "tests/test_theorems.py::test_closed_adjunction_side_fails_where_a_sum_closure_leaks"
SERVED_ADJ = "tests/test_theorems.py::test_closed_adjunction_side_served_from_the_admissible_side"
CERTIFICATE = "tests/test_theorems.py::test_product_certificate_implies_the_literal_biproduct"


class Mutation(NamedTuple):
    side: str
    file: str
    decision: str
    holds: str
    tests: tuple[str, ...]


MUTATIONS = (
    Mutation("G/H: sums of members are members", THEOREMS,
             "yield None if good else _maps_witness(",
             "yield None if True else _maps_witness(",
             (f"{G_H}[G-morphism-sums]", f"{G_H}[H-morphism-sums]")),
    Mutation("G/H: sums of spaces are spaces", THEOREMS,
             "yield None if good else _witness(x, y, failure=bad)",
             "yield None",
             (f"{G_H}[G-space-sums]", f"{G_H}[H-space-sums]")),
    Mutation("G: empty inclusion and codiagonal proper", THEOREMS,
             'yield None if good else {"x": serialize_object(x), "failure": bad}',
             "yield None",
             (f"{G_H}[G-criterion]",)),
    Mutation("H: two-point sum Hausdorff", THEOREMS,
             "return ok, wit, len(hausdorff)",
             "return True, wit, len(hausdorff)",
             (f"{G_H}[H-criterion]",)),
    Mutation("proper: the map is continuous", CLOSURE,
             "if not _continuous_fast(f_idx, src_fn, tgt_fn, n_src):",
             "if False:",
             ("tests/test_closure.py::test_map_that_is_not_continuous_is_reported",)),
    Mutation("separated: the map is continuous", CLOSURE,
             "if not _continuous_fast(idx, src_fn, closure(family, tgt), src.size):",
             "if False:",
             ("tests/test_closure.py::test_map_that_is_not_continuous_is_reported",)),
    Mutation("proper: the map is closed", CLOSURE,
             "if not _closed_fast(f_idx, src_fn, tgt_fn, n_src):",
             "if False:",
             (f"{PROPER}[alexandrov]", f"{PROPER}[indiscrete]")),
    Mutation("separated: the diagonal is each a's position of (a,a) in the kernel pair",
             CLOSURE,
             "tuple(at[a, a] for a in range(src.size))",
             "tuple(min(k for k, (x, _) in enumerate(pairs) if x == a)"
             " for a in range(src.size))",
             ("tests/test_closure.py::test_diagonal_is_the_kernel_pair_equalizer",
              "tests/test_closure.py::"
              "test_separated_test_is_the_proper_test_of_the_literal_diagonal[alexandrov]")),
    # B/indiscrete reports all three conditions false in both goldens.
    Mutation("B (a): sums of closed embeddings closed", THEOREMS,
             "yield adm and closure == mask, x, y, a, b, adm, closure",
             "yield True, x, y, a, b, adm, closure",
             GOLDEN_B),
    Mutation("B (b): sums admissible and injections closed embeddings", THEOREMS,
             "yield None if adm and inj_ok else (x, y, a, b, adm, inj_ok)",
             "yield None",
             GOLDEN_B),
    Mutation("B (c): dense sums split densely", THEOREMS,
             "yield (None if fsum(s) != full_sum",
             "yield (None if True or fsum(s) != full_sum",
             GOLDEN_B),
    Mutation("C: sums of closed morphisms closed", THEOREMS,
             "yield None if ok >> j & 1 else _maps_witness(",
             "yield None if True else _maps_witness(",
             ("tests/test_theorems.py::test_checker_c_indiscrete_sides_agree_false",)),
    # A certified f-block's whole row is one run; each condition of the
    # certificate, assumed, lets a failing pair into that run.
    Mutation("C: (a) a certified f-block's splits are all diagonal", THEOREMS,
             "if diag_x and diag_y and all(",
             "if True and all(",
             (C_ORACLE,)),
    Mutation("C: (b) a certified f-block carries every pair of its low halves",
             THEOREMS,
             "_memoized(l_memo, (a, b), lambda: _block_bits(f_block, s_lows, t_lows))\n"
             "                == f_full",
             "True",
             (C_ORACLE,)),
    Mutation("C: (c) every g-block carries the high halves of a certified signature pair",
             THEOREMS,
             "_high_bits(r_memo, n, g_block, s, t) == full",
             "True",
             (C_ORACLE,)),
    Mutation("C: injections closed", THEOREMS,
             "yield (None if _closed_fast(inl_idx,",
             "yield (None if True or _closed_fast(inl_idx,",
             ("tests/test_theorems.py::test_checker_c_indiscrete_sides_agree_false",)),
    Mutation("extensivity: maps into a block sum counted by clopen splits", CONTEXTS,
             "return sum(map(mul, _split_counts(z.up_masks, x.up_masks),",
             "return 1 + sum(map(mul, _split_counts(z.up_masks, x.up_masks),",
             ("tests/test_contexts.py::test_split_count_matches_enumeration[finpre-b3]",
              "tests/test_contexts.py::"
              "test_extensivity_laws_match_literal_pullbacks[finpre-b2]")),
    Mutation("extensivity: a sum that is not a block sum decided on tables", CONTEXTS,
             "holds = (mid.elements == tags_l + tags_r",
             "holds = True or (mid.elements == tags_l + tags_r",
             (f"{CROSSED}[1]", f"{CROSSED}[2]",
              "tests/test_contexts.py::"
              "test_extensivity_laws_match_literal_pullbacks[finpre-extra-crossed-b2]")),
    Mutation("factorization: a map outside E fails against a member of M",
             FACTORIZATION,
             "yield None if any(pool.bad_square(f, m, reflects, per_e)",
             "yield None if True or any(pool.bad_square(f, m, reflects, per_e)",
             (f"{VALIDATE}[finset-split-b1]", f"{VALIDATE}[finpre-split-b1]",
              f"{VALIDATE}[finpre-no-point-ids-b2]")),
    Mutation("factorization: a map outside M fails against a member of E",
             FACTORIZATION,
             "yield None if any(pool.bad_square(e, g, reflects, per_e[k])",
             "yield None if True or any(pool.bad_square(e, g, reflects, per_e[k])",
             (f"{VALIDATE}[finpre-extra-split-b2]",)),
    Mutation("factorization: the image square fails", FACTORIZATION,
             "if any(not pool.iso(m) and pool.image_square(f, m)",
             "if any(True",
             (f"{VALIDATE}[finpre-no-point-ids-b2]",)),
    Mutation("factorization: the coimage square fails", FACTORIZATION,
             "if any(not pool.iso(e) and pool.coimage_square(e, g)",
             "if any(True",
             (f"{VALIDATE}[finpre-extra-split-b2]",)),
    Mutation("factorization: a grouping is shared only by maps of one table and target",
             FACTORIZATION,
             "keys = [(f.idx, f.t) for f in maps]",
             "keys = [f.idx for f in maps]",
             (f"{E_GROUPS}[plain]",)),
    Mutation("factorization: composites of members are members", FACTORIZATION,
             "yield (None if in_class(tuple(g_idx[t] for t in f_idx), src_up,",
             "yield (None if True or in_class(tuple(g_idx[t] for t in f_idx), src_up,",
             (f"{VALIDATE}[finpre-extra-m-not-closed-b2]",
              f"{VALIDATE}[finpre-extra-e-not-closed-b2]")),
    Mutation("factorization: an order-reflecting member of M settles its squares",
             FACTORIZATION,
             "return order_reflecting_table(m.idx, self.up[m.s], self.up[m.t])",
             "return True",
             (f"{VALIDATE}[finpre-surj-inj-b2]",)),
    Mutation("factorization: a square has exactly one diagonal", FACTORIZATION,
             "if count != 1:",
             "if count > 1:",
             (f"{SWEEP}[swapped]", f"{VALIDATE}[finpre-extra-swapped-b2]")),
    Mutation("factorization: M is stable under pullback", FACTORIZATION,
             "holds = memo[key] = sys.m_table(",
             "holds = memo[key] = True or sys.m_table(",
             (f"{VALIDATE}[finpre-no-2-b2]",)),
    Mutation("factorization: a block of pullback keys is one run only when "
             "each key holds", FACTORIZATION,
             "if all(map(memo.get, keys)):",
             "if True:",
             (f"{VALIDATE}[finpre-no-2-b2]",)),
    Mutation("factorization: a pullback key names m's source", FACTORIZATION,
             "memo = decided.setdefault((s, m.s), {})",
             "memo = decided.setdefault(s, {})",
             (f"{PULLBACK_KEY}[plain]", f"{PULLBACK_KEY}[swapped]")),
    Mutation("biproduct: lattices split as biproducts", THEOREMS,
             "yield None if bp.passed else _witness(",
             "yield None if True else _witness(",
             ("tests/test_theorems.py::"
              "test_closed_biproduct_side_runs_past_a_subobject_failure",)),
    Mutation("biproduct: homs round-trip through matrices", THEOREMS,
             "yield (None if matrix_to_hom(bp_s, bp_t, hom_matrix(bp_s, bp_t, h)) == h",
             "yield (None if True",
             ("tests/test_theorems.py::"
              "test_roundtrip_side_names_the_first_hom_that_fails",)),
    Mutation("biproduct: a round trip is keyed on the structure maps", THEOREMS,
             "key = lattices, bp_s.pairs, bp_t.joint",
             "key = lattices",
             ("tests/test_theorems.py::"
              "test_roundtrip_side_keys_round_trips_on_structure_maps",
              "tests/test_theorems.py::"
              "test_roundtrip_side_decides_each_key_once")),
    Mutation("biproduct: a block's homs all round-trip when both guards hold",
             SEMILATTICE,
             "return bp_src.pairs_rejoin and bp_tgt.joint == bp_tgt.total.join",
             "return True",
             ("tests/test_semilattice.py::test_matrix_roundtrip_with_broken_projection",
              "tests/test_theorems.py::"
              "test_roundtrip_side_names_the_first_hom_that_fails")),
    Mutation("biproduct: a certified sum's admissible masks are the sums of its "
             "summands'", THEOREMS,
             "members == {m for m, _ in pairs}",
             "True",
             (f"{CERTIFICATE}[finpre!no-1-b2]",)),
    Mutation("biproduct: a certified sum closes componentwise", THEOREMS,
             "all(fsum(m) == closed for m, closed in pairs)",
             "True",
             (f"{CERTIFICATE}[finpre!crossed-b2]", f"{CERTIFICATE}[finpre-b3]")),
    Mutation("lattices: a lattice takes every subset under any system", SUBOBJECTS,
             "if sys.m_table is injective_table or sys.m_table is embedding_table:",
             "if True:",
             ("tests/test_subobjects.py::"
              "test_lattice_masks_match_label_level_enumeration[finpre!split]",)),
    Mutation("adjunctions: a closed row holds", SUBOBJECTS,
             "yield from runs_around(lhs ^ left_u & right_v,",
             "yield from runs_around(0,",
             (f"{LEAKY_ADJ}[finpre]", f"{LEAKY_ADJ}[finset]")),
    Mutation("adjunctions: a closed pair is served only when it reads the "
             "admissible side's triples", THEOREMS,
             "if (admissible_ok and len(closed_x) == len(lat_x.masks)",
             "if admissible_ok or (len(closed_x) == len(lat_x.masks)",
             (f"{SERVED_ADJ}[finset-b2]", f"{SERVED_ADJ}[finpre-b2]")),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    # C's oracle test reads the closed-maps objects from perfbench/inputs.
    for part in ("src", "tests", "perfbench/inputs"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(cwd: Path, tests, expected) -> int:
    """Pytest's exit status: 0 all passed, 1 some test failed, other values
    an error before any test could decide (collection, usage).  Its output
    is printed when the status is not in `expected`."""
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if run.returncode not in expected:
        print(run.stdout)
    return run.returncode


def _apply(root: Path, m: Mutation) -> None:
    path = root / m.file
    text = path.read_text()
    if text.count(m.decision) != 1:
        print(f"audit_sides: the decision of {m.side!r} is not found exactly "
              f"once in {m.file}; update the table", file=sys.stderr)
        raise SystemExit(2)
    path.write_text(text.replace(m.decision, m.holds))


def main() -> int:
    for m in MUTATIONS:
        print(f"{m.side}\n    {m.file}: {m.decision!r} -> {m.holds!r}\n"
              f"    caught by: {', '.join(m.tests)}")
    every_test = sorted({t for m in MUTATIONS for t in m.tests})
    status = _pytest(ROOT, every_test, (0,))
    if status != 0:
        print(f"audit_sides: the unmutated tests exit {status}")
        return 2
    outcomes = []
    for m in MUTATIONS:
        with tempfile.TemporaryDirectory(prefix="audit-sides-") as tmp:
            _copy_tree(Path(tmp))
            _apply(Path(tmp), m)
            status = _pytest(Path(tmp), m.tests, (0, 1))
        verdict = {0: "SURVIVED", 1: "caught"}.get(status, f"error (exit {status})")
        print(f"{verdict:>9}  {m.side}")
        outcomes.append(status)
    print(f"{outcomes.count(1)} of {len(MUTATIONS)} mutations caught")
    if any(status not in (0, 1) for status in outcomes):
        return 2
    return 1 if 0 in outcomes else 0


if __name__ == "__main__":
    sys.exit(main())
