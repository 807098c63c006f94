"""The benchmark's workloads and the verdicts each one must produce.

Every workload is a fixed, exhaustive slice of the `finpre` universe: the
pool enumerated up to `bound`, plus the preorders in `inputs/<name>.json`,
which a user would pass with `extcheck --objects`.  README.md in this
directory says why each slice was chosen and which layer it loads.

`EXPECTED` is written by hand from the statements being checked, not
captured from a run; the byte-level oracle is `golden/<name>.json`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

T, F = True, False

C_SIDES = ("sums_of_closed_morphisms_closed", "injections_closed")
ADJ_SIDES = ("admissible_extension_adjunction", "closed_extension_adjunction")
BIP_SIDES = ("subobject_lattice_biproduct", "closed_lattice_biproduct",
             "hom_matrix_roundtrip")
VAL_SIDES = ("extensivity", "factorization", "closure_alexandrov",
             "closure_identity", "closure_indiscrete")

# The three self-test mutants of `extcheck.contexts`, run after the real
# context, in this order, by the `validators` workload.
MUTANTS = ("swapped_system_context", "crossed_coproduct_context",
           "split_mono_context")


@dataclass(frozen=True)
class Workload:
    name: str
    # "cli": one `extcheck.cli.run` call; "validators": `run_checker
    # ("validate", ...)` on the real context and on each of MUTANTS.
    kind: str
    context: str
    theorems: tuple[str, ...]
    families: tuple[str, ...] | None
    bound: int | None
    objects: str | None
    # (theorem, context, family, bound, status, sides, passed) per verdict,
    # in run order; None for the ungated full runs, which are checked
    # against their golden report and `passed` only.
    expected: tuple | None
    timeout_s: float = 120.0

    @property
    def objects_path(self) -> Path | None:
        return HERE / "inputs" / self.objects if self.objects else None

    @property
    def golden_path(self) -> Path:
        return HERE / "golden" / f"{self.name}.json"


def _v(theorem, context, family, bound, sides, values, passed, status="ok"):
    return (theorem, context, family, bound, status,
            tuple(zip(sides, values)), passed)


WORKLOADS = {w.name: w for w in (
    Workload(
        "closed-maps", "cli", "finpre", ("C",), None, 2, "closed-maps.json",
        (_v("C", "finpre", "alexandrov", 2, C_SIDES, (T, T), T),
         _v("C", "finpre", "identity", 2, C_SIDES, (T, T), T),
         # Indiscrete closure: injections are not closed, and neither are
         # sums of closed maps, so the equivalence holds with both false.
         _v("C", "finpre", "indiscrete", 2, C_SIDES, (F, F), T))),
    Workload(
        "sum-extensions", "cli", "finpre", ("adjunctions",), ("alexandrov",),
        2, "sum-extensions.json",
        (_v("adjunctions", "finpre", "alexandrov", 2, ADJ_SIDES, (T, T), T),)),
    Workload(
        "validators", "validators", "finpre", ("validate",), None, 2,
        "validators.json",
        (_v("validate", "finpre", None, 2, VAL_SIDES, (T, T, T, T, T), T),
         # Swapped classes: E and M exchanged breaks both validators.
         _v("validate", "finpre!swapped", None, 2, VAL_SIDES,
            (F, F, T, T, T), F),
         # A cross pair in the coproduct order breaks extensivity only.
         _v("validate", "finpre!crossed", None, 2, VAL_SIDES,
            (F, T, T, T, T), F),
         # Split monos as admissibles: injections are no longer all in M.
         _v("validate", "finpre!split", None, 2, VAL_SIDES,
            (F, F, T, T, T), F))),
    Workload(
        "lattice-algebra", "cli", "finpre", ("biproduct",), ("identity",),
        1, "lattice-algebra.json",
        (_v("biproduct", "finpre", "identity", 1, BIP_SIDES, (T, T, T), T),)),
    # Ungated one-off timings of the default CLI runs (README.md).
    Workload("full-finset", "cli", "finset", ("all",), None, None, None,
             None, timeout_s=300.0),
    Workload("full-finpre", "cli", "finpre", ("all",), None, None, None,
             None, timeout_s=900.0),
)}

GATED = ("closed-maps", "sum-extensions", "validators", "lattice-algebra")
