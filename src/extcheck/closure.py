"""Closure operators on subobject lattices and the derived space notions.

A closure family assigns, by a single formula, a closure operator to every
object (identity, indiscrete, and down-closure for the ordered flavor).  A
space is an object under a family, with closure `family.component(ob)`;
a map between spaces is an index table between their objects.  Continuity
and closedness are decided in singleton form on index tables
(`_continuous_fast`, `_closed_fast`); `tests/oracles.py` keeps the literal
sweeps over every mask.  The proper test decides "continuous and closed"
on a map's table: under every registered family that is proper,
continuous and stably closed (`ClosureFamily` has the proofs).  The
separated test decides the same of the diagonal into the kernel pair, on
index pairs.  A space is compact or Hausdorff when its map to the point
is proper or separated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    CheckResult,
    FiniteObject,
    Report,
    componentwise,
    count_instances,
    first_counterexample,
    image_bits,
    pullback_pairs,
    serialize_object,
)
from .subobjects import SubobjectLattice

MaskFn = Callable[[int], int]


@dataclass(eq=False)
class ClosureFamily:
    """A uniform closure assignment: one formula, applied to every object.

    The proper test takes a continuous map to be proper, that is stably
    closed, exactly when it is closed.  Closed implies proper only when
    every pullback of a closed map f: A -> T along a continuous w: W -> T
    is closed, its apex P = {(x, a) | w(x) = f(a)} ordered componentwise
    and closed by the same family.  (Proper implies closed: pull back
    along the identity.)  Each registered family meets that obligation:

    - identity: every map is closed.
    - indiscrete: a map is closed exactly when it is onto or its source is
      empty.  The pullback of an onto map is onto, and a pullback of a
      map from the empty object has an empty apex.
    - alexandrov: the closure is down-closure, and a monotone map is
      closed exactly when f(down a) = down f(a) for each a.  For (x, a)
      in P and x' <= x, w(x') <= w(x) = f(a), so w(x') is in
      down f(a) = f(down a): some a' <= a has f(a') = w(x'), and
      (x', a') <= (x, a) in P.  So the projection P -> W sends
      down (x, a) onto down x.

    A new family must meet the same obligation, or take a proper test of
    its own.  `tests/test_closure.py` checks the proper test against the
    literal definition, `tests/oracles.py::proper_literal`, on the pools.
    """

    name: str
    needs_order: bool
    _fn_for: Callable[[int, tuple[int, ...]], MaskFn]

    def fn_for(self, size: int, down_masks: tuple[int, ...]) -> MaskFn:
        return self._fn_for(size, down_masks)

    def component(self, ob: FiniteObject) -> MaskFn:
        if self.needs_order and not ob.has_order:
            raise ValueError(f"closure family {self.name} needs an ordered object")
        down = ob.down_masks if ob.has_order else ()
        return self._fn_for(ob.size, down)


def _identity_fn(size: int, down: tuple[int, ...]) -> MaskFn:
    return lambda mask: mask


def _indiscrete_fn(size: int, down: tuple[int, ...]) -> MaskFn:
    full = (1 << size) - 1
    return lambda mask: full if mask else 0


def _alexandrov_fn(size: int, down: tuple[int, ...]) -> MaskFn:
    def fn(mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= down[low.bit_length() - 1]
            m ^= low
        return out
    return fn


IDENTITY = ClosureFamily("identity", False, _identity_fn)
INDISCRETE = ClosureFamily("indiscrete", False, _indiscrete_fn)
ALEXANDROV = ClosureFamily("alexandrov", True, _alexandrov_fn)

FAMILY_REGISTRY = {f.name: f for f in (IDENTITY, INDISCRETE, ALEXANDROV)}


def get_family(name: str) -> ClosureFamily:
    if name not in FAMILY_REGISTRY:
        raise KeyError(f"unknown closure family: {name}")
    return FAMILY_REGISTRY[name]


def _continuous_fast(f_idx, src_fn: MaskFn, tgt_fn: MaskFn, n_src: int) -> bool:
    for i in range(n_src):
        if image_bits(src_fn(1 << i), f_idx) & ~tgt_fn(1 << f_idx[i]):
            return False
    return True


def validate_closure(family: ClosureFamily,
                     lattice_of: Callable[[FiniteObject], SubobjectLattice],
                     objects: Sequence[FiniteObject]) -> Report:
    """Extensive, monotone, idempotent, additive on every admissible lattice,
    as `lattice_of` (a context's `sub_lattice`) gives it.

    Each law is a generator of outcomes, one per instance: None when it
    holds, the witness when it fails.  Every instance is counted, past the
    first failure too.  Groundedness (empty goes to empty) is reported but
    never fails the run.
    """
    lattices = [(x, family.component(x), lattice_of(x)) for x in objects]

    def witness(x: FiniteObject, *masks: int) -> dict:
        return {"object": serialize_object(x),
                **{name: list(x.labels_of(m)) for name, m in zip("uv", masks)}}

    singles = [(x, fn, u) for x, fn, masks in lattices for u in masks]
    pairs = [(x, fn, u, v) for x, fn, masks in lattices for u in masks for v in masks]
    checks = []
    for check_id, outcomes in (
            ("extensive", (witness(x, u) if u & ~fn(u) else None
                           for x, fn, u in singles)),
            ("monotone", (witness(x, u, v) if u & ~v == 0 and fn(u) & ~fn(v) else None
                          for x, fn, u, v in pairs)),
            ("idempotent", (witness(x, u) if fn(fn(u)) != fn(u) else None
                            for x, fn, u in singles)),
            ("additive", (witness(x, u, v) if fn(u | v) != fn(u) | fn(v) else None
                          for x, fn, u, v in pairs))):
        ok, failed, count = first_counterexample(outcomes)
        count += count_instances(outcomes)
        checks.append(CheckResult(check_id, ok, count, failed))
    ungrounded = [x.label for x, fn, _ in lattices if fn(0) != 0]
    checks.append(CheckResult(
        "grounded_informational", True, len(objects),
        {"ungrounded_objects": ungrounded} if ungrounded else None))
    return Report(f"closure[{family.name}]", tuple(checks))


def _closed_fast(f_idx, src_fn: MaskFn, tgt_fn: MaskFn, n_src: int) -> bool:
    """Singleton form of the closed-morphism equation.

    Equivalent to the sweep over every mask (`tests/oracles.py::
    is_closed_morphism`) because direct image and every registered
    closure formula preserve joins; `tests/test_closure.py::
    test_registered_closures_preserve_binary_joins` checks the closures on
    the built-in pools and their sums.
    """
    if tgt_fn(0) != image_bits(src_fn(0), f_idx):
        return False
    for i in range(n_src):
        if image_bits(src_fn(1 << i), f_idx) != tgt_fn(1 << f_idx[i]):
            return False
    return True


def _proper_on_tables(f_idx, src_fn: MaskFn, tgt_fn: MaskFn, n_src: int):
    """(ok, witness) of "continuous and closed" on an index table: proper,
    under a family whose closed maps are stable under pullback."""
    if not _continuous_fast(f_idx, src_fn, tgt_fn, n_src):
        return False, {"continuous": False}
    if not _closed_fast(f_idx, src_fn, tgt_fn, n_src):
        return False, {"closed": False}
    return True, None


# A family's closure of an object: a context's cached `closure`, or
# `ClosureFamily.component`.
ClosureOf = Callable[[ClosureFamily, FiniteObject], MaskFn]


def proper_witness(closure: ClosureOf, family: ClosureFamily, idx,
                   src: FiniteObject, tgt: FiniteObject):
    """(ok, witness) of the map src -> tgt with index table `idx` being
    continuous and stably closed: under every registered family,
    continuous and closed (see `ClosureFamily`).  The spaces' closures are
    `closure(family, src)` and `closure(family, tgt)`."""
    return _proper_on_tables(idx, closure(family, src), closure(family, tgt),
                             src.size)


def _kernel_diagonal(idx, src: FiniteObject):
    """The kernel pair and diagonal of the map out of src with index table
    `idx`: the pairs (a, b) of `core.pullback_pairs`, their componentwise
    down-masks (() when src is unordered), and the diagonal, each a's
    position of (a, a)."""
    pairs = pullback_pairs(idx, idx)
    down = componentwise(pairs, src.down_masks, src.down_masks) if src.has_order else ()
    at = {pair: k for k, pair in enumerate(pairs)}
    return pairs, down, tuple(at[a, a] for a in range(src.size))


def separated_witness(closure: ClosureOf, family: ClosureFamily, idx,
                      src: FiniteObject, tgt: FiniteObject):
    """(ok, witness) of the map src -> tgt with index table `idx` being
    continuous, with a proper diagonal into the kernel pair.  Continuity
    is decided on the map itself: the diagonal of a map that is not
    continuous can be.  The spaces' closures are read as in
    `proper_witness`; the kernel pair's is the family's formula."""
    src_fn = closure(family, src)
    if not _continuous_fast(idx, src_fn, closure(family, tgt), src.size):
        return False, {"continuous": False}
    pairs, down, diagonal = _kernel_diagonal(idx, src)
    return _proper_on_tables(diagonal, src_fn, family.fn_for(len(pairs), down),
                             src.size)

