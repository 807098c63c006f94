"""Closure operators on subobject lattices and the derived space notions.

A closure family assigns, by a single formula, a closure operator to every
object (identity, indiscrete, and down-closure for the ordered flavor).  A
space is an object under a family, with closure `family.component(ob)`;
maps between spaces are plain `Morphism`s.  Continuity and closedness are
decided in singleton form on index tables (`_continuous_fast`,
`_closed_fast`); `tests/oracles.py` keeps the literal sweeps over every
mask.  The bounded semi-decisions for proper and separated maps take the
family, and first decide the map's continuity; a space is compact or
Hausdorff when its map to the point (`to_point`) is proper or separated.

The bounded predicates run mask-level: a pullback apex is the index pairs
of `core.pullback_pairs` with `core.componentwise` down-masks, not a fresh
object, which keeps the quantifier sweeps allocation-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

from .core import (
    CheckResult,
    FiniteObject,
    Morphism,
    Report,
    componentwise,
    count_instances,
    down_or_discrete,
    enumerate_morphisms,
    first_counterexample,
    image_bits,
    inclusion,
    pair_label,
    pullback_object,
    pullback_pairs,
    serialize_morphism,
    serialize_object,
    terminal,
)
from .subobjects import SubobjectLattice

MaskFn = Callable[[int], int]


@dataclass(eq=False)
class ClosureFamily:
    """A uniform closure assignment: one formula, applied to every object."""

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


def is_proper_witness(family: ClosureFamily, pool: Sequence[FiniteObject],
                      f: Morphism, bound: int):
    """Continuous, and stably closed against every continuous test
    morphism with source size at most the bound, the test source and the
    pullback apex carrying the same family's closure."""
    t_ob = f.target
    a_ob = f.source
    f_idx = f.idx
    cls_t = family.component(t_ob)
    if not _continuous_fast(f_idx, family.component(a_ob), cls_t, a_ob.size):
        return False, {"continuous": False}
    a_down = down_or_discrete(a_ob)
    for w_src in pool:
        if w_src.size > bound:
            continue
        cls_w = family.component(w_src)
        w_down = down_or_discrete(w_src)
        for w in enumerate_morphisms(w_src, t_ob):
            w_idx = w.idx
            if not _continuous_fast(w_idx, cls_w, cls_t, w_src.size):
                continue
            pairs = pullback_pairs(w_idx, f_idx)
            down = componentwise(pairs, w_down, a_down)
            cls_apex = family.fn_for(len(pairs), down)
            proj_bits = tuple(i for (i, _) in pairs)
            # The closure of the empty set, then of each apex point, must
            # project onto the closure of its projection.
            ok, point, _ = first_counterexample(chain(
                [None if image_bits(cls_apex(0), proj_bits) == cls_w(0) else {}],
                (None if image_bits(cls_apex(1 << t), proj_bits) == cls_w(1 << i)
                 else {"apex_point": [w_src.elements[i], a_ob.elements[j]]}
                 for t, (i, j) in enumerate(pairs))))
            if not ok:
                return False, {"w": serialize_morphism(w),
                               "apex": [[w_src.elements[i], a_ob.elements[j]]
                                        for (i, j) in pairs],
                               **point}
    return True, None


def diagonal_morphism(f: Morphism) -> Morphism:
    """The diagonal copy of f's source inside its kernel pair, the pullback
    of f along itself: the inclusion of the pairs "(a,a)"."""
    src = f.source
    kernel = pullback_object(src, src, pullback_pairs(f.idx, f.idx))
    return inclusion(kernel.restrict(pair_label(a, a) for a in src.elements), kernel)


def is_separated_witness(family: ClosureFamily, pool: Sequence[FiniteObject],
                         f: Morphism, bound: int):
    """Continuous, with a proper diagonal.  Continuity is decided on f
    itself: the diagonal of a map that is not continuous can be."""
    if not _continuous_fast(f.idx, family.component(f.source),
                            family.component(f.target), f.source.size):
        return False, {"continuous": False}
    return is_proper_witness(family, pool, diagonal_morphism(f), bound)


def to_point(ob: FiniteObject) -> Morphism:
    """The map from ob to the terminal object of its flavor."""
    return Morphism(ob, terminal(ob.has_order), tuple((e, "*") for e in ob.elements))

