"""Closure operators on subobject lattices and the derived space notions.

A closure family assigns, by a single formula, a closure operator to every
object (identity, indiscrete, and down-closure for the ordered flavor).  A
Space is an object together with one closure component; SpaceMorphisms are
continuous.  On top of that sit the predicates the theorem suite quantifies
over: closed subobjects and morphisms, dense morphisms, the dense/closed
factorization, and the bounded semi-decisions for proper, separated,
compact, and Hausdorff.

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
    down_or_discrete,
    enumerate_morphisms,
    equalizer,
    first_counterexample,
    image_bits,
    kernel_pair,
    pullback_pairs,
    serialize_morphism,
    serialize_object,
    terminal,
)
from .subobjects import Subobject, SubobjectLattice, subobject_from_mask

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

    def space(self, ob: FiniteObject) -> "Space":
        return Space(ob, self.component(ob), self.name)


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


@dataclass(eq=False)
class Space:
    """A finite object carrying one closure operator, mask-level."""

    ob: FiniteObject
    fn: MaskFn
    family: str

    @property
    def full_mask(self) -> int:
        return (1 << self.ob.size) - 1

    def cls_mask(self, mask: int) -> int:
        return self.fn(mask)

    def cls(self, sub: Subobject) -> Subobject:
        assert sub.ambient == self.ob
        return subobject_from_mask(self.ob, self.fn(sub.mask))

    def is_closed_mask(self, mask: int) -> bool:
        return self.fn(mask) == mask


@dataclass(eq=False)
class SpaceMorphism:
    """A continuous morphism between spaces."""

    f: Morphism
    source: Space
    target: Space

    def __post_init__(self):
        if self.f.source != self.source.ob or self.f.target != self.target.ob:
            raise ValueError("underlying morphism does not match the spaces")
        if not is_continuous(self.f, self.source, self.target):
            raise ValueError("underlying morphism is not continuous")


def is_continuous(f: Morphism, source: Space, target: Space) -> bool:
    """image(cls u) <= cls(image u) for every subobject u of the source."""
    for mask in range(1 << source.ob.size):
        if f.image_mask(source.fn(mask)) & ~target.fn(f.image_mask(mask)):
            return False
    return True


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
        count += sum(1 for _ in outcomes)
        checks.append(CheckResult(check_id, ok, count, failed))
    ungrounded = [x.label for x, fn, _ in lattices if fn(0) != 0]
    checks.append(CheckResult(
        "grounded_informational", True, len(objects),
        {"ungrounded_objects": ungrounded} if ungrounded else None))
    return Report(f"closure[{family.name}]", tuple(checks))


def subspace(space: Space, sub: Subobject) -> Space:
    """The closure a subobject inherits: close in the ambient, intersect."""
    assert sub.ambient == space.ob
    bits = tuple(space.ob.index[e] for e in sub.elements)
    sub_mask = sub.mask

    def fn(mask: int) -> int:
        ambient_mask = image_bits(mask, bits)
        closed = space.fn(ambient_mask) & sub_mask
        out = 0
        for i, b in enumerate(bits):
            if (closed >> b) & 1:
                out |= 1 << i
        return out

    return Space(sub.ob, fn, f"{space.family}|{','.join(sub.elements)}")


def is_closed_morphism(sf: SpaceMorphism) -> bool:
    """Image commutes with closure on every subobject (literal sweep)."""
    f = sf.f
    for mask in range(1 << sf.source.ob.size):
        if f.image_mask(sf.source.fn(mask)) != sf.target.fn(f.image_mask(mask)):
            return False
    return True


def _closed_fast(f_idx, src_fn: MaskFn, tgt_fn: MaskFn, n_src: int) -> bool:
    """Singleton form of the closed-morphism equation.

    Equivalent to the full sweep because direct image and every registered
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


def is_dense(sf: SpaceMorphism) -> bool:
    full_src = (1 << sf.source.ob.size) - 1
    return sf.target.fn(sf.f.image_mask(full_src)) == sf.target.full_mask


def dense_closed_factorize(sf: SpaceMorphism) -> tuple[SpaceMorphism, SpaceMorphism]:
    """Split a space morphism as (dense) then (closed embedding).

    The middle object is the closure of the image, carrying the subspace
    closure restricted from the target.
    """
    f = sf.f
    img_mask = f.image_mask((1 << f.source.size) - 1)
    closed_mask = sf.target.fn(img_mask)
    mid_sub = subobject_from_mask(f.target, closed_mask)
    mid_space = subspace(sf.target, mid_sub)
    dense_part = SpaceMorphism(
        Morphism(f.source, mid_sub.ob, f.mapping), sf.source, mid_space)
    closed_part = SpaceMorphism(mid_sub.rep, mid_space, sf.target)
    return dense_part, closed_part


def is_proper(family: ClosureFamily, pool: Sequence[FiniteObject],
              sf: SpaceMorphism, bound: int) -> bool:
    ok, _ = is_proper_witness(family, pool, sf, bound)
    return ok


def is_proper_witness(family: ClosureFamily, pool: Sequence[FiniteObject],
                      sf: SpaceMorphism, bound: int):
    """Stably closed against every continuous test morphism with source
    size at most the bound, the test source and the pullback apex carrying
    the same family's closure."""
    f = sf.f
    t_ob = f.target
    a_ob = f.source
    a_down = down_or_discrete(a_ob)
    f_idx = f.idx
    cls_t = sf.target.fn
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
    """The equalizer inclusion of the kernel pair projections: the diagonal
    copy of the source inside the kernel-pair object."""
    kp = kernel_pair(f)
    return equalizer(kp.p1, kp.p2)


def is_separated(family: ClosureFamily, pool: Sequence[FiniteObject],
                 sf: SpaceMorphism, bound: int) -> bool:
    ok, _ = is_separated_witness(family, pool, sf, bound)
    return ok


def is_separated_witness(family: ClosureFamily, pool: Sequence[FiniteObject],
                         sf: SpaceMorphism, bound: int):
    d = diagonal_morphism(sf.f)
    d_space = SpaceMorphism(d, family.space(d.source), family.space(d.target))
    return is_proper_witness(family, pool, d_space, bound)


def terminal_space_morphism(family: ClosureFamily, space: Space) -> SpaceMorphism:
    one = terminal(space.ob.has_order)
    t = Morphism(space.ob, one, tuple((e, "*") for e in space.ob.elements))
    return SpaceMorphism(t, space, family.space(one))


def is_compact(family: ClosureFamily, pool: Sequence[FiniteObject],
               space: Space, bound: int) -> bool:
    """The map to the point is proper at the bound."""
    return is_proper(family, pool, terminal_space_morphism(family, space), bound)


def is_hausdorff(family: ClosureFamily, pool: Sequence[FiniteObject],
                 space: Space, bound: int) -> bool:
    """The map to the point is separated at the bound."""
    return is_separated(family, pool, terminal_space_morphism(family, space), bound)
