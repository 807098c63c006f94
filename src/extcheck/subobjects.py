"""Admissible subobjects: their lattices as masks, and direct image/preimage.

A subobject of X is kept in canonical inclusion form, as a subset of X's
carrier.  A `SubobjectLattice` is X together with the masks of its
admissible subsets.  Under the image factorization of every system, meet is
intersection and join is union, so the checkers compute on masks alone: a
sum a + b is admissible when its mask `a | b << |X|` is admissible in the
constructed sum X + Y.  A label-level `Subobject` is built only to
serialize a witness; `image`, `preimage`, `restriction`, `sum_subobjects`
and `iota_map` are its label-level operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    CheckResult,
    FiniteObject,
    Morphism,
    Report,
    compose,
    coproduct,
    inclusion,
    points,
    restrict_masks,
    split_coproduct,
    up_masks_or_none,
    LEFT_TAG,
    RIGHT_TAG,
)
from .factorization import FactorizationSystem, image_factorization


@dataclass(frozen=True)
class Subobject:
    ambient: FiniteObject
    elements: tuple[str, ...]

    def __post_init__(self):
        elements = tuple(sorted(self.elements))
        object.__setattr__(self, "elements", elements)
        missing = set(elements) - set(self.ambient.elements)
        if missing:
            raise ValueError(f"labels {sorted(missing)} outside ambient carrier")

    @cached_property
    def mask(self) -> int:
        return self.ambient.mask_of(self.elements)

    @cached_property
    def ob(self) -> FiniteObject:
        return self.ambient.restrict(self.elements)

    @cached_property
    def rep(self) -> Morphism:
        return inclusion(self.ob, self.ambient)

    @property
    def size(self) -> int:
        return len(self.elements)


def subobject_from_mask(ambient: FiniteObject, mask: int) -> Subobject:
    return Subobject(ambient, ambient.labels_of(mask))


def serialize_subobject(sub: Subobject) -> dict:
    return {"ambient": sub.ambient.label, "elements": list(sub.elements)}


def image(f: Morphism, sub: Subobject) -> Subobject:
    """Direct image of a subobject of f's source, via the image factorization."""
    assert sub.ambient == f.source
    fac = image_factorization(compose(f, sub.rep))
    carrier = tuple(sorted(set(v for (_, v) in fac.m_part.mapping)))
    return Subobject(f.target, carrier)


def preimage(f: Morphism, sub: Subobject) -> Subobject:
    """Inverse image, the canonical pullback of the inclusion along f."""
    assert sub.ambient == f.target
    keep = set(sub.elements)
    return Subobject(f.source, tuple(e for (e, v) in f.mapping if v in keep))


def restriction(f: Morphism, sub: Subobject) -> Morphism:
    """f cut down to a source subobject, landing on its image."""
    img = image(f, sub)
    return Morphism(sub.ob, img.ob,
                    tuple((e, f.table[e]) for e in sub.elements))


@dataclass(frozen=True, eq=False)
class SubobjectLattice:
    """The admissible subobjects of one object, as masks over its carrier,
    smallest first, then by labels.  A witness builds its `Subobject` from
    `ambient`, which names it."""

    ambient: FiniteObject
    masks: tuple[int, ...]

    def __iter__(self):
        return iter(self.masks)


def _inclusion_table(x: FiniteObject, mask: int) -> tuple:
    """`table_of` the inclusion of the subset `mask` of x into x."""
    idx = points(mask)
    up = up_masks_or_none(x)
    sub_up = None if up is None else restrict_masks(up, idx)
    return idx, sub_up, x.size, up


def subobject_lattice(sys: FactorizationSystem, x: FiniteObject) -> SubobjectLattice:
    """Every subset of x whose canonical inclusion lies in M, decided on
    its table under `sys.m_table`."""
    masks = [m for m in range(1 << x.size)
             if sys.m_table(*_inclusion_table(x, m))]
    masks.sort(key=lambda m: (m.bit_count(), x.labels_of(m)))
    return SubobjectLattice(x, tuple(masks))


def iota_map(sum_sub: Subobject) -> tuple[Subobject, Subobject]:
    """Componentwise preimage of a subobject of a constructed coproduct."""
    x, y = split_coproduct(sum_sub.ambient)
    left = tuple(e[len(LEFT_TAG):] for e in sum_sub.elements if e.startswith(LEFT_TAG))
    right = tuple(e[len(RIGHT_TAG):] for e in sum_sub.elements if e.startswith(RIGHT_TAG))
    return Subobject(x, left), Subobject(y, right)


def sum_subobjects(a: Subobject, b: Subobject) -> Subobject:
    """The sum a + b inside X + Y.

    Under the image factorization a + b is admissible exactly when its mask
    `a.mask | b.mask << |X|` is admissible in the constructed sum X + Y; the
    checkers decide it that way, and build this only for a witness.
    """
    carrier = tuple(LEFT_TAG + e for e in a.elements) + tuple(
        RIGHT_TAG + e for e in b.elements)
    return Subobject(coproduct(a.ambient, b.ambient).ob, carrier)


def check_adjunction_admissible(lat_x: SubobjectLattice, lat_y: SubobjectLattice,
                                lat_xy: SubobjectLattice) -> Report:
    """Join of extensions is left adjoint to the pair of injection preimages.

    Checks, for all admissible m of X, n of Y and p of X+Y:
    L(m) v R(n) <= p  iff  m <= preimage(inl, p) and n <= preimage(inr, p).

    `lat_xy` must be the lattice of the constructed coproduct X+Y, whose
    carrier lists X's tagged labels first and Y's after them in their own
    order.  On masks L(m) is then m, R(n) is n << |X|, the preimages of p
    along the injections (`iota_map`) are p & low and p >> |X|, and the join
    L(m) v R(n) is the union m | n << |X|, as it is under the image
    factorization of every system.
    """
    x, y, amb = lat_x.ambient, lat_y.ambient, lat_xy.ambient
    if amb.elements != tuple(LEFT_TAG + e for e in x.elements) + tuple(
            RIGHT_TAG + e for e in y.elements):
        raise ValueError(f"{amb.label} is not the constructed sum "
                         f"of {x.label} and {y.label}")
    nx = x.size
    low = (1 << nx) - 1
    preimages = [(p, p & low, p >> nx) for p in lat_xy]

    def outcomes():
        for m in lat_x:
            for n in lat_y:
                join_mask = m | (n << nx)
                for p, pl, pr in preimages:
                    lhs = join_mask & ~p == 0
                    rhs = m & ~pl == 0 and n & ~pr == 0
                    yield None if lhs == rhs else {
                        "m": serialize_subobject(subobject_from_mask(x, m)),
                        "n": serialize_subobject(subobject_from_mask(y, n)),
                        "p": serialize_subobject(subobject_from_mask(amb, p)),
                        "lhs": lhs, "rhs": rhs}

    return Report(f"adjunction[{x.label},{y.label}]", (
        CheckResult.of("extension_preimage_adjunction", outcomes()),))
