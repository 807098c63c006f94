"""Admissible subobjects, their lattices, and direct image/preimage.

Subobjects are kept in canonical inclusion form: a subobject of X is just a
subset of X's carrier, its representative the literal inclusion of the full
subobject on that subset.  Meet is intersection; join is the image of the
copairing of the two inclusions, which under the image factorization of
every system is the union.  The checkers therefore work on masks: a sum
a + b is admissible when its mask is admissible in X + Y.  `image` and
`SubobjectLattice.join` stay as the label-level references.
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
    copair,
    coproduct,
    inclusion,
    split_coproduct,
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

    def leq(self, other: "Subobject") -> bool:
        assert self.ambient == other.ambient
        return set(self.elements) <= set(other.elements)


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


def corestriction(f: Morphism, sub: Subobject) -> Morphism:
    """f cut down to the preimage of a target subobject."""
    pre = preimage(f, sub)
    return Morphism(pre.ob, sub.ob,
                    tuple((e, f.table[e]) for e in pre.elements))


@dataclass(eq=False)
class SubobjectLattice:
    """All admissible subobjects of one object, in a fixed enumeration order."""

    ambient: FiniteObject
    subs: tuple[Subobject, ...]

    def __post_init__(self):
        self._by_mask = {s.mask: s for s in self.subs}

    def __iter__(self):
        return iter(self.subs)

    def __len__(self):
        return len(self.subs)

    def __contains__(self, sub: Subobject) -> bool:
        return sub.mask in self._by_mask and self._by_mask[sub.mask] == sub

    def from_mask(self, mask: int) -> Subobject:
        return self._by_mask[mask]

    def bottom(self) -> Subobject:
        return self._by_mask[0]

    def top(self) -> Subobject:
        full = (1 << self.ambient.size) - 1
        return self._by_mask[full]

    def leq(self, p: Subobject, q: Subobject) -> bool:
        return p.mask & ~q.mask == 0

    def meet(self, p: Subobject, q: Subobject) -> Subobject:
        """Intersection, the pullback of the two inclusions."""
        return self._by_mask[p.mask & q.mask]

    def join(self, p: Subobject, q: Subobject) -> Subobject:
        """Image of the copairing of the two inclusions."""
        cp = copair(p.rep, q.rep)
        fac = image_factorization(cp)
        carrier = set(v for (_, v) in fac.m_part.mapping)
        return self._by_mask[self.ambient.mask_of(carrier)]

    def is_distributive(self) -> bool:
        for p in self.subs:
            for q in self.subs:
                for r in self.subs:
                    lhs = self.meet(p, self.join(q, r))
                    rhs = self.join(self.meet(p, q), self.meet(p, r))
                    if lhs != rhs:
                        return False
        return True


def enumerate_subobjects(sys: FactorizationSystem, x: FiniteObject) -> SubobjectLattice:
    """All subsets whose canonical inclusion lies in M, smallest first.

    The inclusion built for the membership test is not kept on the
    subobject, so a cached lattice holds labels only."""
    subs = []
    for mask in range(1 << x.size):
        labels = x.labels_of(mask)
        if sys.in_m(inclusion(x.restrict(labels), x)):
            subs.append(Subobject(x, labels))
    subs.sort(key=lambda s: (s.size, s.elements))
    return SubobjectLattice(x, tuple(subs))


def iota_map(sum_sub: Subobject) -> tuple[Subobject, Subobject]:
    """Componentwise preimage of a subobject of a constructed coproduct."""
    x, y = split_coproduct(sum_sub.ambient)
    left = tuple(e[len(LEFT_TAG):] for e in sum_sub.elements if e.startswith(LEFT_TAG))
    right = tuple(e[len(RIGHT_TAG):] for e in sum_sub.elements if e.startswith(RIGHT_TAG))
    return Subobject(x, left), Subobject(y, right)


def L_map(sub: Subobject, y: FiniteObject) -> Subobject:
    """Left extension: a subobject of X viewed inside X+Y (bottom on Y)."""
    amb = coproduct(sub.ambient, y).ob
    return Subobject(amb, tuple(LEFT_TAG + e for e in sub.elements))


def R_map(x: FiniteObject, sub: Subobject) -> Subobject:
    """Right extension: a subobject of Y viewed inside X+Y (bottom on X)."""
    amb = coproduct(x, sub.ambient).ob
    return Subobject(amb, tuple(RIGHT_TAG + e for e in sub.elements))


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
    preimages = [(p, p.mask & low, p.mask >> nx) for p in lat_xy]

    def outcomes():
        for m in lat_x:
            for n in lat_y:
                join_mask = m.mask | (n.mask << nx)
                for p, pl, pr in preimages:
                    lhs = join_mask & ~p.mask == 0
                    rhs = m.mask & ~pl == 0 and n.mask & ~pr == 0
                    yield None if lhs == rhs else {
                        "m": serialize_subobject(m), "n": serialize_subobject(n),
                        "p": serialize_subobject(p), "lhs": lhs, "rhs": rhs}

    return Report(f"adjunction[{x.label},{y.label}]", (
        CheckResult.of("extension_preimage_adjunction", outcomes()),))
