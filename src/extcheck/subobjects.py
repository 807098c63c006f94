"""Admissible subobjects: their lattices as masks, and their label form.

A subobject of X is kept in canonical inclusion form, as a subset of X's
carrier.  A `SubobjectLattice` is X together with the masks of its
admissible subsets: every subset under the two builtin M classes, which
admit every inclusion with its induced order, and otherwise those whose
inclusion table, grown from its parent's, the system accepts.  Under the
image factorization of every system, meet is intersection and join is
union, so the checkers compute on masks alone: a sum a + b is admissible
when its mask `a | b << |X|` is admissible in the constructed sum X + Y.
A label-level `Subobject` is built only to serialize a witness; `image`,
`sum_subobjects` and `iota_map` are its label-level operations, and
`tests/oracles.py` keeps `preimage` and `restriction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations

from .core import (
    CheckResult,
    FiniteObject,
    Morphism,
    Report,
    compose,
    coproduct,
    embedding_table,
    inclusion,
    injective_table,
    runs_around,
    split_coproduct,
    supersets,
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


@dataclass(frozen=True, eq=False)
class SubobjectLattice:
    """The admissible subobjects of one object, as masks over its carrier,
    smallest first, then by labels.  A witness builds its `Subobject` from
    `ambient`, which names it."""

    ambient: FiniteObject
    masks: tuple[int, ...]

    def __iter__(self):
        return iter(self.masks)

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.masks)


@cache
def _every_subset(n: int) -> tuple[int, ...]:
    """Every mask over n points, smallest first, then in points order."""
    return tuple(sum(1 << p for p in pts) for k in range(n + 1)
                 for pts in combinations(range(n), k))


def subobject_lattice(sys: FactorizationSystem, x: FiniteObject) -> SubobjectLattice:
    """The subsets of x whose inclusion tables (points, induced up-masks,
    |x|, x's up-masks) `sys.m_table` accepts, smallest first, then in
    points order.

    When `sys.m_table` is one of the builtin M classes, `injective_table`
    or `embedding_table`, that is every subset, with no table decided: the
    inclusion of a subset with its induced order is injective, and
    order-reflecting because the induced order is defined by i <= j in
    the subset exactly when i <= j in x.  The guard compares by identity with the names `contexts`
    builds its systems from, so it holds wherever both bindings are
    rebound to one wrapper (`perfbench/tracer.py`).  Any other system,
    mutant or wrapped, decides each subset on its table, grown from its
    parent's in O(k), a size at a time."""
    if sys.m_table is injective_table or sys.m_table is embedding_table:
        return SubobjectLattice(x, _every_subset(x.size))
    n, up = x.size, x.up_masks
    level, masks = [((), 0, None if up is None else ())], []
    while level:
        level, parents = [], level
        for pts, mask, rows in parents:
            if sys.m_table(pts, rows, n, up):
                masks.append(mask)
            k = len(pts)
            for p in range(mask.bit_length(), n):
                child = rows if rows is None else (
                    *(r | (up[q] >> p & 1) << k for r, q in zip(rows, pts)),
                    sum(1 << i for i, q in enumerate(pts) if up[p] >> q & 1)
                    | (up[p] >> p & 1) << k)
                level.append(((*pts, p), mask | 1 << p, child))
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


def adjunction_outcomes(us, vs, ws, nx: int, n: int, close, describe):
    """Outcomes of the adjunction close(u | v << nx) <= w  iff  u <= w & low
    and v <= w >> nx, for every u of `us`, v of `vs` and w of `ws`, masks
    over the first nx, the last n - nx and all n points of a sum: u-major,
    then v, then w, `describe(u, v, w, lhs, rhs)` giving a failure.

    Each (u, v) row is decided against every w at once: each side's set of
    w is an AND of bitsets (`supersets`), the left side's that of the w
    above u and of those above v << nx when `close` fixes the join, else
    that of those above its closure.  Only where the sets differ is a
    triple decided literally."""
    low = (1 << nx) - 1
    above = supersets(ws, n)
    lefts = supersets([w & low for w in ws], nx)
    rights = supersets([w >> nx for w in ws], n - nx)
    rows_v = [(v, above(v << nx), rights(v)) for v in vs]

    def instance(u, v, closed, k):
        w = ws[k]
        lhs = closed & ~w == 0
        rhs = u & ~(w & low) == 0 and v & ~(w >> nx) == 0
        return None if lhs == rhs else describe(u, v, w, lhs, rhs)

    for u in us:
        above_u, left_u = above(u), lefts(u)
        for v, above_v, right_v in rows_v:
            join = u | v << nx
            closed = close(join)
            lhs = above_u & above_v if closed == join else above(closed)
            yield from runs_around(lhs ^ left_u & right_v, len(ws),
                                   partial(instance, u, v, closed))


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
    factorization of every system: `adjunction_outcomes` with no closure.
    Its two sets of p are equal for any masks, since the preimages' columns
    are the sum's own, so the check cannot fail.
    """
    x, y, amb = lat_x.ambient, lat_y.ambient, lat_xy.ambient
    if amb.elements != tuple(LEFT_TAG + e for e in x.elements) + tuple(
            RIGHT_TAG + e for e in y.elements):
        raise ValueError(f"{amb.label} is not the constructed sum "
                         f"of {x.label} and {y.label}")

    def describe(m, n, p, lhs, rhs):
        return {"m": serialize_subobject(subobject_from_mask(x, m)),
                "n": serialize_subobject(subobject_from_mask(y, n)),
                "p": serialize_subobject(subobject_from_mask(amb, p)),
                "lhs": lhs, "rhs": rhs}

    return Report(f"adjunction[{x.label},{y.label}]", (
        CheckResult.of("extension_preimage_adjunction", adjunction_outcomes(
            lat_x, lat_y, lat_xy.masks, x.size, amb.size, lambda j: j, describe)),))
