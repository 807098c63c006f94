"""Finite label-based objects, morphisms, and limit/colimit constructions.

Objects are sorted tuples of string labels, optionally carrying a preorder
(a reflexive transitive relation) as a frozenset of pairs.  Morphisms are
total lookup tables, checked for monotonicity when both endpoints carry an
order.  Constructions pick canonical labels ("L:"/"R:" tags for coproduct
elements, "(a,b)" pairs for pullback and product elements) so building the
same thing twice yields equal values and every enumeration is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

LEFT_TAG = "L:"
RIGHT_TAG = "R:"


def transitive_closure(pairs: set[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for (c, d) in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return frozenset(closed)


def make_preorder(elements, pairs=()) -> frozenset[tuple[str, str]]:
    """Smallest preorder on `elements` containing `pairs`."""
    base = {(e, e) for e in elements} | set(tuple(p) for p in pairs)
    return transitive_closure(base)


@dataclass(frozen=True)
class FiniteObject:
    """A finite set of distinct string labels, optionally preordered.

    `order` is None for the unordered flavor and a reflexive transitive
    frozenset of label pairs otherwise.  `name` is cosmetic and ignored by
    equality and hashing.
    """

    elements: tuple[str, ...]
    order: frozenset[tuple[str, str]] | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        elements = tuple(sorted(self.elements))
        object.__setattr__(self, "elements", elements)
        if len(set(elements)) != len(elements):
            raise ValueError(f"duplicate labels in carrier: {elements}")
        if self.order is None:
            return
        order = frozenset(tuple(p) for p in self.order)
        object.__setattr__(self, "order", order)
        # Errors name the least offending pair, so that no message depends
        # on the iteration order of a frozenset (the hash seed).
        universe = set(elements)
        outside = [(a, b) for (a, b) in order
                   if a not in universe or b not in universe]
        if outside:
            a, b = min(outside)
            raise ValueError(f"order pair ({a},{b}) outside carrier")
        for e in elements:
            if (e, e) not in order:
                raise ValueError(f"order not reflexive: missing ({e},{e})")
        missing = [(a, d, b) for (a, b) in order for (c, d) in order
                   if b == c and (a, d) not in order]
        if missing:
            a, d, b = min(missing)
            raise ValueError(f"order not transitive: missing ({a},{d}) via {b}")

    @property
    def has_order(self) -> bool:
        return self.order is not None

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def label(self) -> str:
        return self.name or "{" + ",".join(self.elements) + "}"

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def order_idx(self) -> frozenset[tuple[int, int]]:
        assert self.order is not None
        idx = self.index
        return frozenset((idx[a], idx[b]) for (a, b) in self.order)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[i] has bit j set iff element i <= element j."""
        masks = [0] * self.size
        for (i, j) in self.order_idx:
            masks[i] |= 1 << j
        return tuple(masks)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[j] has bit i set iff element i <= element j."""
        masks = [0] * self.size
        for (i, j) in self.order_idx:
            masks[j] |= 1 << i
        return tuple(masks)

    def restrict(self, labels) -> "FiniteObject":
        """Full subobject on `labels` with the induced order."""
        keep = set(labels)
        assert keep <= set(self.elements), f"{keep - set(self.elements)} not in carrier"
        order = None
        if self.order is not None:
            order = frozenset((a, b) for (a, b) in self.order if a in keep and b in keep)
        return FiniteObject(tuple(sorted(keep)), order)

    def mask_of(self, labels) -> int:
        m = 0
        for e in labels:
            m |= 1 << self.index[e]
        return m

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if (mask >> i) & 1)


@dataclass(frozen=True)
class Morphism:
    """A total map between finite objects, stored as a sorted lookup table."""

    source: FiniteObject
    target: FiniteObject
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self):
        mapping = tuple(sorted(tuple(p) for p in self.mapping))
        object.__setattr__(self, "mapping", mapping)
        keys = tuple(k for k, _ in mapping)
        if keys != self.source.elements:
            raise ValueError(f"table keys {keys} do not match source carrier")
        tgt = set(self.target.elements)
        for (_, v) in mapping:
            if v not in tgt:
                raise ValueError(f"table value {v} outside target carrier")
        if self.source.has_order and self.target.has_order:
            tab = dict(mapping)
            order = self.target.order
            bad = [(a, b) for (a, b) in self.source.order
                   if (tab[a], tab[b]) not in order]
            if bad:
                # The least failing pair, so the message does not depend on
                # the iteration order of a frozenset (the hash seed).
                a, b = min(bad)
                raise ValueError(
                    f"not monotone: {a}<={b} but {tab[a]}<={tab[b]} fails")

    @cached_property
    def table(self) -> dict[str, str]:
        return dict(self.mapping)

    @cached_property
    def idx(self) -> tuple[int, ...]:
        """idx[i] = target index of the image of source element i."""
        tix = self.target.index
        return tuple(tix[v] for (_, v) in self.mapping)

    def __call__(self, label: str) -> str:
        return self.table[label]

    def image_mask(self, mask: int) -> int:
        return image_bits(mask, self.idx)

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i, t in enumerate(self.idx):
            if (mask >> t) & 1:
                out |= 1 << i
        return out

    @cached_property
    def image_labels(self) -> tuple[str, ...]:
        return tuple(sorted(set(v for (_, v) in self.mapping)))


def image_bits(mask: int, idx) -> int:
    """The direct image of `mask` under the index table `idx`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << idx[low.bit_length() - 1]
        mask ^= low
    return out


def points(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of `mask`, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def identity(x: FiniteObject) -> Morphism:
    return Morphism(x, x, tuple((e, e) for e in x.elements))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.target != g.source:
        raise ValueError("morphisms not composable")
    return Morphism(f.source, g.target, tuple((k, g.table[v]) for (k, v) in f.mapping))


def compose_idx(g: Morphism, f: Morphism) -> tuple[int, ...]:
    """Index table of g after f, without building the Morphism."""
    gi = g.idx
    return tuple(gi[t] for t in f.idx)


def up_masks_or_none(x: FiniteObject) -> tuple[int, ...] | None:
    return x.up_masks if x.has_order else None


def down_or_discrete(x: FiniteObject) -> tuple[int, ...]:
    """Down-masks of x's order; of the discrete order when it has none."""
    return x.down_masks if x.has_order else tuple(1 << i for i in range(x.size))


def restrict_masks(masks, pts) -> tuple[int, ...]:
    """The rows of `masks` (an order's up- or down-masks) at the points
    `pts`, in increasing order, renumbered over those points."""
    return tuple(sum(1 << r for r, j in enumerate(pts) if masks[i] >> j & 1)
                 for i in pts)


def table_of(f: Morphism) -> tuple:
    """(index table, source up-masks, target size, target up-masks) of f,
    the arguments of the table-level class predicates below; the up-masks
    are None for the unordered flavor."""
    return (f.idx, up_masks_or_none(f.source), f.target.size,
            up_masks_or_none(f.target))


def injective_table(idx, src_up, n, tgt_up) -> bool:
    return len(set(idx)) == len(idx)


def surjective_table(idx, src_up, n, tgt_up) -> bool:
    return len(set(idx)) == n


def order_reflecting_table(idx, src_up, tgt_up) -> bool:
    """i <= j in the source whenever idx[i] <= idx[j] in the target;
    vacuous unless both ends are ordered."""
    if src_up is None or tgt_up is None:
        return True
    for i, t in enumerate(idx):
        up = tgt_up[t]
        above = 0
        for j, s in enumerate(idx):
            if (up >> s) & 1:
                above |= 1 << j
        if above & ~src_up[i]:
            return False
    return True


def embedding_table(idx, src_up, n, tgt_up) -> bool:
    """Injective and order-reflecting; plain injectivity when unordered."""
    return (injective_table(idx, src_up, n, tgt_up)
            and order_reflecting_table(idx, src_up, tgt_up))


# Neither reads the orders, so neither builds (and caches) up-masks.
def is_injective(f: Morphism) -> bool:
    return injective_table(f.idx, None, f.target.size, None)


def is_surjective(f: Morphism) -> bool:
    return surjective_table(f.idx, None, f.target.size, None)


def is_iso(f: Morphism) -> bool:
    # A monotone bijection reflects the order as soon as the two orders have
    # the same number of pairs, since injectivity makes the image of the
    # source order a subset of equal size.
    if not (is_injective(f) and is_surjective(f)):
        return False
    if f.source.has_order and f.target.has_order:
        return len(f.source.order) == len(f.target.order)
    return True


def initial(ordered: bool) -> FiniteObject:
    return FiniteObject((), frozenset() if ordered else None, name="0")


def terminal(ordered: bool) -> FiniteObject:
    order = frozenset({("*", "*")}) if ordered else None
    return FiniteObject(("*",), order, name="1")


def inclusion(sub: FiniteObject, ambient: FiniteObject) -> Morphism:
    return Morphism(sub, ambient, tuple((e, e) for e in sub.elements))


class Coproduct(NamedTuple):
    ob: FiniteObject
    inl: Morphism
    inr: Morphism


def coproduct(x: FiniteObject, y: FiniteObject) -> Coproduct:
    """Tagged disjoint union; injections are literal inclusions up to tagging."""
    if x.has_order != y.has_order:
        raise ValueError("cannot mix ordered and unordered objects")
    elements = tuple(LEFT_TAG + e for e in x.elements) + tuple(
        RIGHT_TAG + e for e in y.elements)
    order = None
    if x.has_order:
        order = frozenset(
            {(LEFT_TAG + a, LEFT_TAG + b) for (a, b) in x.order}
            | {(RIGHT_TAG + a, RIGHT_TAG + b) for (a, b) in y.order})
    ob = FiniteObject(elements, order, name=f"({x.label}+{y.label})")
    inl = Morphism(x, ob, tuple((e, LEFT_TAG + e) for e in x.elements))
    inr = Morphism(y, ob, tuple((e, RIGHT_TAG + e) for e in y.elements))
    return Coproduct(ob, inl, inr)


def is_coproduct_carrier(ob: FiniteObject) -> bool:
    return all(e.startswith(LEFT_TAG) or e.startswith(RIGHT_TAG) for e in ob.elements)


def split_coproduct(ob: FiniteObject) -> tuple[FiniteObject, FiniteObject]:
    """Recover the two summands of a constructed coproduct by stripping tags."""
    if not is_coproduct_carrier(ob):
        raise ValueError(f"{ob.label} is not a constructed coproduct")
    left = [e[len(LEFT_TAG):] for e in ob.elements if e.startswith(LEFT_TAG)]
    right = [e[len(RIGHT_TAG):] for e in ob.elements if e.startswith(RIGHT_TAG)]
    order_l = order_r = None
    if ob.has_order:
        order_l = frozenset(
            (a[len(LEFT_TAG):], b[len(LEFT_TAG):]) for (a, b) in ob.order
            if a.startswith(LEFT_TAG) and b.startswith(LEFT_TAG))
        order_r = frozenset(
            (a[len(RIGHT_TAG):], b[len(RIGHT_TAG):]) for (a, b) in ob.order
            if a.startswith(RIGHT_TAG) and b.startswith(RIGHT_TAG))
    return (FiniteObject(tuple(left), order_l), FiniteObject(tuple(right), order_r))


def copair(f: Morphism, g: Morphism, sum_ob: FiniteObject | None = None) -> Morphism:
    """The map out of f.source + g.source agreeing with f on the left and g
    on the right.  `sum_ob` lets a caller supply a differently ordered carrier
    with the same tagged labels."""
    if f.target != g.target:
        raise ValueError("copair needs a common target")
    src = coproduct(f.source, g.source).ob if sum_ob is None else sum_ob
    mapping = tuple((LEFT_TAG + k, v) for (k, v) in f.mapping) + tuple(
        (RIGHT_TAG + k, v) for (k, v) in g.mapping)
    return Morphism(src, f.target, mapping)


def sum_morphisms(f: Morphism, g: Morphism,
                  src_sum: FiniteObject | None = None,
                  tgt_sum: FiniteObject | None = None) -> Morphism:
    """f + g between the constructed coproducts."""
    src = coproduct(f.source, g.source).ob if src_sum is None else src_sum
    tgt = coproduct(f.target, g.target).ob if tgt_sum is None else tgt_sum
    mapping = tuple((LEFT_TAG + k, LEFT_TAG + v) for (k, v) in f.mapping) + tuple(
        (RIGHT_TAG + k, RIGHT_TAG + v) for (k, v) in g.mapping)
    return Morphism(src, tgt, mapping)


class Product(NamedTuple):
    ob: FiniteObject
    p1: Morphism
    p2: Morphism


def pair_label(a: str, b: str) -> str:
    return f"({a},{b})"


def pullback_pairs(f_idx, g_idx) -> list[tuple[int, int]]:
    """The points (a, b) of the pullback of two index tables into one
    target, f_idx[a] == g_idx[b]: a-major, then b ascending."""
    return [(a, b) for a, s in enumerate(f_idx) for b, t in enumerate(g_idx)
            if s == t]


def componentwise(pairs, rows_x, rows_y) -> tuple[int, ...]:
    """Row masks of the componentwise relation on the index pairs `pairs`:
    row k has bit l set when row a_k of `rows_x` has bit a_l and row b_k
    of `rows_y` has bit b_l.  Up-masks in give up-masks out, down-masks
    give down-masks."""
    return tuple(sum(1 << l for l, (a2, b2) in enumerate(pairs)
                     if rows_x[a1] >> a2 & 1 and rows_y[b1] >> b2 & 1)
                 for a1, b1 in pairs)


def _pair_object(x: FiniteObject, y: FiniteObject, pairs, name: str) -> Product:
    """The object on the index pairs `pairs` of x and y, labelled "(a,b)"
    and ordered componentwise, with its two projections."""
    labels = [pair_label(x.elements[a], y.elements[b]) for a, b in pairs]
    order = None
    if x.has_order and y.has_order:
        up = componentwise(pairs, x.up_masks, y.up_masks)
        order = frozenset((labels[k], labels[l]) for k, row in enumerate(up)
                          for l in points(row))
    ob = FiniteObject(tuple(labels), order, name=name)
    p1 = Morphism(ob, x, tuple(zip(labels, (x.elements[a] for a, _ in pairs))))
    p2 = Morphism(ob, y, tuple(zip(labels, (y.elements[b] for _, b in pairs))))
    return Product(ob, p1, p2)


def product(x: FiniteObject, y: FiniteObject) -> Product:
    if x.has_order != y.has_order:
        raise ValueError("cannot mix ordered and unordered objects")
    pairs = [(a, b) for a in range(x.size) for b in range(y.size)]
    return _pair_object(x, y, pairs, f"({x.label}x{y.label})")


def pullback(f: Morphism, g: Morphism) -> Product:
    """Apex of f and g over their common target, as pairs (a,b) with
    f(a) = g(b), ordered componentwise."""
    if f.target != g.target:
        raise ValueError("cospan legs must share their target")
    return _pair_object(f.source, g.source, pullback_pairs(f.idx, g.idx),
                        f"pb({f.source.label},{g.source.label})")


def equalizer(f: Morphism, g: Morphism) -> Morphism:
    """Inclusion of the agreement subobject of two parallel morphisms."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("equalizer needs parallel morphisms")
    keep = [e for e in f.source.elements if f.table[e] == g.table[e]]
    return inclusion(f.source.restrict(keep), f.source)


def kernel_pair(f: Morphism) -> Product:
    return pullback(f, f)


def _monotone_maps(x: FiniteObject, y: FiniteObject,
                   injective: bool) -> list[Morphism]:
    """The monotone maps x -> y, only the injective ones if `injective`, in
    lexicographic order over lookup tables."""
    n, m = x.size, y.size
    ordered = x.has_order and y.has_order
    y_up = y.up_masks if ordered else ()
    constraints: list[list[tuple[int, bool, bool]]] = [[] for _ in range(n)]
    if ordered:
        for i in range(n):
            for j in range(i):
                fw = (j, i) in x.order_idx
                bw = (i, j) in x.order_idx
                if fw or bw:
                    constraints[i].append((j, fw, bw))
    assign = [0] * n
    used = [False] * m
    out: list[Morphism] = []

    def extend(i: int):
        if i == n:
            mapping = tuple((x.elements[k], y.elements[assign[k]]) for k in range(n))
            out.append(Morphism(x, y, mapping))
            return
        for t in range(m):
            if used[t]:
                continue
            ok = True
            for (j, fw, bw) in constraints[i]:
                tj = assign[j]
                if fw and not ((y_up[tj] >> t) & 1):
                    ok = False
                    break
                if bw and not ((y_up[t] >> tj) & 1):
                    ok = False
                    break
            if ok:
                assign[i] = t
                used[t] = injective
                extend(i + 1)
                used[t] = False

    extend(0)
    return out


@lru_cache(maxsize=None)
def enumerate_morphisms(x: FiniteObject, y: FiniteObject) -> tuple[Morphism, ...]:
    """All morphisms x -> y in lexicographic order over lookup tables."""
    return tuple(_monotone_maps(x, y, False))


def monotone_bijections(x: FiniteObject, y: FiniteObject) -> Iterator[Morphism]:
    """All bijective morphisms x -> y (monotone, not necessarily iso)."""
    if x.size == y.size:
        yield from _monotone_maps(x, y, True)


def find_iso(x: FiniteObject, y: FiniteObject) -> Morphism | None:
    """First isomorphism x -> y in enumeration order, or None."""
    if x.size != y.size or x.has_order != y.has_order:
        return None
    if x.has_order and len(x.order) != len(y.order):
        return None
    for f in monotone_bijections(x, y):
        if is_iso(f):
            return f
    return None


def is_isomorphic(x: FiniteObject, y: FiniteObject) -> bool:
    return find_iso(x, y) is not None


def first_counterexample(outcomes: Iterable) -> tuple[bool, object, int]:
    """(ok, witness, count) of a check written as a generator of outcomes,
    one per instance in enumeration order: None when the instance holds, a
    witness when it fails.  Consumes `outcomes` up to the first witness and
    never past it, so `count` is the number of instances enumerated up to
    and including the first counterexample."""
    count = 0
    for count, outcome in enumerate(outcomes, 1):
        if outcome is not None:
            return False, outcome, count
    return True, None, count


@dataclass(frozen=True)
class CheckResult:
    id: str
    passed: bool
    checked: int = 0
    witness: dict | None = None

    @classmethod
    def of(cls, check_id: str, outcomes: Iterable) -> "CheckResult":
        """The check whose instances yield `outcomes`, run through
        `first_counterexample`."""
        ok, witness, count = first_counterexample(outcomes)
        return cls(check_id, ok, count, witness)


@dataclass(frozen=True)
class Report:
    """Outcome of a validation run: a named bundle of individual checks."""

    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"id": c.id, "passed": c.passed, "checked": c.checked,
                 "witness": c.witness}
                for c in self.checks],
        }


def serialize_object(ob: FiniteObject) -> dict:
    out: dict = {"name": ob.label, "elements": list(ob.elements)}
    if ob.order is not None:
        out["order"] = sorted([a, b] for (a, b) in ob.order)
    return out


def serialize_morphism(f: Morphism) -> dict:
    return {
        "source": serialize_object(f.source),
        "target": serialize_object(f.target),
        "map": {k: v for (k, v) in f.mapping},
    }
