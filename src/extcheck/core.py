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
        order = None if self.order is None else frozenset(tuple(p) for p in self.order)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_hash", hash((elements, order)))  # keys caches
        if order is None:
            return
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

    def __hash__(self) -> int:
        return self._hash

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

    def image_mask(self, mask: int) -> int:
        return image_bits(mask, self.idx)

    def preimage_mask(self, mask: int) -> int:
        return preimage_bits(mask, self.idx)


def image_bits(mask: int, idx) -> int:
    """The direct image of `mask` under the index table `idx`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << idx[low.bit_length() - 1]
        mask ^= low
    return out


def preimage_bits(mask: int, idx) -> int:
    """The inverse image of `mask` under the index table `idx`."""
    return sum(1 << i for i, t in enumerate(idx) if mask >> t & 1)


def points(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of `mask`, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def morphism_of(x: FiniteObject, y: FiniteObject, idx) -> Morphism:
    """The map x -> y with the index table `idx`."""
    return Morphism(x, y, tuple(zip(x.elements, (y.elements[t] for t in idx))))


def monotone_table(idx, src_up, tgt_up) -> bool:
    """Whether the index table `idx` is monotone from up-masks `src_up` to
    `tgt_up`; vacuous unless both ends are ordered (not None)."""
    return src_up is None or tgt_up is None or all(
        not image_bits(row, idx) & ~tgt_up[idx[i]] for i, row in enumerate(src_up))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.target != g.source:
        raise ValueError("morphisms not composable")
    return Morphism(f.source, g.target, tuple((k, g.table[v]) for (k, v) in f.mapping))


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


def image_parts(idx) -> tuple[int, tuple[int, ...]]:
    """Image factorization of an index table: the image mask, and the
    corestriction onto the image as a table into its points."""
    mask = 0
    for t in idx:
        mask |= 1 << t
    return mask, tuple((mask & ((1 << t) - 1)).bit_count() for t in idx)


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


def split_coproduct(ob: FiniteObject) -> tuple[FiniteObject, FiniteObject]:
    """Recover the two summands of a constructed coproduct by stripping tags."""
    if not all(e.startswith((LEFT_TAG, RIGHT_TAG)) for e in ob.elements):
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
    rows = []
    for a1, b1 in pairs:
        row_x, row_y, row = rows_x[a1], rows_y[b1], 0
        for l, (a2, b2) in enumerate(pairs):
            if row_x >> a2 & 1 and row_y >> b2 & 1:
                row |= 1 << l
        rows.append(row)
    return tuple(rows)


def _pair_carrier(x: FiniteObject, y: FiniteObject,
                  pairs) -> tuple[list[str], frozenset | None]:
    """The labels "(a,b)" of the index pairs `pairs` of x and y, in pair
    order, and their componentwise order (None unless both are ordered)."""
    labels = [pair_label(x.elements[a], y.elements[b]) for a, b in pairs]
    order = None
    if x.has_order and y.has_order:
        up = componentwise(pairs, x.up_masks, y.up_masks)
        order = frozenset((labels[k], labels[l]) for k, row in enumerate(up)
                          for l in points(row))
    return labels, order


def _pair_object(x: FiniteObject, y: FiniteObject, pairs, name: str) -> Product:
    """The object on the index pairs `pairs` of x and y, labelled "(a,b)"
    and ordered componentwise, with its two projections."""
    labels, order = _pair_carrier(x, y, pairs)
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


def pullback_object(x: FiniteObject, y: FiniteObject, pairs) -> FiniteObject:
    """`pullback(f, g).ob` for f out of x and g out of y, from its index
    pairs (`pullback_pairs(f.idx, g.idx)`), with no map built."""
    labels, order = _pair_carrier(x, y, pairs)
    return FiniteObject(tuple(labels), order, name=f"pb({x.label},{y.label})")


def _monotone_constraints(k: int, src_up, tgt_up) -> list[list[tuple]]:
    """Per point i of a k-point source, a pair (j, rows) for each earlier
    point j comparable with i: wherever j goes, at t, a monotone map sends i
    into the mask rows[t] of the target.  From the up-masks of both ends;
    no constraints when either end is unordered (None)."""
    constraints: list[list[tuple]] = [[] for _ in range(k)]
    if src_up is None or tgt_up is None:
        return constraints
    n = len(tgt_up)
    tgt_down = tuple(sum(1 << s for s in range(n) if tgt_up[s] >> t & 1)
                     for t in range(n))
    both = tuple(u & d for u, d in zip(tgt_up, tgt_down))
    for i in range(k):
        for j in range(i):
            below, above = src_up[j] >> i & 1, src_up[i] >> j & 1
            if below or above:
                rows = both if below and above else tgt_up if below else tgt_down
                constraints[i].append((j, rows))
    return constraints


def _monotone_maps(x: FiniteObject, y: FiniteObject,
                   injective: bool) -> Iterator[tuple[int, ...]]:
    """The index tables of the monotone maps x -> y, only the injective ones
    if `injective`, in lexicographic order, each yielded when reached."""
    n = x.size
    constraints = _monotone_constraints(n, up_masks_or_none(x), up_masks_or_none(y))
    assign = [0] * n

    def extend(i: int, free: int):
        if i == n:
            yield tuple(assign)
            return
        allowed = free
        for j, rows in constraints[i]:
            allowed &= rows[assign[j]]
        while allowed:
            low = allowed & -allowed
            assign[i] = low.bit_length() - 1
            yield from extend(i + 1, free ^ low if injective else free)
            allowed ^= low

    return extend(0, (1 << y.size) - 1)


@lru_cache(maxsize=None)
def count_monotone(src_up: tuple[int, ...], n: int, tgt_up: tuple[int, ...]) -> int:
    """The number of monotone maps from the preorder with up-masks `src_up`
    into the n-point preorder with up-masks `tgt_up`, by the depth-first
    search of `_monotone_maps` on index masks, counting the choices for the
    last point instead of visiting them."""
    k = len(src_up)
    if k == 0:
        return 1
    constraints = _monotone_constraints(k, src_up, tgt_up)
    assign = [0] * k

    def count(i: int) -> int:
        allowed = (1 << n) - 1
        for j, rows in constraints[i]:
            allowed &= rows[assign[j]]
        if i == k - 1:
            return allowed.bit_count()
        total = 0
        while allowed:
            low = allowed & -allowed
            assign[i] = low.bit_length() - 1
            total += count(i + 1)
            allowed ^= low
        return total

    return count(0)


@lru_cache(maxsize=None)
def clopen_splits(up_masks: tuple[int, ...]) -> tuple[int, ...]:
    """The masks of the subsets of a preorder, given by its up-masks, that
    are both up- and down-closed, ascending.  These are the unions of the
    components of its comparability graph, so the empty object has the one
    split 0.  A monotone map into a sum X + Y, with no order between the
    blocks, is exactly such a split P with maps P -> X and its complement
    -> Y."""
    n = len(up_masks)
    linked = [up | sum(1 << i for i in range(n) if up_masks[i] >> j & 1)
              for j, up in enumerate(up_masks)]
    splits = [0]
    seen = 0
    for i in range(n):
        if seen >> i & 1:
            continue
        comp, grown = 0, 1 << i
        while grown != comp:
            comp = grown
            for j in points(comp):
                grown |= linked[j]
        seen |= comp
        splits += [p | comp for p in splits]
    return tuple(sorted(splits))


@lru_cache(maxsize=None)
def enumerate_morphisms(x: FiniteObject, y: FiniteObject) -> tuple[Morphism, ...]:
    """All morphisms x -> y in lexicographic order over lookup tables, cached
    for the process; the program reads `Context.hom_tables` instead."""
    return tuple(morphism_of(x, y, t) for t in _monotone_maps(x, y, False))


def monotone_bijections(x: FiniteObject, y: FiniteObject) -> Iterator[tuple[int, ...]]:
    """The index tables of all bijective morphisms x -> y (monotone, not
    necessarily iso), in lexicographic order."""
    if x.size == y.size:
        yield from _monotone_maps(x, y, True)


def is_isomorphic(x: FiniteObject, y: FiniteObject) -> bool:
    """Whether some monotone bijection x -> y exists and both orders have
    as many pairs, when it reflects the order (see `is_iso`)."""
    return (x.has_order == y.has_order
            and (not x.has_order or len(x.order) == len(y.order))
            and next(monotone_bijections(x, y), None) is not None)


def first_counterexample(outcomes: Iterable) -> tuple[bool, object, int]:
    """(ok, witness, count) of a check written as a generator of outcomes,
    in enumeration order: None for one instance that holds, an `int` k for
    a run of k instances that all hold, anything else (a `bool` included)
    for the witness of one instance that fails.  Consumes `outcomes` up to
    the first witness and never past it, so `count` is the number of
    instances enumerated up to and including the first counterexample."""
    # `count` counts outcomes; `runs` adds what runs hold beyond one each,
    # so that a None costs one test, as without runs.
    count = runs = 0
    for count, outcome in enumerate(outcomes, 1):
        if outcome is not None:
            if outcome.__class__ is not int:
                return False, outcome, count + runs
            runs += outcome - 1
    return True, None, count + runs


def count_instances(outcomes: Iterable) -> int:
    """The number of instances `outcomes` holds, as `first_counterexample`
    counts them: k for a run of k, one for any other outcome.  Finishes the
    count of a side past its first witness."""
    return sum(o if o.__class__ is int else 1 for o in outcomes)


def supersets(masks, n: int):
    """The map from a mask j over n points to the bitset of the positions k
    with j inside masks[k]: `masks` bit-transposed into per-point columns,
    bit k of column i set when masks[k] contains point i, ANDed over j's
    points."""
    # Column i reads every n-th binary digit of the masks, last mask first.
    spec = f"0{n}b"
    digits = "".join([format(mask, spec) for mask in reversed(masks)])
    cols = [int("0" + digits[n - 1 - i::n], 2) for i in range(n)]
    full = (1 << len(masks)) - 1

    def meet(j: int) -> int:
        out = full
        while j:
            low = j & -j
            out &= cols[low.bit_length() - 1]
            j ^= low
        return out
    return meet


def runs_around(marked: int, size: int, instance) -> Iterator:
    """Outcomes of a row of `size` instances of which only the positions set
    in `marked` may fail: a run for each stretch between them, and at each
    marked position k `instance(k)`, that instance decided literally."""
    start = 0
    while marked:
        k = (marked & -marked).bit_length() - 1
        if k > start:
            yield k - start
        yield instance(k)
        start, marked = k + 1, marked & marked - 1
    if size > start:
        yield size - start


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
