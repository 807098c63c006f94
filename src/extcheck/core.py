"""Finite objects, morphisms, and limit/colimit constructions.

Objects are sorted tuples of string labels, optionally carrying a preorder
(a reflexive transitive relation), kept as up-masks over the labels: bit j
of row i set when point i <= point j.  The label pairs of the order, its
index pairs and its down-masks are derived from the masks when read, for
serialization and the label-level code.  Morphisms are total lookup tables
with their index tables, checked for monotonicity on the masks when both
endpoints carry an order.  Constructions work on masks and pick canonical
labels ("L:"/"R:" tags for coproduct elements, "(a,b)" pairs for pullback
and product elements), so building the same thing twice yields equal values
and every enumeration is reproducible.  A coproduct keeps its injections as
index tables and builds them as morphisms only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

LEFT_TAG = "L:"
RIGHT_TAG = "R:"


def transitive_rows(rows) -> bool:
    """Whether the relation with row masks `rows` is transitive: each row
    holds the rows of its points."""
    for ri in rows:
        m = ri
        while m:
            low = m & -m
            if rows[low.bit_length() - 1] & ~ri:
                return False
            m ^= low
    return True


@dataclass(frozen=True, init=False)
class FiniteObject:
    """A finite set of distinct string labels, optionally preordered.

    `elements` are sorted.  `up_masks` is None for the unordered flavor and
    otherwise the order as up-masks over `elements`: up_masks[i] has bit j
    set iff element i <= element j.  `FiniteObject(elements, order, name)`
    builds it from labels in any order and a frozenset of label pairs
    (None unordered); `of_masks` from ascending labels and up-masks.  Both
    run `__post_init__`, which checks the order on the masks.  `order`,
    `order_idx` and `down_masks` are derived when read.  Equality and the
    hash are on (elements, up_masks); `name` is cosmetic and ignored by
    both.
    """

    elements: tuple[str, ...]
    up_masks: tuple[int, ...] | None
    name: str = field(default="", compare=False)

    def __init__(self, elements: Iterable[str], order=None, name: str = ""):
        elements = tuple(sorted(elements))
        if len(set(elements)) != len(elements):
            raise ValueError(f"duplicate labels in carrier: {elements}")
        up = None
        if order is not None:
            index = {e: i for i, e in enumerate(elements)}
            rows = [0] * len(elements)
            outside = []
            for a, b in order:
                if a in index and b in index:
                    rows[index[a]] |= 1 << index[b]
                else:
                    outside.append((a, b))
            if outside:
                # The least offending pair, so that no message depends on
                # the iteration order of a frozenset (the hash seed).
                a, b = min(outside)
                raise ValueError(f"order pair ({a},{b}) outside carrier")
            up = tuple(rows)
        self._fill(elements, up, name)

    @classmethod
    def of_masks(cls, elements: tuple[str, ...], up_masks, name: str = "") -> "FiniteObject":
        """The object on the strictly ascending labels `elements` whose order
        has the up-masks `up_masks` over them (None unordered)."""
        ob = cls.__new__(cls)
        ob._fill(elements, None if up_masks is None else tuple(up_masks), name)
        return ob

    def _fill(self, elements, up_masks, name) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "up_masks", up_masks)
        object.__setattr__(self, "name", name)
        self.__post_init__()

    def __post_init__(self):
        elements, up = self.elements, self.up_masks
        if any(a >= b for a, b in zip(elements, elements[1:])):
            if len(set(elements)) != len(elements):
                raise ValueError(f"duplicate labels in carrier: {elements}")
            raise ValueError(f"carrier labels not ascending: {elements}")
        object.__setattr__(self, "_hash", hash((elements, up)))  # keys caches
        if up is None:
            return
        n = len(elements)
        if len(up) != n or any(row >> n for row in up):
            raise ValueError(f"up-masks {up} do not fit a carrier of {n} points")
        # Errors name the least offending pair: the labels are sorted, so
        # the least index pair.
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise ValueError(
                    f"order not reflexive: missing ({elements[i]},{elements[i]})")
        if not transitive_rows(up):
            i, k, j = min((i, k, j) for i, row in enumerate(up)
                          for j in points(row) for k in points(up[j] & ~row))
            raise ValueError(f"order not transitive: missing "
                             f"({elements[i]},{elements[k]}) via {elements[j]}")

    def __hash__(self) -> int:
        return self._hash

    @property
    def has_order(self) -> bool:
        return self.up_masks is not None

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
    def order(self) -> frozenset[tuple[str, str]] | None:
        """The order as the frozenset of label pairs (a, b), a <= b; None
        for the unordered flavor."""
        if self.up_masks is None:
            return None
        e = self.elements
        return frozenset((e[i], e[j]) for i, j in self.order_idx)

    @cached_property
    def order_idx(self) -> frozenset[tuple[int, int]]:
        assert self.up_masks is not None
        return frozenset((i, j) for i, row in enumerate(self.up_masks)
                         for j in points(row))

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[j] has bit i set iff element i <= element j."""
        up = self.up_masks
        return tuple(sum(1 << i for i, row in enumerate(up) if row >> j & 1)
                     for j in range(len(up)))

    def restrict(self, labels) -> "FiniteObject":
        """Full subobject on `labels` with the induced order."""
        keep = set(labels)
        assert keep <= set(self.elements), f"{keep - set(self.elements)} not in carrier"
        pts = [i for i, e in enumerate(self.elements) if e in keep]
        up = None if self.up_masks is None else restrict_masks(self.up_masks, pts)
        return FiniteObject.of_masks(tuple(self.elements[i] for i in pts), up)

    def mask_of(self, labels) -> int:
        m = 0
        for e in labels:
            m |= 1 << self.index[e]
        return m

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if (mask >> i) & 1)


def order_size(x: FiniteObject) -> int:
    """The number of pairs of x's order (x ordered)."""
    return sum(row.bit_count() for row in x.up_masks)


@dataclass(frozen=True)
class Morphism:
    """A total map between finite objects, stored as a sorted lookup table,
    with `idx`, its index table: idx[i] the target index of the image of
    source element i."""

    source: FiniteObject
    target: FiniteObject
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self):
        mapping = tuple(sorted(tuple(p) for p in self.mapping))
        object.__setattr__(self, "mapping", mapping)
        keys = tuple(k for k, _ in mapping)
        if keys != self.source.elements:
            raise ValueError(f"table keys {keys} do not match source carrier")
        tix = self.target.index
        for (_, v) in mapping:
            if v not in tix:
                raise ValueError(f"table value {v} outside target carrier")
        idx = tuple(tix[v] for (_, v) in mapping)
        object.__setattr__(self, "idx", idx)
        src_up, tgt_up = self.source.up_masks, self.target.up_masks
        if not monotone_table(idx, src_up, tgt_up):
            # The least failing pair, so the message does not depend on
            # the iteration order of a frozenset (the hash seed); the
            # labels are sorted, so the least index pair.
            i, j = min((i, j) for i, row in enumerate(src_up) for j in points(row)
                       if not tgt_up[idx[i]] >> idx[j] & 1)
            src, tgt = self.source.elements, self.target.elements
            raise ValueError(f"not monotone: {src[i]}<={src[j]} but "
                             f"{tgt[idx[i]]}<={tgt[idx[j]]} fails")

    @cached_property
    def table(self) -> dict[str, str]:
        return dict(self.mapping)

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
        return order_size(f.source) == order_size(f.target)
    return True


def initial(ordered: bool) -> FiniteObject:
    return FiniteObject.of_masks((), () if ordered else None, name="0")


def terminal(ordered: bool) -> FiniteObject:
    return FiniteObject.of_masks(("*",), (1,) if ordered else None, name="1")


def inclusion(sub: FiniteObject, ambient: FiniteObject) -> Morphism:
    return Morphism(sub, ambient, tuple((e, e) for e in sub.elements))


@dataclass(frozen=True, eq=False)
class Coproduct:
    """A sum `ob` of `left` and `right` with its two injections as index
    tables into it, `inl_idx` and `inr_idx`; the injections as morphisms,
    `inl` and `inr`, are built when first read."""

    ob: FiniteObject
    left: FiniteObject
    right: FiniteObject
    inl_idx: tuple[int, ...]
    inr_idx: tuple[int, ...]

    @cached_property
    def inl(self) -> Morphism:
        return morphism_of(self.left, self.ob, self.inl_idx)

    @cached_property
    def inr(self) -> Morphism:
        return morphism_of(self.right, self.ob, self.inr_idx)


def coproduct(x: FiniteObject, y: FiniteObject) -> Coproduct:
    """Tagged disjoint union: x's labels tagged "L:", then y's tagged "R:",
    which keeps them sorted, each summand's up-masks on its own block (y's
    shifted by |x|), and the injections onto the two blocks."""
    if x.has_order != y.has_order:
        raise ValueError("cannot mix ordered and unordered objects")
    nx = x.size
    elements = tuple(LEFT_TAG + e for e in x.elements) + tuple(
        RIGHT_TAG + e for e in y.elements)
    up = None if x.up_masks is None else x.up_masks + tuple(
        row << nx for row in y.up_masks)
    ob = FiniteObject.of_masks(elements, up, name=f"({x.label}+{y.label})")
    return Coproduct(ob, x, y, tuple(range(nx)), tuple(range(nx, nx + y.size)))


def split_coproduct(ob: FiniteObject) -> tuple[FiniteObject, FiniteObject]:
    """Recover the two summands of a constructed coproduct by stripping
    tags: the "L:" labels sort first, and each summand keeps the order
    within its block."""
    if not all(e.startswith((LEFT_TAG, RIGHT_TAG)) for e in ob.elements):
        raise ValueError(f"{ob.label} is not a constructed coproduct")
    nl = sum(1 for e in ob.elements if e.startswith(LEFT_TAG))
    left = tuple(e[len(LEFT_TAG):] for e in ob.elements[:nl])
    right = tuple(e[len(RIGHT_TAG):] for e in ob.elements[nl:])
    up_l = up_r = None
    if ob.has_order:
        low = (1 << nl) - 1
        up_l = tuple(row & low for row in ob.up_masks[:nl])
        up_r = tuple(row >> nl for row in ob.up_masks[nl:])
    return FiniteObject.of_masks(left, up_l), FiniteObject.of_masks(right, up_r)


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
                  pairs) -> tuple[list[str], tuple | None, list[int]]:
    """The labels "(a,b)" of the index pairs `pairs` of x and y, sorted,
    the up-masks of their componentwise order over them (None unless both
    are ordered), and per label the position of its pair in `pairs`.  The
    labels need not sort in pair order: a label with a character that
    sorts before "," (as "a+" does) sorts its pairs before those of its
    prefix "a"."""
    labels = [pair_label(x.elements[a], y.elements[b]) for a, b in pairs]
    up = None
    if x.has_order and y.has_order:
        up = componentwise(pairs, x.up_masks, y.up_masks)
    at = list(range(len(pairs)))
    if any(p >= q for p, q in zip(labels, labels[1:])):
        at.sort(key=labels.__getitem__)
        labels = [labels[k] for k in at]
        if up is not None:
            rank = [0] * len(at)
            for r, k in enumerate(at):
                rank[k] = r
            up = tuple(sum(1 << rank[l] for l in points(up[k])) for k in at)
    return labels, up, at


def _pair_object(x: FiniteObject, y: FiniteObject, pairs, name: str) -> Product:
    """The object on the index pairs `pairs` of x and y, labelled "(a,b)"
    and ordered componentwise, with its two projections."""
    labels, up, at = _pair_carrier(x, y, pairs)
    ob = FiniteObject.of_masks(tuple(labels), up, name=name)
    p1 = morphism_of(ob, x, [pairs[k][0] for k in at])
    p2 = morphism_of(ob, y, [pairs[k][1] for k in at])
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
    labels, up, _ = _pair_carrier(x, y, pairs)
    return FiniteObject.of_masks(tuple(labels), up, name=f"pb({x.label},{y.label})")


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
    constraints = _monotone_constraints(n, x.up_masks, y.up_masks)
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
            and (not x.has_order or order_size(x) == order_size(y))
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
