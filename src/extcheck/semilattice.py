"""Join-semilattices with zero, their homomorphisms, and biproducts.

Subobject lattices and closed-subobject lattices of a binary sum split as a
biproduct in the category of join-semilattices: injections given by closure
of the tagged embedding, projections by component restriction.  This module
materializes those lattices over bitmasks, each read off a context's cached
closure function on masks (`Context.closure`), verifies the biproduct
equations, and provides the 2x2 matrix calculus for homs between binary
sums.  The biproduct checker builds them literally only for a sum that its
product certificate does not settle (`theorems._product_certified`).

A hom is a plain index table (`Table`) between two lattices the caller
holds, the biproduct structure maps included.  `enumerate_homs` assigns the
join-irreducibles depth-first and checks join-preservation on generator
equations only; `count_homs` runs the same search and counts the tables
without building them.  `matrix_roundtrip` returns the positions of the
tables t for which `matrix_to_hom(hom_matrix(t)) != t`, through the round
trip precomposed once per biproduct.  It decides a whole (source, target)
pair at once when two guards hold (`every_hom_roundtrips`): each source
point k is the join of its pair (l, r), and the target's precomposed round
trip is its join table.  Then t[k] = t[l] v t[r] for a hom t, which is the
round trip's entry k, so every hom round-trips, and the checker needs only
their number; only when a guard fails are the tables enumerated and
compared one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .core import CheckResult, FiniteObject, Report
from .closure import ClosureFamily, MaskFn

@dataclass(eq=False)
class JoinSemilattice:
    """Finite join-semilattice with least element, as an explicit join table."""

    join: tuple[tuple[int, ...], ...]
    zero: int

    def __post_init__(self):
        n = self.n
        assert all(len(row) == n for row in self.join)
        for i in range(n):
            if self.join[i][self.zero] != i or self.join[i][i] != i:
                raise ValueError("zero not neutral or join not idempotent")
            for j in range(n):
                if self.join[i][j] != self.join[j][i]:
                    raise ValueError("join not commutative")

    @property
    def n(self) -> int:
        return len(self.join)

    def leq(self, i: int, j: int) -> bool:
        return self.join[i][j] == j

    @cached_property
    def associative(self) -> bool:
        """Checked on demand, not on construction: it costs n**3, and most
        lattices are never enumerated over."""
        join, rng = self.join, range(self.n)
        return all(join[join[a][b]][c] == join[a][join[b][c]]
                   for a in rng for b in rng for c in rng)

    @cached_property
    def irreducibles(self) -> tuple[int, ...]:
        """The join-irreducible elements, ascending: not the zero and not
        the join of two elements strictly below."""
        out = []
        for j in range(self.n):
            if j == self.zero:
                continue
            strictly_below = [a for a in range(self.n)
                              if a != j and self.leq(a, j)]
            if not any(self.join[a][b] == j
                       for a in strictly_below for b in strictly_below):
                out.append(j)
        return tuple(out)


def lattice_from_masks(masks: Sequence[int], join_mask,
                       zero_mask: int) -> JoinSemilattice:
    """Build a semilattice from distinct masks and a mask-level join."""
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    table = tuple(
        tuple(index[join_mask(masks[i], masks[j])] for j in range(n))
        for i in range(n))
    return JoinSemilattice(table, index[zero_mask])


def closed_semilattice(fn: MaskFn,
                       all_masks: Iterable[int]) -> tuple[JoinSemilattice, tuple[int, ...]]:
    """`fn`-closed masks: join = closure of union, zero = closure of empty."""
    masks = tuple(m for m in all_masks if fn(m) == m)
    return lattice_from_masks(masks, lambda a, b: fn(a | b), fn(0)), masks


# A hom between two given lattices: the image of each source index.
Table = tuple[int, ...]


def is_hom(src: JoinSemilattice, tgt: JoinSemilattice, t: Table) -> bool:
    """Whether t preserves the zero and every binary join."""
    return t[src.zero] == tgt.zero and all(
        t[src.join[i][j]] == tgt.join[t[i]][t[j]]
        for i in range(src.n) for j in range(i + 1, src.n))


def identity_hom(lat: JoinSemilattice) -> Table:
    return tuple(range(lat.n))


def zero_hom(src: JoinSemilattice, tgt: JoinSemilattice) -> Table:
    return (tgt.zero,) * src.n


def compose_homs(g: Table, h: Table) -> Table:
    """g after h."""
    return tuple(g[t] for t in h)


def join_homs(tgt: JoinSemilattice, h1: Table, h2: Table) -> Table:
    """The pointwise join, in `tgt`, of two homs into it."""
    return tuple(tgt.join[a][b] for a, b in zip(h1, h2))


def enumerate_homs(src: JoinSemilattice,
                   tgt: JoinSemilattice) -> tuple[Table, ...]:
    """All join-zero homomorphisms as index tables, in lexicographic order
    of their values on the join-irreducibles of `src`.

    A hom is determined by its values on the irreducibles, which it maps
    monotonically, and its table is t[x] = join of the values of the
    irreducibles below x.  The irreducibles are assigned depth-first in
    ascending order, each value ascending, with t kept as a running table:
    assigning irreducible q joins its value into t[x] for the x above q.
    The order constraints of q are tested when q is assigned.

    Join-preservation is tested on the generator equations
    t[x | p] == t[x] | t[p] alone, for x a point and p an irreducible not
    below x, each at the first depth where every irreducible below x | p
    has its value (t is final there), so a failure cuts the whole subtree.
    They imply every join equation: each y is the join of the irreducibles
    p1..pm below it, and by induction on k, t[x | p1 | .. | pk] ==
    t[x] | t[p1] | .. | t[pk], by a generator equation when p(k+1) is not
    below x | p1 | .. | pk and by monotonicity of the running table (t[z]
    is a join over the irreducibles below z, p(k+1) among them) when it
    is; as t[y] is the join of t[p1] .. t[pm], t[x | y] == t[x] | t[y].
    An equation holds by construction, and is not tested, when the
    irreducibles below x | p are those below x or below p (always so in a
    distributive lattice, and for x the zero).  The argument needs both
    joins associative, so a non-associative table is refused; t[zero] is
    zero by construction.
    """
    out: list[Table] = []
    _search(src, tgt, out)
    return tuple(out)


def count_homs(src: JoinSemilattice, tgt: JoinSemilattice) -> int:
    """len(enumerate_homs(src, tgt)), by the same search, building no table.

    The search reaches one complete table per assignment that passes.
    Once no irreducible left has an order constraint (one between two
    irreducibles is tested when the later is assigned) or an equation,
    every value passes at every depth left, so the k left are counted as
    tgt.n ** k.  In a Boolean lattice, such as every lattice of all
    subsets, that holds from the first irreducible on."""
    return _search(src, tgt, None)


def _search(src: JoinSemilattice, tgt: JoinSemilattice, out) -> int:
    """The depth-first search of `enumerate_homs`: the number of homs, each
    table appended to `out` unless it is None."""
    if not (src.associative and tgt.associative):
        raise ValueError("join not associative")
    irr, sj, n = src.irreducibles, src.join, src.n
    below = [frozenset(d for d, q in enumerate(irr) if src.leq(q, y))
             for y in range(n)]
    steps = []
    for d, q in enumerate(irr):
        above = tuple(x for x in range(n) if d in below[x])
        lower = tuple(p for p in range(d) if src.leq(irr[p], q))
        upper = tuple(p for p in range(d) if src.leq(q, irr[p]))
        # t[y] is final once the last irreducible below y has its value
        equations = tuple(
            (sj[x][p], x, p) for x in range(n) for e, p in enumerate(irr)
            if e not in below[x] and max(below[sj[x][p]]) == d
            and below[sj[x][p]] != below[x] | below[p])
        steps.append((above, lower, upper, equations))
    if not steps:
        if out is not None:
            out.append((tgt.zero,) * n)
        return 1
    # When counting, the tables from depth `free` on are counted as a power:
    # no irreducible there has an order constraint or an equation.
    free = len(steps)
    while out is None and free and not any(steps[free - 1][1:]):
        free -= 1
    return _assign(0, [tgt.zero] * n, [0] * len(irr), steps, tgt.join, out, free)


def _assign(d: int, t: list[int], values: list[int], steps, tj, out,
            free: int) -> int:
    """Give irreducible d each target value in turn, extend the running
    table `t` and recurse; the number of complete tables, each appended to
    `out` unless it is None.  From depth `free` on every value passes, so
    the tables are counted as a power.  A module-level function, not a
    closure that calls itself, so no reference cycle keeps a finished
    enumeration alive."""
    if d == free:
        return len(tj) ** (len(steps) - d)
    above, lower, upper, equations = steps[d]
    last = d + 1 == len(steps)
    found = 0
    for v in range(len(tj)):
        if (lower or upper) and (
                any(tj[values[p]][v] != v for p in lower)
                or any(tj[v][values[p]] != values[p] for p in upper)):
            continue
        u = t.copy()
        for x in above:
            u[x] = tj[u[x]][v]
        if equations and any(u[y] != tj[u[x]][u[p]] for y, x, p in equations):
            continue
        if last:
            found += 1
            if out is not None:
                out.append(tuple(u))
        else:
            values[d] = v
            found += _assign(d + 1, u, values, steps, tj, out, free)
    return found


@dataclass(eq=False)
class Biproduct:
    left: JoinSemilattice
    right: JoinSemilattice
    total: JoinSemilattice
    inj_l: Table
    inj_r: Table
    proj_l: Table
    proj_r: Table
    report: Report

    @property
    def passed(self) -> bool:
        return self.report.passed

    # What a round trip reads of a biproduct, precomposed on first use.
    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """As source: each point k's (inj_l[proj_l[k]], inj_r[proj_r[k]])."""
        return tuple((self.inj_l[a], self.inj_r[b])
                     for a, b in zip(self.proj_l, self.proj_r))

    @cached_property
    def pairs_rejoin(self) -> bool:
        """As source: whether each point k is the join of its `pairs`."""
        join = self.total.join
        return all(join[a][b] == k for k, (a, b) in enumerate(self.pairs))

    @cached_property
    def joint(self) -> tuple[Table, ...]:
        """As target: inj_l . proj_l and inj_r . proj_r joined for every
        pair of values (u, w), in `matrix_to_hom`'s association order."""
        join = self.total.join
        left = [self.inj_l[m] for m in self.proj_l]
        right = [self.inj_r[m] for m in self.proj_r]
        return tuple(tuple(join[join[join[left[u]][left[w]]][right[u]]][right[w]]
                           for w in range(len(join))) for u in range(len(join)))


def verify_biproduct(left: JoinSemilattice, right: JoinSemilattice,
                     total: JoinSemilattice, inj_l: Table, inj_r: Table,
                     proj_l: Table, proj_r: Table) -> Report:
    """The four retraction/vanishing equations plus the joint identity."""
    checks = []
    endpoints_ok = (len(inj_l) == left.n and len(inj_r) == right.n
                    and len(proj_l) == len(proj_r) == total.n)
    checks.append(CheckResult("endpoints_consistent", endpoints_ok, 1, None))
    valid = endpoints_ok and (
        is_hom(left, total, inj_l) and is_hom(right, total, inj_r)
        and is_hom(total, left, proj_l) and is_hom(total, right, proj_r))
    checks.append(CheckResult("maps_are_homs", valid, 4, None))
    if endpoints_ok:
        checks.append(CheckResult(
            "projection_retracts_own_injection",
            compose_homs(proj_l, inj_l) == identity_hom(left)
            and compose_homs(proj_r, inj_r) == identity_hom(right), 2, None))
        checks.append(CheckResult(
            "projection_kills_other_injection",
            compose_homs(proj_l, inj_r) == zero_hom(right, left)
            and compose_homs(proj_r, inj_l) == zero_hom(left, right), 2, None))
        joint = join_homs(total, compose_homs(inj_l, proj_l),
                          compose_homs(inj_r, proj_r))
        checks.append(CheckResult(
            "joint_identity", joint == identity_hom(total), 1, None))
    return Report("biproduct", tuple(checks))


def closed_biproduct(ctx, family: ClosureFamily, x: FiniteObject,
                     y: FiniteObject) -> Biproduct:
    """Closed lattices of the sum x + y of the context `ctx` under `family`:
    inject by closing the placed mask, project by splitting; zero is the
    closure of empty.  The admissible masks are `ctx.sub_lattice`'s, read
    for x, then y, then the sum, and the closures `ctx.closure`'s.  Under
    `IDENTITY` every admissible subobject is closed, so that entry is
    Sub(X+Y) as the biproduct of Sub(X) and Sub(Y)."""
    sum_ob = ctx.coproduct(x, y).ob
    lat_x, lat_y, lat_xy = (ctx.sub_lattice(ob) for ob in (x, y, sum_ob))
    fx, fy, fxy = (ctx.closure(family, ob) for ob in (x, y, sum_ob))
    kx, masks_x = closed_semilattice(fx, lat_x)
    ky, masks_y = closed_semilattice(fy, lat_y)
    kxy, masks_xy = closed_semilattice(fxy, lat_xy)
    nx = x.size
    low = (1 << nx) - 1
    idx_xy = {m: i for i, m in enumerate(masks_xy)}
    idx_x = {m: i for i, m in enumerate(masks_x)}
    idx_y = {m: i for i, m in enumerate(masks_y)}
    inj_l = tuple(idx_xy[fxy(m)] for m in masks_x)
    inj_r = tuple(idx_xy[fxy(m << nx)] for m in masks_y)
    proj_l = tuple(idx_x[m & low] for m in masks_xy)
    proj_r = tuple(idx_y[m >> nx] for m in masks_xy)
    report = verify_biproduct(kx, ky, kxy, inj_l, inj_r, proj_l, proj_r)
    return Biproduct(kx, ky, kxy, inj_l, inj_r, proj_l, proj_r, report)


Matrix = tuple[tuple[Table, Table], tuple[Table, Table]]


def hom_matrix(bp_src: Biproduct, bp_tgt: Biproduct, t: Table) -> Matrix:
    """2x2 matrix of the hom with table `t` between totals: entry [i][j]
    is the table of proj_i . t . inj_j, from source component j to target
    component i."""
    assert len(t) == bp_src.total.n
    inj_l, inj_r = bp_src.inj_l, bp_src.inj_r
    proj_l, proj_r = bp_tgt.proj_l, bp_tgt.proj_r
    return (
        (tuple(proj_l[t[k]] for k in inj_l), tuple(proj_l[t[k]] for k in inj_r)),
        (tuple(proj_r[t[k]] for k in inj_l), tuple(proj_r[t[k]] for k in inj_r)),
    )


def matrix_to_hom(bp_src: Biproduct, bp_tgt: Biproduct, matrix: Matrix) -> Table:
    """Table of the joint extension of a 2x2 matrix of component tables:
    the join of inj_i . m[i][j] . proj_j over the four entries."""
    (m_ll, m_lr), (m_rl, m_rr) = matrix
    inj_l, inj_r = bp_tgt.inj_l, bp_tgt.inj_r
    join = bp_tgt.total.join
    return tuple(
        join[join[join[inj_l[m_ll[a]]][inj_l[m_lr[b]]]][inj_r[m_rl[a]]]][inj_r[m_rr[b]]]
        for a, b in zip(bp_src.proj_l, bp_src.proj_r))


def every_hom_roundtrips(bp_src: Biproduct, bp_tgt: Biproduct) -> bool:
    """Both guards of `matrix_roundtrip`: each source point k is the join
    of its pair (l, r), and the target's `joint` is its join table.  Then
    every hom t between the two totals round-trips, as t[k] is
    T.join[t[l]][t[r]], which is the round trip's entry k."""
    return bp_src.pairs_rejoin and bp_tgt.joint == bp_tgt.total.join


def matrix_roundtrip(bp_src: Biproduct, bp_tgt: Biproduct,
                     homs: Sequence[Table]) -> list[int]:
    """The ascending positions of the tables t in `homs` for which
    matrix_to_hom(hom_matrix(t)) != t.

    Entry k of the round trip of t is the target's `joint` at (t[l], t[r])
    for the source's pair (l, r) of point k, so each value equals
    `matrix_to_hom`'s by construction, and the answer depends only on the
    tables, `bp_src.pairs` and `bp_tgt.joint`.

    Two guards decide every table at once, each a finite check that does
    not assume the biproduct report passed.  When the source's pair of each
    point k joins back to k (`bp_src.pairs_rejoin`), t[k] is
    T.join[t[l]][t[r]], as t preserves binary joins; when the target's
    `joint` is its total's join table as well, that is the round trip's
    entry, so every t round-trips and the answer is [] (`every_hom_roundtrips`).
    The argument needs each table in `homs` to be a hom: `enumerate_homs`
    yields only homs, and so do identity and zero tables.  When a guard
    fails, each table is compared point by point."""
    if every_hom_roundtrips(bp_src, bp_tgt):
        return []
    joint, pairs = bp_tgt.joint, bp_src.pairs
    return [k for k, t in enumerate(homs)
            if [joint[t[a]][t[b]] for a, b in pairs] != list(t)]
