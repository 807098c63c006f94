"""Construction-level laws for finite objects and morphisms."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from extcheck.core import (
    FiniteObject,
    Morphism,
    LEFT_TAG,
    RIGHT_TAG,
    compose,
    copair,
    componentwise,
    coproduct,
    down_or_discrete,
    enumerate_morphisms,
    equalizer,
    find_iso,
    identity,
    initial,
    is_injective,
    is_iso,
    is_isomorphic,
    is_surjective,
    kernel_pair,
    make_preorder,
    monotone_bijections,
    order_reflecting_table,
    pair_label,
    product,
    pullback,
    pullback_pairs,
    split_coproduct,
    sum_morphisms,
    terminal,
    transitive_closure,
)


def discrete(*labels):
    return FiniteObject(tuple(labels), frozenset((e, e) for e in labels))


def plain(*labels):
    return FiniteObject(tuple(labels), None)


SIERPINSKI = FiniteObject(("s0", "s1"), make_preorder(("s0", "s1"), [("s0", "s1")]))
CHAIN3 = FiniteObject(("c0", "c1", "c2"),
                      make_preorder(("c0", "c1", "c2"),
                                    [("c0", "c1"), ("c1", "c2")]))


def test_transitive_closure_adds_composites():
    got = transitive_closure({("a", "b"), ("b", "c")})
    assert ("a", "c") in got
    assert ("c", "a") not in got


def test_order_must_be_transitive():
    with pytest.raises(ValueError, match=r"missing \(a,c\) via b"):
        FiniteObject(("a", "b", "c"),
                     frozenset([("a", "a"), ("b", "b"), ("c", "c"),
                                ("a", "b"), ("b", "c")]))


def test_order_must_be_reflexive():
    with pytest.raises(ValueError):
        FiniteObject(("a", "b"), frozenset([("a", "a"), ("a", "b")]))


def test_elements_are_sorted_and_names_do_not_affect_equality():
    x = FiniteObject(("b", "a"), None, name="first")
    y = FiniteObject(("a", "b"), None, name="second")
    assert x.elements == ("a", "b")
    assert x == y
    assert hash(x) == hash(y)


def test_morphism_totality_and_codomain_are_enforced():
    x, y = plain("a", "b"), plain("u")
    with pytest.raises(ValueError):
        Morphism(x, y, (("a", "u"),))
    with pytest.raises(ValueError):
        Morphism(x, y, (("a", "u"), ("b", "v")))


def test_morphism_monotonicity_is_enforced():
    up = Morphism(SIERPINSKI, CHAIN3, (("s0", "c0"), ("s1", "c2")))
    assert up.table["s1"] == "c2"
    with pytest.raises(ValueError, match="not monotone"):
        Morphism(SIERPINSKI, CHAIN3, (("s0", "c2"), ("s1", "c0")))


def test_compose_and_identity():
    x, y = plain("a", "b"), plain("u", "v")
    f = Morphism(x, y, (("a", "u"), ("b", "v")))
    assert compose(f, identity(x)) == f
    assert compose(identity(y), f) == f
    g = Morphism(y, x, (("u", "b"), ("v", "a")))
    gf = compose(g, f)
    assert gf.table == {"a": "b", "b": "a"}


def test_iso_needs_order_reflection():
    dis = discrete("d0", "d1")
    f = Morphism(dis, SIERPINSKI, (("d0", "s0"), ("d1", "s1")))
    assert is_injective(f) and is_surjective(f)
    assert not order_reflecting_table(f.idx, dis.up_masks, SIERPINSKI.up_masks)
    assert not is_iso(f)
    auto = identity(SIERPINSKI)
    assert is_iso(auto)


def test_initial_and_terminal():
    zero, one = initial(True), terminal(True)
    assert zero.size == 0 and one.size == 1
    x = SIERPINSKI
    assert len(enumerate_morphisms(zero, x)) == 1
    assert len(enumerate_morphisms(x, one)) == 1
    assert len(enumerate_morphisms(x, zero)) == 0


def test_coproduct_tags_and_split():
    cp = coproduct(SIERPINSKI, discrete("d0"))
    assert cp.ob.elements == (LEFT_TAG + "s0", LEFT_TAG + "s1", RIGHT_TAG + "d0")
    assert ("L:s0", "L:s1") in cp.ob.order
    assert ("L:s0", "R:d0") not in cp.ob.order
    left, right = split_coproduct(cp.ob)
    assert left == SIERPINSKI
    assert right == discrete("d0")


def test_copair_satisfies_universal_property():
    x, y, z = plain("a"), plain("u", "v"), plain("p", "q")
    f = Morphism(x, z, (("a", "p"),))
    g = Morphism(y, z, (("u", "q"), ("v", "p")))
    cp = coproduct(x, y)
    h = copair(f, g)
    assert compose(h, cp.inl) == f
    assert compose(h, cp.inr) == g
    others = [k for k in enumerate_morphisms(cp.ob, z)
              if compose(k, cp.inl) == f and compose(k, cp.inr) == g]
    assert others == [h]


def test_sum_of_morphisms_acts_blockwise():
    f = Morphism(SIERPINSKI, SIERPINSKI, (("s0", "s0"), ("s1", "s0")))
    g = identity(discrete("d0"))
    s = sum_morphisms(f, g)
    assert s.table == {"L:s0": "L:s0", "L:s1": "L:s0", "R:d0": "R:d0"}


def test_product_universal_property():
    x, y = plain("a", "b"), plain("u")
    pr = product(x, y)
    assert pr.ob.size == 2
    z = plain("w")
    to_x = Morphism(z, x, (("w", "b"),))
    to_y = Morphism(z, y, (("w", "u"),))
    mediators = [m for m in enumerate_morphisms(z, pr.ob)
                 if compose(pr.p1, m) == to_x and compose(pr.p2, m) == to_y]
    assert len(mediators) == 1


def test_product_order_is_componentwise():
    pr = product(SIERPINSKI, SIERPINSKI)
    assert pr.ob.size == 4
    assert sum(1 for _ in pr.ob.order) == 9


def test_pullback_carves_matching_pairs():
    z = plain("p", "q")
    x = plain("a", "b")
    y = plain("u")
    f = Morphism(x, z, (("a", "p"), ("b", "q")))
    g = Morphism(y, z, (("u", "p"),))
    pb = pullback(f, g)
    assert pb.ob.size == 1
    assert compose(f, pb.p1) == compose(g, pb.p2)
    # universal property at this instance
    w = plain("t")
    to_x = Morphism(w, x, (("t", "a"),))
    to_y = Morphism(w, y, (("t", "u"),))
    mediators = [m for m in enumerate_morphisms(w, pb.ob)
                 if compose(pb.p1, m) == to_x and compose(pb.p2, m) == to_y]
    assert len(mediators) == 1


def _cospans(pool):
    homs = [f for x in pool for y in pool for f in enumerate_morphisms(x, y)]
    for f in homs:
        for g in homs:
            if f.target == g.target:
                yield f, g


def _assert_pair_object(x, y, pairs, ob, p1, p2):
    """`ob` is the object on the index pairs `pairs` of x and y, ordered
    componentwise as `componentwise` gives it on up- and on down-masks,
    and p1, p2 are its projections; every relation is checked on labels."""
    labels = [pair_label(x.elements[a], y.elements[b]) for a, b in pairs]
    assert sorted(labels) == list(ob.elements)
    assert [p1(s) for s in labels] == [x.elements[a] for a, _ in pairs]
    assert [p2(s) for s in labels] == [y.elements[b] for _, b in pairs]
    if not (x.has_order and y.has_order):
        assert ob.order is None
        discrete = componentwise(pairs, down_or_discrete(x), down_or_discrete(y))
        assert discrete == tuple(1 << k for k in range(len(pairs)))
        return
    up = componentwise(pairs, x.up_masks, y.up_masks)
    down = componentwise(pairs, x.down_masks, y.down_masks)
    assert down == componentwise(pairs, down_or_discrete(x), down_or_discrete(y))
    for k, (a1, b1) in enumerate(pairs):
        for j, (a2, b2) in enumerate(pairs):
            below = (x.elements[a1], x.elements[a2]) in x.order and (
                y.elements[b1], y.elements[b2]) in y.order
            assert ((labels[k], labels[j]) in ob.order) == below
            assert bool(up[k] >> j & 1) == below
            assert bool(down[j] >> k & 1) == below


@pytest.mark.parametrize("flavour", ["finset-3", "finpre-2-extras"])
def test_pullback_primitives_match_the_label_level_pullback(flavour):
    # Every cospan of the pool: `pullback_pairs` lists the pairs (a, b) of
    # labels with f(a) = g(b), a-major, and `core.pullback` is the object
    # on them, ordered componentwise, with its projections.  The product
    # of every two pool objects is the object on all pairs.
    from extcheck.contexts import finpre_objects, finset_objects
    from test_golden_reports import WORKLOAD_EXTRAS

    pool = (finset_objects(3) if flavour == "finset-3"
            else finpre_objects(2) + WORKLOAD_EXTRAS)
    cospans = 0
    for f, g in _cospans(pool):
        x, y = f.source, g.source
        pairs = pullback_pairs(f.idx, g.idx)
        assert [(x.elements[a], y.elements[b]) for a, b in pairs] == [
            (a, b) for a in x.elements for b in y.elements if f(a) == g(b)]
        _assert_pair_object(x, y, pairs, *pullback(f, g))
        cospans += 1
    for x in pool:
        for y in pool:
            pairs = [(a, b) for a in range(x.size) for b in range(y.size)]
            _assert_pair_object(x, y, pairs, *product(x, y))
    assert cospans > 1000


def test_equalizer_picks_agreement_set():
    x = plain("a", "b", "c")
    y = plain("u", "v")
    f = Morphism(x, y, (("a", "u"), ("b", "v"), ("c", "u")))
    g = Morphism(x, y, (("a", "u"), ("b", "u"), ("c", "v")))
    eq = equalizer(f, g)
    assert eq.source.elements == ("a",)
    assert compose(f, eq) == compose(g, eq)


def test_kernel_pair_size_of_fold():
    two = discrete("d0", "d1")
    cp = coproduct(two, two)
    fold = copair(identity(two), identity(two), cp.ob)
    kp = kernel_pair(fold)
    assert kp.ob.size == 8


def test_enumerate_morphisms_counts():
    # plain maps: |Y|^|X|
    assert len(enumerate_morphisms(plain("a", "b"), plain("u", "v", "w"))) == 9
    # monotone endomaps of the two-point chain
    assert len(enumerate_morphisms(SIERPINSKI, SIERPINSKI)) == 3
    # monotone maps from the chain into the three-chain
    assert len(enumerate_morphisms(SIERPINSKI, CHAIN3)) == 6


def test_enumerate_morphisms_is_deterministic_and_sorted():
    ms = enumerate_morphisms(plain("a", "b"), plain("u", "v"))
    tables = [tuple(m.table[e] for e in ("a", "b")) for m in ms]
    assert tables == sorted(tables)


def test_enumerators_match_a_literal_table_sweep():
    """Both enumerators share one backtracker: each must give, in
    lexicographic table order, exactly the tables of all |Y|^|X| candidates
    that are monotone (and bijective, for `monotone_bijections`)."""
    import itertools

    from extcheck.contexts import finpre_objects, finset_objects

    for pool in (finset_objects(3), finpre_objects(3)):
        for x, y in itertools.product(pool, repeat=2):
            literal = []
            for values in itertools.product(y.elements, repeat=x.size):
                try:
                    literal.append(Morphism(x, y, tuple(zip(x.elements, values))))
                except ValueError:
                    pass
            # Uncached: the cache is keyed by object equality, which ignores
            # names, so filling it here would rename later witnesses.
            assert enumerate_morphisms.__wrapped__(x, y) == tuple(literal)
            bijective = [f for f in literal
                         if x.size == y.size and is_injective(f)]
            assert list(monotone_bijections(x, y)) == bijective


def test_monotone_bijections_and_find_iso():
    a = FiniteObject(("x", "y"), make_preorder(("x", "y"), [("x", "y")]))
    assert is_isomorphic(a, SIERPINSKI)
    iso = find_iso(a, SIERPINSKI)
    assert iso is not None and is_iso(iso)
    dis = discrete("d0", "d1")
    assert not is_isomorphic(dis, SIERPINSKI)
    assert find_iso(dis, SIERPINSKI) is None
    bijs = list(monotone_bijections(dis, dis))
    assert len(bijs) == 2


def test_restrict_induces_order():
    sub = CHAIN3.restrict(("c0", "c2"))
    assert sub.elements == ("c0", "c2")
    assert ("c0", "c2") in sub.order
    assert ("c2", "c0") not in sub.order


def test_masks_round_trip():
    x = CHAIN3
    for mask in range(1 << x.size):
        labels = x.labels_of(mask)
        assert x.mask_of(labels) == mask


def test_image_and_preimage_masks():
    f = Morphism(CHAIN3, SIERPINSKI,
                 (("c0", "s0"), ("c1", "s1"), ("c2", "s1")))
    full = (1 << 3) - 1
    assert f.image_mask(full) == 0b11
    assert f.image_mask(0b001) == 0b01
    assert f.preimage_mask(0b10) == 0b110


def test_up_and_down_masks():
    x = SIERPINSKI
    i0, i1 = x.index["s0"], x.index["s1"]
    assert x.down_masks[i1] == (1 << i0) | (1 << i1)
    assert x.up_masks[i0] == (1 << i0) | (1 << i1)


NOT_MONOTONE = """
from extcheck.core import FiniteObject, Morphism, make_preorder
fork = FiniteObject(tuple("abc"), make_preorder("abc", [("a", "b"), ("a", "c")]))
discrete = FiniteObject(tuple("abc"), make_preorder("abc"))
try:
    Morphism(fork, discrete, tuple((e, e) for e in "abc"))
except ValueError as err:
    print(err)
"""


def test_not_monotone_message_is_independent_of_hash_seed():
    # Both a<=b and a<=c fail; the least one is reported, whatever order
    # the source order's frozenset iterates in.
    src = Path(__file__).resolve().parent.parent / "src"
    messages = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", NOT_MONOTONE], env=env,
                             capture_output=True, text=True, check=True)
        messages.add(out.stdout)
    assert messages == {"not monotone: a<=b but a<=b fails\n"}


ORDER_ERRORS = """
from extcheck.core import FiniteObject
for order in ({("a", "a"), ("b", "b"), ("b", "z"), ("a", "y")},
              {(e, e) for e in "abcd"} | {("a", "b"), ("b", "c"), ("c", "d")}):
    try:
        FiniteObject(tuple("abcd"), frozenset(order))
    except ValueError as err:
        print(err)
"""


def test_order_errors_are_independent_of_hash_seed():
    # Each order error names the least offending pair.
    src = Path(__file__).resolve().parent.parent / "src"
    messages = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", ORDER_ERRORS], env=env,
                             capture_output=True, text=True, check=True)
        messages.add(out.stdout)
    assert messages == {"order pair (a,y) outside carrier\n"
                        "order not transitive: missing (a,c) via b\n"}
