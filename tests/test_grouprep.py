from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massdual import (
    FiniteGroup,
    GroupTooLarge,
    InconsistentRepresentation,
    MonomialMatrix,
    MonomialRep,
    direct_sum,
    from_cayley_table,
    group_closure,
    group_from_json,
    group_to_json,
    perm_from_cycles,
    permutation_matrix,
    permutation_rep,
    rep_direct_sum,
)
from massdual.grouprep import perm_inv, perm_mul, perm_order

F = Fraction


def s3():
    t = perm_from_cycles(3, [[1, 2]])
    c = perm_from_cycles(3, [[1, 2, 3]])
    return group_closure([t, c], [permutation_matrix(t), permutation_matrix(c)])


def signed2():
    swp = perm_from_cycles(4, [[1, 2], [3, 4]])
    flp = perm_from_cycles(4, [[1, 3]])
    mats = [MonomialMatrix((1, 0), (0, 0), 2), MonomialMatrix((0, 1), (1, 0), 2)]
    return group_closure([swp, flp], mats)


def test_perm_basics():
    c = perm_from_cycles(4, [[1, 2, 3]])
    assert c == (1, 2, 0, 3)
    assert perm_order(c) == 3
    assert perm_mul(c, perm_inv(c)) == (0, 1, 2, 3)


def test_monomial_matrix_multiplication_tracks_composition():
    # (swap then flip) as matrices must equal the matrix of the composite
    swap = MonomialMatrix((1, 0), (0, 0), 2)
    flip = MonomialMatrix((0, 1), (1, 0), 2)
    prod = flip * swap
    assert prod.perm == perm_mul(flip.perm, swap.perm)
    assert prod * prod.inv() == MonomialMatrix.identity(2, 2)


def test_monomial_matrix_validation():
    with pytest.raises(ValueError):
        MonomialMatrix((0, 0), (0, 0), 2)
    with pytest.raises(ValueError):
        MonomialMatrix((0, 1), (0,), 2)
    with pytest.raises(ValueError):
        MonomialMatrix((0,), (0,), 0)


def test_direct_sum_merges_root_orders():
    a = MonomialMatrix((0,), (1,), 2)
    b = MonomialMatrix((0,), (1,), 3)
    s = direct_sum(a, b)
    assert s.root_order == 6
    assert s.exps == (3, 2)  # -1 = zeta_6^3, zeta_3 = zeta_6^2


def test_closure_of_s3():
    group, rep = s3()
    assert len(group) == 6
    assert group.exponent() == 6
    assert sorted(len(c) for c in group.conjugacy_classes()) == [1, 2, 3]
    assert rep.dim == 3


def test_closure_detects_inconsistent_matrices():
    z = perm_from_cycles(3, [[1, 2, 3]])
    bad = MonomialMatrix((0,), (1,), 2)  # order 2 matrix on an order 3 element
    with pytest.raises(InconsistentRepresentation):
        group_closure([z], [bad])


def test_closure_size_limit():
    t = perm_from_cycles(5, [[1, 2]])
    c = perm_from_cycles(5, [[1, 2, 3, 4, 5]])
    with pytest.raises(GroupTooLarge):
        group_closure([t, c], max_size=10)
    # the bound is inclusive: a group of exactly max_size elements closes
    assert len(group_closure([t, c], max_size=120)[0]) == 120
    with pytest.raises(GroupTooLarge):
        group_closure([t, c], max_size=119)


def test_closure_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        group_closure([perm_from_cycles(2, [[1, 2]]), perm_from_cycles(3, [[1, 2]])])


def test_rotation_eigen_exponents():
    # [[0, -1], [1, 0]] has eigenvalues +-i
    rot = MonomialMatrix((1, 0), (0, 1), 2)
    group, rep = group_closure([perm_from_cycles(4, [[1, 2, 3, 4]])], [rot])
    assert len(group) == 4
    g = perm_from_cycles(4, [[1, 2, 3, 4]])
    assert rep.eigen_exponents(g) == (F(1, 4), F(3, 4))
    wt = rep.tame_weights(g)
    assert (wt.v, wt.w, wt.a) == (1, 1, 2)


def test_diagonal_eigen_exponents():
    z = perm_from_cycles(3, [[1, 2, 3]])
    group, rep = group_closure([z], [MonomialMatrix((0, 1), (1, 2), 3)])
    assert rep.eigen_exponents(z) == (F(1, 3), F(2, 3))
    assert rep.eigen_exponents(group.identity) == (0, 0)


def test_permutation_rep_has_a_equal_2v():
    group, _ = s3()
    rep = permutation_rep(group, 2)
    for g in group:
        wt = rep.tame_weights(g)
        assert wt.a == 2 * wt.v
        assert wt.w == wt.v


def test_inverse_swaps_v_and_w():
    group, rep = signed2()
    assert len(group) == 8
    for g in group:
        assert rep.tame_weights(perm_inv(g)).v == rep.tame_weights(g).w


def test_direct_sum_weights_add():
    group, rep = signed2()
    doubled = rep_direct_sum(group, rep, rep)
    for g in group:
        single = rep.tame_weights(g)
        two = doubled.tame_weights(g)
        assert (two.v, two.w, two.a) == (
            2 * single.v,
            2 * single.w,
            2 * single.a,
        )


def test_power_map():
    group, _ = s3()
    c = perm_from_cycles(3, [[1, 2, 3]])
    assert group.power(c, 0) == group.identity
    assert group.power(c, 2) == perm_mul(c, c)
    assert group.power(c, -1) == perm_inv(c)
    assert group.power(c, 3 * 10**9) == group.identity
    with pytest.raises(ValueError):
        group.power(perm_from_cycles(3, [[1, 2]]) + (99,), 1)  # not in group


def test_from_cayley_table_regular_rep():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    group = from_cayley_table(table)
    assert len(group) == 4
    assert group.exponent() == 4
    with pytest.raises(ValueError):
        from_cayley_table([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        from_cayley_table([[1, 0], [0, 1]])


def s4_gens():
    return [perm_from_cycles(4, [[1, 2]]), perm_from_cycles(4, [[1, 2, 3, 4]])]


def f21_gens():
    # x -> x + 1 and x -> 2x on Z/7, points 1..7 standing for 0..6
    return [perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]]), perm_from_cycles(7, [[2, 3, 5], [4, 7, 6]])]


@pytest.mark.parametrize(
    "gens,sizes",
    [(s4_gens(), [1, 6, 6, 8, 3]), (f21_gens(), [1, 3, 7, 7, 3])],
    ids=["S4", "F21"],
)
def test_classes_agree_however_the_group_is_built(gens, sizes):
    closed, _ = group_closure(gens)
    elements = closed.elements
    listed = FiniteGroup(closed.degree, elements)
    index = {g: i for i, g in enumerate(elements)}
    table = [[index[perm_mul(g, h)] for h in elements] for g in elements]
    regular = from_cayley_table(table)

    classes = closed.conjugacy_classes()
    assert listed.conjugacy_classes() == classes
    assert [len(c) for c in classes] == sizes
    assert sum(sizes) == len(closed)
    assert all(c == sorted(c) for c in classes)
    # element i of the regular group is the row permutation h -> g_i * h,
    # which sends the identity (index 0) to i
    regular_classes = regular.conjugacy_classes()
    assert all(c == sorted(c) for c in regular_classes)
    assert [sorted(p[0] for p in c) for c in regular_classes] == [
        sorted(index[g] for g in c) for c in classes
    ]
    for group in (listed, regular):
        spanned, _ = group_closure(list(group.generators))
        assert set(spanned.elements) == set(group.elements)
        assert len(group.generators) <= 3
        assert all(group.class_index(g) == k for k, c in enumerate(group.conjugacy_classes()) for g in c)
    assert closed.exponent() == listed.exponent() == regular.exponent()


def test_classes_refuse_generators_of_a_subgroup():
    closed, _ = group_closure(s4_gens())
    group = FiniteGroup(4, closed.elements, [perm_from_cycles(4, [[1, 2]])])
    with pytest.raises(ValueError, match="do not generate"):
        group.conjugacy_classes()


def test_group_json_roundtrip():
    group, rep = signed2()
    doc = group_to_json(group, rep)
    group2, rep2 = group_from_json(doc)
    assert set(group2.elements) == set(group.elements)
    for g in group:
        assert rep2.matrix(g) == rep.matrix(g)


def test_group_json_dimension_check():
    doc = {
        "degree": 2,
        "generators": [[[1, 2]]],
        "rep": {"dim": 2, "root_order": 1, "matrices": [{"perm": [1], "exps": [0]}]},
    }
    with pytest.raises(ValueError):
        group_from_json(doc)


@given(st.permutations(range(5)))
@settings(max_examples=50, deadline=None)
def test_eigen_exponents_of_permutation_matrices(perm):
    perm = tuple(perm)
    mat = permutation_matrix(perm)
    rep = MonomialRep(5, 1, {perm: mat})
    exps = rep.eigen_exponents(perm)
    # one block of k-th roots of unity per k-cycle
    assert len(exps) == 5
    assert sum(exps) == rep.tame_weights(perm).v
    order = perm_order(perm)
    assert all((e * order).denominator == 1 for e in exps)


@given(st.permutations(range(4)), st.permutations(range(4)))
@settings(max_examples=50, deadline=None)
def test_matrix_of_product_is_product_of_matrices(pa, pb):
    pa, pb = tuple(pa), tuple(pb)
    assert permutation_matrix(perm_mul(pa, pb)) == permutation_matrix(
        pa
    ) * permutation_matrix(pb)


# -- closure against a reference that multiplies MonomialMatrix objects ------


def oracle_closure(generators, rep_generators):
    """Breadth-first closure with one MonomialMatrix product per Cayley edge:
    (elements in order, matrix of each element), or InconsistentRepresentation
    when two words for one permutation get different matrices."""
    ident = tuple(range(len(generators[0])))
    matrices = {ident: MonomialMatrix.identity(rep_generators[0].dim, rep_generators[0].root_order)}
    elements, frontier = [ident], [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s, m in zip(generators, rep_generators):
                h, mh = perm_mul(g, s), matrices[g] * m
                if h in matrices:
                    if matrices[h] != mh:
                        raise InconsistentRepresentation("oracle")
                    continue
                matrices[h] = mh
                elements.append(h)
                nxt.append(h)
        frontier = nxt
    return elements, matrices


def wreath_point_action(m, degree):
    """m acting on its dim*e points (j, k) -> (perm[j], k + exps[j] mod e),
    then fixed points up to degree: a faithful image, so closing these
    permutations with the matrices m is always consistent."""
    e = m.root_order
    moved = tuple(m.perm[j] * e + (k + m.exps[j]) % e for j in range(m.dim) for k in range(e))
    return moved + tuple(range(len(moved), degree))


@st.composite
def monomial_matrices(draw, dim, root_order):
    perm = tuple(draw(st.permutations(range(dim))))
    exps = draw(st.lists(st.integers(0, root_order - 1), min_size=dim, max_size=dim))
    return MonomialMatrix(perm, tuple(exps), root_order)


@st.composite
def closure_inputs(draw):
    """Generator sets of degree <= 6, at most 3 generators, dim <= 4 and root
    order <= 6: either faithful point actions of random monomial matrices
    (consistent, their matrices maybe doubled or with a scaled root order)
    or random permutations with random matrices (mostly inconsistent)."""
    count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        dim, e = draw(st.sampled_from([(d, e) for d in range(1, 5) for e in range(1, 7) if d * e <= 6]))
        degree = draw(st.integers(dim * e, 6))
        mats = [draw(monomial_matrices(dim, e)) for _ in range(count)]
        gens = [wreath_point_action(m, degree) for m in mats]
        if dim <= 2 and draw(st.booleans()):
            mats = [direct_sum(m, m) for m in mats]
        scale = draw(st.integers(1, 6 // e))
        mats = [MonomialMatrix(m.perm, tuple(scale * x for x in m.exps), scale * e) for m in mats]
        return gens, mats
    degree, dim, e = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    gens = [tuple(draw(st.permutations(range(degree)))) for _ in range(count)]
    return gens, [draw(monomial_matrices(dim, e)) for _ in range(count)]


@given(closure_inputs())
@settings(max_examples=200, deadline=None)
def test_closure_matches_matrix_product_oracle(inputs):
    gens, mats = inputs
    try:
        elements, matrices = oracle_closure(gens, mats)
    except InconsistentRepresentation:
        with pytest.raises(InconsistentRepresentation):
            group_closure(gens, mats)
        return
    group, rep = group_closure(gens, mats)
    assert list(group.elements) == elements
    assert (rep.dim, rep.root_order) == (mats[0].dim, mats[0].root_order)
    assert all(rep.matrix(g) == matrices[g] for g in elements)
    assert len(rep.matrices) == len(elements) and set(rep.matrices) == set(elements)


def test_closure_sees_words_that_differ_in_one_exponent():
    t = perm_from_cycles(2, [[1, 2]])
    swap = MonomialMatrix((1, 0), (1, 4), 5)  # squares to the identity
    group, rep = group_closure([t, t], [swap, swap])
    assert len(group) == 2 and rep.matrix(t) == swap
    other = MonomialMatrix((1, 0), (1, 3), 5)  # same permutations, one exponent apart
    for mats in ([swap, other], [MonomialMatrix((0, 1), (0, 1), 3)] * 2):
        with pytest.raises(InconsistentRepresentation):
            oracle_closure([t, t], mats)
        with pytest.raises(InconsistentRepresentation):
            group_closure([t, t], mats)


def test_closure_cost_does_not_grow_with_root_order():
    e = 10**18
    t = perm_from_cycles(2, [[1, 2]])
    swap = MonomialMatrix((1, 0), (1, e - 1), e)
    group, rep = group_closure([t], [swap])
    assert group.elements == ((0, 1), (1, 0))
    assert rep.matrix(t) == swap
    assert rep.matrix(group.identity) == MonomialMatrix.identity(2, e)

    e, u = 7 * 10**15, 10**15
    z = perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]])
    chi = MonomialMatrix((0, 1, 2), (u, 2 * u, 4 * u), e)
    group, rep = group_closure([z], [chi])
    assert len(group) == 7 and group.exponent() == 7
    g = group.identity
    for k in range(7):
        assert rep.matrix(g) == MonomialMatrix((0, 1, 2), (k * u, 2 * k * u, 4 * k * u), e)
        g = perm_mul(g, z)
    assert rep.eigen_exponents(z) == (F(1, 7), F(2, 7), F(4, 7))


def test_closure_of_rows_shorter_than_two_entries():
    # rows of degree + dim < 2 entries: no points, or one point and no matrix
    assert group_closure([(0,)])[0].elements == ((0,),)
    group, rep = group_closure([(0,)], [MonomialMatrix.identity(0)])
    assert group.elements == ((0,),) and rep.matrix((0,)) == MonomialMatrix.identity(0)
    group, rep = group_closure([()], [MonomialMatrix((0,), (0,), 2)])
    assert group.elements == ((),) and rep.matrix(()) == MonomialMatrix.identity(1, 2)
    sign = [MonomialMatrix((0,), (1,), 2)]  # -1 on the trivial group
    with pytest.raises(InconsistentRepresentation):
        oracle_closure([()], sign)
    with pytest.raises(InconsistentRepresentation):
        group_closure([()], sign)


# -- classes on element indices against the tuple-orbit loop -----------------


def oracle_classes(group):
    """Conjugacy classes by conjugating element tuples: each class is the
    orbit of its first element under x -> s x s^-1 for the generators s,
    classes in order of first appearance and sorted; with the class of each
    element."""
    conj = [(s, perm_inv(s)) for s in group.generators]
    class_of, classes = {}, []
    for g in group.elements:
        if g not in class_of:
            class_of[g] = len(classes)
            orbit = [g]
            for x in orbit:
                for s, s_inv in conj:  # s x s^-1 sends i to s[x[s^-1[i]]]
                    y = tuple([s[x[j]] for j in s_inv])
                    if y not in class_of:
                        class_of[y] = len(classes)
                        orbit.append(y)
            classes.append(sorted(orbit))
    return classes, class_of


@given(
    st.one_of(closure_inputs(), st.sampled_from([(s4_gens(), None), (f21_gens(), None)])),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_classes_on_indices_match_the_tuple_orbit_oracle(inputs, data):
    gens, mats = inputs
    try:
        closed, _ = group_closure(gens, mats)
    except InconsistentRepresentation:
        closed, _ = group_closure(gens)
    elements = closed.elements
    index = {g: i for i, g in enumerate(elements)}
    assert closed._right == [[index[perm_mul(g, s)] for g in elements] for s in gens]

    shuffled = [elements[i] for i in data.draw(st.permutations(range(len(elements))))]
    listed = FiniteGroup(closed.degree, shuffled)
    table = [[index[perm_mul(g, h)] for h in elements] for g in elements]
    for group in (closed, listed, from_cayley_table(table)):
        classes, class_of = oracle_classes(group)
        assert group.conjugacy_classes() == classes
        assert all(group.class_index(g) == class_of[g] for g in group)
    listed_index = listed.index
    assert listed._right_table() == [
        [listed_index[perm_mul(g, s)] for g in shuffled] for s in listed.generators
    ]


# -- tame weights summed per cycle against the eigenvalue exponents ----------


@given(
    st.integers(1, 6).flatmap(
        lambda dim: st.integers(1, 12).flatmap(lambda e: monomial_matrices(dim, e))
    )
    | st.builds(MonomialMatrix.identity, st.integers(0, 6), st.integers(1, 12))
)
@settings(max_examples=300, deadline=None)
def test_tame_weights_match_eigen_exponents(m):
    rep = MonomialRep(m.dim, m.root_order, {m.perm: m})
    exps = rep.eigen_exponents(m.perm)
    wt = rep.tame_weights(m.perm)
    assert wt.v == sum(exps, F(0))
    assert wt.a == sum(1 for x in exps if x)
    assert wt.w == wt.a - wt.v
    assert all(type(x) is F for x in wt)
