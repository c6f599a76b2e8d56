import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
from massdual import TameScenario, tame_involution_check, tame_total_masses
from massdual.grouprep import perm_inv, perm_mul, perm_order
from massdual.massengine import _involutive, _stable_classes, _stable_weights, _tame_masses

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


@pytest.mark.parametrize("cycles", [[[1, 2], [2, 1]], [[1, 2], [1, 2]], [[1, 1]]])
def test_cycles_that_meet_are_refused(cycles):
    # each of these used to pass: the first two as a transposition, [[1, 1]] as the identity
    with pytest.raises(ValueError, match="cycles are not disjoint"):
        perm_from_cycles(3, cycles)


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


def square_and_multiply(g, m):
    """g^m by repeated squaring over perm_mul; for m < 0, the inverse to the -m."""
    base, out, m = (g if m >= 0 else perm_inv(g)), tuple(range(len(g))), abs(m)
    while m:
        if m & 1:
            out = perm_mul(out, base)
        base, m = perm_mul(base, base), m >> 1
    return out


@given(
    st.integers(1, 7).flatmap(lambda d: st.lists(st.permutations(range(d)).map(tuple), min_size=1, max_size=3)),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_power_rotates_cycles_as_square_and_multiply_does(gens, data):
    group, _ = group_closure(gens)
    g = data.draw(st.sampled_from(group.elements))
    for m in (-(10**30), -1, 0, 1, 7, 10**30):
        assert group.power(g, m) == square_and_multiply(g, m)


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


def b3_gens():
    """B3 on the six signed basis vectors (+e_i is point i, -e_i point i + 3):
    swap e_1 and e_2, rotate the three, and negate e_1 (the one offset)."""
    gens = [
        perm_from_cycles(6, [[1, 2], [4, 5]]),
        perm_from_cycles(6, [[1, 2, 3], [4, 5, 6]]),
        perm_from_cycles(6, [[1, 4]]),
    ]
    mats = [
        MonomialMatrix((1, 0, 2), (0, 0, 0), 2),
        MonomialMatrix((1, 2, 0), (0, 0, 0), 2),
        MonomialMatrix((0, 1, 2), (1, 0, 0), 2),
    ]
    return gens, mats


@pytest.mark.parametrize(
    "gens,mats,sizes",
    [
        (s4_gens(), None, [1, 6, 6, 8, 3]),
        (f21_gens(), None, [1, 3, 7, 7, 3]),
        (*b3_gens(), [1, 6, 8, 3, 6, 8, 6, 3, 6, 1]),
    ],
    ids=["S4", "F21", "B3"],
)
def test_classes_agree_however_the_group_is_built(gens, mats, sizes):
    closed, _ = group_closure(gens, mats)
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


@pytest.mark.parametrize("gens", [s4_gens(), b3_gens()[0]], ids=["S4", "B3"])
def test_picking_generators_decodes_one_tuple_view(monkeypatch, gens):
    # each closure so far answers membership from its bytes heads; only the last one's elements are read
    elements = list(group_closure(gens)[0].elements)
    random.Random(len(elements)).shuffle(elements)
    listed, decoded, tuple_view = FiniteGroup(len(gens[0]), elements), [], FiniteGroup._tuple_view

    def counted(group):
        decoded.extend([len(group)] * (group._views is None))
        return tuple_view(group)

    monkeypatch.setattr(FiniteGroup, "_tuple_view", counted)
    assert len(listed.generators) >= 2
    assert decoded == [len(elements)]


def test_classes_refuse_generators_of_a_subgroup():
    closed, _ = group_closure(s4_gens())
    group = FiniteGroup(4, closed.elements, [perm_from_cycles(4, [[1, 2]])])
    with pytest.raises(ValueError, match="do not generate"):
        group.conjugacy_classes()


def test_an_element_list_with_a_repeat_is_refused():
    # len(group) would count the repeat, and the class walk would then blame the generators
    with pytest.raises(ValueError, match="repeats an element"):
        FiniteGroup(3, [(0, 1, 2), (1, 0, 2), (1, 0, 2)])
    with pytest.raises(ValueError, match="repeats an element"):
        from_cayley_table([[0, 1, 2], [1, 2, 0], [1, 2, 0]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteGroup(3, [(0, 1, 2), (1, 0, 2), (2, 1, 0)]),
        # with the generators given, their closure outgrows the list
        lambda: FiniteGroup(3, [(0, 1, 2), (1, 0, 2), (2, 1, 0)], [(1, 0, 2), (2, 1, 0)]),
        # rows that are permutations but not a group table
        lambda: from_cayley_table([[0, 1, 2], [1, 2, 0], [1, 0, 2]]),
    ],
)
def test_an_element_list_that_is_not_closed_is_refused(build):
    # a bare KeyError of the missing product used to escape
    for read in (FiniteGroup.conjugacy_classes, FiniteGroup.exponent):
        with pytest.raises(ValueError, match="not closed under multiplication"):
            read(build())


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
    """Breadth-first closure with one MonomialMatrix product per Cayley edge,
    each generator multiplying on the left: (elements in order, matrix of
    each element), or InconsistentRepresentation when two words for one
    permutation get different matrices."""
    ident = tuple(range(len(generators[0])))
    matrices = {ident: MonomialMatrix.identity(rep_generators[0].dim, rep_generators[0].root_order)}
    elements, frontier = [ident], [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s, m in zip(generators, rep_generators):
                h, mh = perm_mul(s, g), m * matrices[g]
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


def c7_gens():
    """C7 acting on zeta_7 with weights (1, 2, 4): every exponent an offset."""
    return [perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]])], [MonomialMatrix((0, 1, 2), (1, 2, 4), 7)]


def one_offset_gens():
    m = MonomialMatrix((1, 2, 0), (0, 3, 0), 4)  # one nonzero exponent of three
    return [wreath_point_action(m, 12)], [m]


@pytest.mark.parametrize("gens,mats", [one_offset_gens(), c7_gens(), b3_gens()], ids=["one", "all", "mixed"])
def test_offsets_on_nonzero_columns_match_the_oracle(gens, mats):
    elements, matrices = oracle_closure(gens, mats)
    group, rep = group_closure(gens, mats)
    assert list(group.elements) == elements
    assert all(rep.matrix(g) == matrices[g] for g in elements)
    # decoded without the constructor's checks, so they must pass them unchanged
    assert all(rep.matrix(g) == MonomialMatrix(*rep.matrix(g)) for g in elements)


def test_offsets_on_nonzero_columns_still_see_inconsistent_words():
    gens, mats = b3_gens()
    # negating e_1 and e_2 together does not commute with swapping e_2 and e_3
    mats[2] = MonomialMatrix((0, 1, 2), (1, 1, 0), 2)
    with pytest.raises(InconsistentRepresentation):
        oracle_closure(gens, mats)
    with pytest.raises(InconsistentRepresentation):
        group_closure(gens, mats)


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


# -- both row types at the byte boundary --------------------------------------


def cycle_with_sign(n, sign, root_order):
    """C_n on n points with its permutation matrix, the first column scaled
    by zeta^sign: for sign = 1 and root_order = 2 the matrix's n-th power
    is -1 on an odd cycle, so no homomorphism."""
    c = perm_from_cycles(n, [list(range(1, n + 1))])
    return [c], [MonomialMatrix(c, (sign,) + (0,) * (n - 1), root_order)]


@pytest.mark.parametrize("n,row_type", [(128, bytes), (129, tuple)])  # width n + n: 256 and 258
def test_closure_on_both_sides_of_the_byte_boundary_matches_the_oracle(n, row_type):
    gens, mats = cycle_with_sign(n, 0, 1)
    elements, matrices = oracle_closure(gens, mats)
    group, rep = group_closure(gens, mats)
    assert type(rep.matrices._rows[0]) is row_type
    assert list(group.elements) == elements
    assert all(rep.matrix(g) == matrices[g] == MonomialMatrix(*rep.matrix(g)) for g in elements)
    with pytest.raises(GroupTooLarge):
        group_closure(gens, mats, max_size=n - 1)


@pytest.mark.parametrize("n,row_type", [(85, bytes), (129, tuple)])  # width n + 2n: 255 and 387
def test_inconsistent_words_are_seen_on_both_row_types(n, row_type):
    gens, mats = cycle_with_sign(n, 0, 2)
    assert type(group_closure(gens, mats)[1].matrices._rows[0]) is row_type
    gens, mats = cycle_with_sign(n, 1, 2)
    with pytest.raises(InconsistentRepresentation):
        oracle_closure(gens, mats)
    with pytest.raises(InconsistentRepresentation):
        group_closure(gens, mats)
    with pytest.raises(GroupTooLarge):
        group_closure(gens, mats, max_size=n - 1)


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
    assert closed._table == [[index[perm_mul(s, g)] for g in elements] for s in gens]

    shuffled = [elements[i] for i in data.draw(st.permutations(range(len(elements))))]
    listed = FiniteGroup(closed.degree, shuffled)
    table = [[index[perm_mul(g, h)] for h in elements] for g in elements]
    for group in (closed, listed, from_cayley_table(table)):
        classes, class_of = oracle_classes(group)
        assert group.conjugacy_classes() == classes
        assert all(group.class_index(g) == class_of[g] for g in group)


def brute_span(gens, degree):
    """The subgroup generated by gens, by multiplying out on the right until
    nothing new appears."""
    span = {tuple(range(degree))}
    frontier = list(span)
    while frontier:
        frontier = [h for h in {perm_mul(g, s) for g in frontier for s in gens} if h not in span]
        span.update(frontier)
    return span


@given(
    st.one_of(closure_inputs(), st.sampled_from([(s4_gens(), None), (f21_gens(), None), b3_gens()])),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_generators_of_an_element_list_are_the_ones_dimino_picks(inputs, data):
    # each element of the list outside the span of the generators before it
    gens, mats = inputs
    try:
        closed, _ = group_closure(gens, mats)
    except InconsistentRepresentation:
        closed, _ = group_closure(gens)
    shuffled = [closed.elements[i] for i in data.draw(st.permutations(range(len(closed))))]
    picked, span = [], brute_span([], closed.degree)
    for g in shuffled:
        if g not in span:
            picked.append(g)
            span = brute_span(picked, closed.degree)
    assert FiniteGroup(closed.degree, shuffled).generators == tuple(picked)


def test_cayley_table_wider_than_a_byte_row():
    # degree 300 > 256, so the closure under the classes keeps tuple rows
    group = from_cayley_table([[(i + j) % 300 for j in range(300)] for i in range(300)])
    classes, class_of = oracle_classes(group)
    assert group.conjugacy_classes() == classes
    assert all(group.class_index(g) == class_of[g] for g in group)
    assert group.exponent() == 300


# -- lookups through the bytes heads, and the tuple view built when read ----


def outcome(f):
    try:
        return f()
    except Exception as exc:
        return type(exc)


def sign_c2(root_order):
    """C2 on two points acting by -1: byte rows for root order 2, tuple rows
    (width 2 + 256) for root order 256."""
    t = (1, 0)
    return group_closure([t], [MonomialMatrix((0,), (root_order // 2,), root_order)])


@pytest.mark.parametrize("root_order", [2, 256], ids=["bytes", "tuple"])
@pytest.mark.parametrize("view_read", [False, True], ids=["heads", "view"])
@pytest.mark.parametrize(
    "g,found,power",
    [
        ((1, 0), True, (1, 0)),
        ((1.0, 0.0), True, (1, 0)),  # equal to (1, 0), and powered as the ints it equals
        ((True, False), True, (1, 0)),
        ((0, 256), False, ValueError),
        ((0, -1), False, ValueError),
        ((1, 0, 2), False, ValueError),
        ([1, 0], TypeError, TypeError),  # unhashable, where bytes() would take it
    ],
    ids=["perm", "floats", "bools", "past-255", "negative", "too-long", "list"],
)
def test_lookups_answer_as_the_tuple_view_does(root_order, view_read, g, found, power):
    group, rep = sign_c2(root_order)
    assert type(rep.matrices._rows[0]) is (bytes if root_order == 2 else tuple)
    if view_read:
        assert group.elements == ((0, 1), (1, 0))
    missing = KeyError if found is False else found
    assert outcome(lambda: g in group) is found
    assert outcome(lambda: group.class_index(g)) == (1 if found is True else missing)
    assert outcome(lambda: group.power(g, 1)) == power
    assert found is not True or all(type(x) is int for x in group.power(g, 3))
    assert outcome(lambda: rep.matrix(g)) == (rep.matrix((1, 0)) if found is True else missing)


def doubled_s5():
    gens = [perm_from_cycles(5, [[1, 2]]), perm_from_cycles(5, [[1, 2, 3, 4, 5]])]
    return gens, [direct_sum(permutation_matrix(g), permutation_matrix(g)) for g in gens]


def test_tame_engine_builds_no_tuple_view(monkeypatch):
    # the engine reads one representative per class from the bytes heads, so
    # neither the elements as tuples nor the sorted classes are built for it
    gens, mats = doubled_s5()
    group, rep = group_closure(gens, mats)
    scenario = TameScenario(group, rep, 7)
    build = FiniteGroup._tuple_view

    def refuse(self):
        raise AssertionError("the tuple view was built")

    monkeypatch.setattr(FiniteGroup, "_tuple_view", refuse)
    masses = tame_total_masses(scenario)
    assert tame_involution_check(scenario)
    assert group._classes is None
    monkeypatch.setattr(FiniteGroup, "_tuple_view", build)
    assert list(group.elements) == oracle_closure(gens, mats)[0]
    assert tame_total_masses(scenario) == masses


class CountingHeads(dict):
    """Heads that count how often they are decoded (iterated)."""

    decoded = 0

    def __iter__(self):
        self.decoded += 1
        return super().__iter__()


def test_engine_and_involution_check_decode_the_heads_once():
    # class_representatives() decoded every head on each call: five times per group here
    gens, mats = doubled_s5()
    closed, rep = group_closure(gens, mats)
    for group in (closed, FiniteGroup(closed.degree, closed.elements)):
        group._heads = heads = CountingHeads(group._heads)
        scenario = TameScenario(group, rep, 7)
        tame_total_masses(scenario)
        assert tame_involution_check(scenario)
        assert heads.decoded == 1
        assert type(group.class_representatives()) is tuple


@given(st.sampled_from([s4_gens(), f21_gens(), b3_gens()[0]]), st.data())
@settings(max_examples=30, deadline=None)
def test_representatives_come_first_in_element_order(gens, data):
    closed, _ = group_closure(gens)
    shuffled = [closed.elements[i] for i in data.draw(st.permutations(range(len(closed))))]
    for group, order in ((closed, closed.elements), (FiniteGroup(closed.degree, shuffled), shuffled)):
        place = {g: i for i, g in enumerate(order)}
        classes = group.conjugacy_classes()
        assert group.class_representatives() == tuple(min(c, key=place.__getitem__) for c in classes)


def cyclic_six_characters():
    """C6 on six points with a sign (root order 2) and a cube root (root order 3)."""
    c = perm_from_cycles(6, [[1, 2, 3, 4, 5, 6]])
    return [c], [MonomialMatrix((0,), (1,), 2)], [MonomialMatrix((0,), (1,), 3)]


@pytest.mark.parametrize("build", [b3_gens, cyclic_six_characters], ids=["B3", "C6"])
def test_rep_builders_close_the_generators(build, monkeypatch):
    # both builders used to build a direct sum per element, reading the tuple view
    gens, mats, *more = build()
    group, rep = group_closure(gens, mats)
    other = group_closure(gens, more[0])[1] if more else permutation_rep(group)
    build_view = FiniteGroup._tuple_view

    def refuse(self):
        raise AssertionError("the tuple view was built")

    monkeypatch.setattr(FiniteGroup, "_tuple_view", refuse)
    summed = rep_direct_sum(group, rep, other, rep)
    doubled = permutation_rep(group, 2)
    monkeypatch.setattr(FiniteGroup, "_tuple_view", build_view)
    assert (summed.dim, summed.root_order) == (2 * rep.dim + other.dim, math.lcm(rep.root_order, other.root_order))
    assert (doubled.dim, doubled.root_order) == (2 * group.degree, 1)
    for g in group.elements:
        assert summed.matrix(g) == direct_sum(rep.matrix(g), other.matrix(g), rep.matrix(g))
        assert doubled.matrix(g) == direct_sum(permutation_matrix(g), permutation_matrix(g))


def test_rep_builders_on_a_trivial_group_without_generators():
    for group in (FiniteGroup(2, [(0, 1)]), from_cayley_table([[0]])):
        assert group.generators == ()
        assert permutation_rep(group, 2).matrix(group.identity) == MonomialMatrix.identity(2 * group.degree)
        assert rep_direct_sum(group).matrix(group.identity) == MonomialMatrix.identity(0)


def test_a_summand_that_is_no_homomorphism_is_refused():
    group, _ = s3()
    minus_one = MonomialRep(1, 2, {g: MonomialMatrix((0,), (1,), 2) for g in group})
    with pytest.raises(InconsistentRepresentation):
        rep_direct_sum(group, minus_one)


@st.composite
def tame_groups(draw):
    """A byte-row closure of degree <= 7 with its permutation matrices, or
    C_129, whose rows are tuples; and a q coprime to the order."""
    if draw(st.booleans()):
        degree = draw(st.integers(1, 7))
        gens = [tuple(draw(st.permutations(range(degree)))) for _ in range(draw(st.integers(1, 3)))]
        mats = [permutation_matrix(g) for g in gens]
    else:
        gens, mats = cycle_with_sign(129, 0, 1)
    return gens, mats, draw(st.sampled_from([2, 3, 5, 7, 11, 13, 121]))


def read_views(group):
    return group.conjugacy_classes(), [group.class_index(g) for g in group], group.exponent()


def read_engine(scenario):
    return tame_total_masses(scenario), tame_involution_check(scenario)


@given(tame_groups())
@settings(max_examples=40, deadline=None)
def test_results_do_not_depend_on_what_was_read_first(inputs):
    gens, mats, q = inputs
    group, rep = group_closure(gens, mats)
    assume(math.gcd(q, len(group)) == 1)
    views = read_views(group)
    engine = read_engine(TameScenario(group, rep, q))

    group, rep = group_closure(gens, mats)
    scenario = TameScenario(group, rep, q)
    assert read_engine(scenario) == engine
    assert read_views(group) == views

    listed = FiniteGroup(group.degree, group.elements)
    assert read_views(listed) == views
    assert read_engine(TameScenario(listed, rep, q)) == engine


# -- Frobenius-stable classes against their definition -----------------------


@given(
    st.one_of(closure_inputs(), st.sampled_from([(s4_gens(), None), (f21_gens(), None), b3_gens()])),
    st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
)
@settings(max_examples=100, deadline=None)
def test_stable_classes_match_their_definition(inputs, q):
    gens, mats = inputs
    try:
        group, _ = group_closure(gens, mats)
    except InconsistentRepresentation:
        group, _ = group_closure(gens)
    assume(math.gcd(q, len(group)) == 1)
    reps = [c[0] for c in group.conjugacy_classes()]
    e = group.exponent()
    m0 = next(k for k in range(1, e + 1) if pow(q, k, e) == 1 % e)
    # one entry per residue of r mod the lcm of the Frobenius cycle lengths, which divides m0
    stable = _stable_classes(group, q)
    assert m0 % len(stable) == 0
    assert [stable[j % len(stable)] for j in range(m0)] == [
        [i for i, g in enumerate(reps) if group.class_index(group.power(g, pow(q, j, e))) == i]
        for j in range(m0)
    ]


@given(
    st.one_of(closure_inputs(), st.sampled_from([(s4_gens(), None), (f21_gens(), None), b3_gens()])),
    st.sampled_from([bytes, tuple, FiniteGroup]),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_the_frobenius_class_map_is_the_power_of_each_representative(inputs, build, data):
    # on byte rows, on tuple rows (root order 257 puts every row past 256 entries)
    # and on the element list shuffled; q negative, 0, 1 and past |G|
    gens, mats = inputs
    try:
        group, _ = group_closure(gens, mats)
    except InconsistentRepresentation:
        group, _ = group_closure(gens)
    if build is tuple:
        group, rep = group_closure(gens, [permutation_matrix(g, 257) for g in gens])
        assert type(rep.matrices._rows[0]) is tuple
    elif build is FiniteGroup:
        group = FiniteGroup(group.degree, [group.elements[i] for i in data.draw(st.permutations(range(len(group))))])
    n = len(group)
    for q in (-n - 1, -1, 0, 1, 2, n, n + 1, 10**30 + 1, data.draw(st.integers(-(10**6), 10**6))):
        assert group._power_classes(q) == [group.class_index(group.power(g, q)) for g in group.class_representatives()]


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


def fraction_table(scenario):
    """The stable-weight table from the tame_weights Fractions, as int numerators
    over the lcm of their denominators: the integer table's independent oracle."""
    weights = [scenario.rep.tame_weights(g)[:2] for g in scenario.group.class_representatives()]
    n = math.lcm(*(x.denominator for wt in weights for x in wt))
    v, w = ([x.numerator * (n // x.denominator) for x in side] for side in zip(*weights))
    return n, v, w, _stable_classes(scenario.group, scenario.q)


@given(closure_inputs())
@settings(max_examples=150, deadline=None)
def test_integer_weight_table_matches_the_fraction_table(inputs):
    # degree <= 6, root order 1..6, and q over the unit residues mod exp(G)
    try:
        group, rep = group_closure(*inputs)
    except InconsistentRepresentation:
        assume(False)
    e, n = group.exponent(), 2 * rep.root_order
    for g in group.class_representatives():
        v, a = rep._tame_ints(g)
        assert F(v, n) == sum(rep.eigen_exponents(g), F(0)) == rep.tame_weights(g).v
        assert F(n * a - v, n) == rep.tame_weights(g).w
    for r in (r for r in range(e) if math.gcd(r, e) == 1):
        # the engine reads q only through powers g^q, which depend on q mod exp(G):
        # the residue stands for every prime power q in its class
        scenario = TameScenario._make((group, rep, r))
        table, oracle = _stable_weights(scenario), fraction_table(scenario)
        assert table[0] == n and table[3] == oracle[3]
        masses = _tame_masses(*table)
        assert masses == _tame_masses(*oracle)
        assert masses.to_json() == _tame_masses(*oracle).to_json()
        assert _involutive(*table) == _involutive(*oracle)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: perm_from_cycles(3, [[1, 4]]), "out of range", id="cycle-point"),
        # a string cycle read letter by letter made "123" the 3-cycle (1 2 3)
        pytest.param(lambda: perm_from_cycles(3, ["123"]), "not the string '123'", id="cycle-string"),
        pytest.param(lambda: perm_from_cycles(3, "12"), "not the string '1'", id="cycles-string"),
        # a weight read over 2*2 from a matrix of root order 4 would be wrong
        pytest.param(
            lambda: MonomialRep(1, 2, {(0,): MonomialMatrix((0,), (1,), 4)}), "root order of the rep", id="root-order"
        ),
        pytest.param(
            lambda: MonomialMatrix((0,), (0,), 1) * MonomialMatrix((0, 1), (0, 0), 1), "shapes differ", id="product"
        ),
        pytest.param(lambda: FiniteGroup(2, [(1, 0)]), "contain the identity", id="no-identity"),
        pytest.param(lambda: group_closure([]), "at least one generator", id="no-generator"),
        pytest.param(
            lambda: group_closure([(1, 0)], [MonomialMatrix((0,), (0,), 1)] * 2), "one matrix per", id="matrix-count"
        ),
        pytest.param(
            lambda: group_closure([(1, 0)] * 2, [MonomialMatrix((0,), (0,), 1), MonomialMatrix((0,), (0,), 2)]),
            "disagree in shape",
            id="matrix-shapes",
        ),
    ],
)
def test_malformed_arguments_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
