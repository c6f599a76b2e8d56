"""Finite permutation groups carrying monomial representations.

A group element is a permutation of {0, ..., k-1} stored as a tuple p with
p[i] = image of i.  A monomial representation assigns to each element a
monomial matrix over the cyclotomic field of order e: column j holds the
single nonzero entry zeta^(exps[j]) in row perm[j].  Products compose so
that matrices multiply the same way the permutations do.

Eigenvalues of a monomial matrix are read off cycle by cycle: a cycle of
length c whose column exponents sum to s contributes the c eigenvalues
zeta^((s + e*t)/(c*e)) for t = 0..c-1, recorded here as exponents
(s + e*t)/(c*e) in [0, 1).  From these come the tame weight v (sum of the
exponents), the count a of nonzero exponents, and w = a - v.  These weight
formulas are the tame-case definitions: they apply when the group order is
invertible in the residue field, and are not extended past that case.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import add, itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import GroupTooLarge, InconsistentRepresentation
from .qsym import _json_int

Perm = tuple[int, ...]

DEFAULT_MAX_GROUP_SIZE = 10**6


def perm_identity(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(a: Perm, b: Perm) -> Perm:
    """Compose: apply b first, then a."""
    return tuple([a[i] for i in b])


def _reader(idx: Sequence[int]):
    """g -> tuple(g[i] for i in idx), so _reader(b)(a) == perm_mul(a, b)."""
    # itemgetter returns a tuple only for two or more indices
    return itemgetter(*idx) if len(idx) > 1 else lambda g, idx=tuple(idx): tuple([g[i] for i in idx])


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_cycles(a: Perm) -> list[list[int]]:
    """Cycle decomposition, fixed points included, each cycle led by its minimum."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = a[i]
        cycles.append(cyc)
    return cycles


def perm_order(a: Perm) -> int:
    return math.lcm(*(len(c) for c in perm_cycles(a))) if a else 1


def perm_from_cycles(degree: int, cycles: Iterable[Iterable[int]], one_based: bool = True) -> Perm:
    """Build a permutation from disjoint cycles (1-based by default)."""
    out = list(range(degree))
    offset = 1 if one_based else 0
    for cyc in cycles:
        pts = [_json_int(p) - offset for p in cyc]
        if any(p < 0 or p >= degree for p in pts):
            raise ValueError(f"cycle point out of range for degree {degree}")
        for i, p in enumerate(pts):
            out[p] = pts[(i + 1) % len(pts)]
    perm = tuple(out)
    if sorted(perm) != list(range(degree)):
        raise ValueError("cycles are not disjoint")
    return perm


class MonomialMatrix(namedtuple("MonomialMatrix", "perm exps root_order")):
    """Monomial matrix: column j carries zeta^(exps[j]) in row perm[j]."""

    __slots__ = ()

    def __new__(cls, perm: Perm, exps: tuple[int, ...], root_order: int):
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("perm is not a permutation")
        if len(exps) != len(perm):
            raise ValueError("one exponent per column required")
        if root_order < 1:
            raise ValueError("root_order must be positive")
        return super().__new__(cls, perm, tuple(e % root_order for e in exps), root_order)

    @classmethod
    def identity(cls, dim: int, root_order: int = 1) -> "MonomialMatrix":
        return cls(perm_identity(dim), (0,) * dim, root_order)

    @property
    def dim(self) -> int:
        return len(self.perm)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.dim != other.dim or self.root_order != other.root_order:
            raise ValueError("matrix shapes differ")
        perm = perm_mul(self.perm, other.perm)
        exps = tuple(
            (self.exps[other.perm[j]] + other.exps[j]) % self.root_order
            for j in range(self.dim)
        )
        return MonomialMatrix(perm, exps, self.root_order)

    def inv(self) -> "MonomialMatrix":
        p = perm_inv(self.perm)
        exps = tuple((-self.exps[p[i]]) % self.root_order for i in range(self.dim))
        return MonomialMatrix(p, exps, self.root_order)


def permutation_matrix(perm: Perm, root_order: int = 1) -> MonomialMatrix:
    """The permutation matrix of perm viewed as a monomial matrix."""
    return MonomialMatrix(perm, (0,) * len(perm), root_order)


def direct_sum(*mats: MonomialMatrix) -> MonomialMatrix:
    """Block direct sum; root orders are merged by least common multiple."""
    e = math.lcm(*(m.root_order for m in mats))
    perm: list[int] = []
    exps: list[int] = []
    offset = 0
    for m in mats:
        perm.extend(p + offset for p in m.perm)
        exps.extend(x * (e // m.root_order) for x in m.exps)
        offset += m.dim
    return MonomialMatrix(tuple(perm), tuple(exps), e)


TameWeights = namedtuple("TameWeights", ["v", "w", "a"])


class FiniteGroup:
    """A finite permutation group, closed element list plus lookups;
    generators, if given, must generate it."""

    def __init__(
        self, degree: int, elements: Sequence[Perm], generators: Optional[Sequence[Perm]] = None
    ):
        self._setup(degree, tuple(elements), None, generators, None)

    @classmethod
    def _closed(
        cls, degree: int, index: dict[Perm, int], generators: Sequence[Perm], right: list[list[int]]
    ) -> "FiniteGroup":
        """The group a closure found, its index and right Cayley table taken as they are."""
        group = cls.__new__(cls)
        group._setup(degree, tuple(index), index, generators, right)
        return group

    def _setup(self, degree, elements, index, generators, right):
        self.degree = degree
        self.elements = elements
        self.index = {g: i for i, g in enumerate(elements)} if index is None else index
        if perm_identity(degree) not in self.index:
            raise ValueError("element list must contain the identity")
        self._generators = None if generators is None else tuple(generators)
        # right[k][i] = index of elements[i] * generators[k]
        self._right: Optional[list[list[int]]] = right
        self._classes: Optional[list[list[Perm]]] = None
        self._class_of: list[int] = []

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self.index

    @property
    def identity(self) -> Perm:
        return perm_identity(self.degree)

    def inverse(self, g: Perm) -> Perm:
        return perm_inv(g)

    @property
    def generators(self) -> tuple[Perm, ...]:
        """The given generators, or else the elements that the span of those
        before them misses; the span grows by whole cosets (Dimino)."""
        if self._generators is None:
            gens: list[Perm] = []
            span = [self.identity]
            seen = set(span)
            for g in self.elements:
                if g not in seen:
                    gens.append(g)
                    sub, reps = span[:], [g]
                    for r in reps:  # left cosets r*sub, closed under s*r
                        if r not in seen:
                            coset = [perm_mul(r, h) for h in sub]
                            span += coset
                            seen.update(coset)
                            reps += [perm_mul(s, r) for s in gens]
            self._generators = tuple(gens)
        return self._generators

    def exponent(self) -> int:
        return math.lcm(*(perm_order(c[0]) for c in self.conjugacy_classes()))

    def power(self, g: Perm, m: int) -> Perm:
        """g^m by square and multiply; m may be any integer."""
        if g not in self.index:
            raise ValueError("element not in group")
        m %= perm_order(g)
        out = self.identity
        base = g
        while m:
            if m & 1:
                out = perm_mul(out, base)
            base = perm_mul(base, base)
            m >>= 1
        return out

    def _right_table(self) -> list[list[int]]:
        """right[k][i] = index of elements[i] * generators[k]: kept by the
        closure, filled here once (perm_mul per entry) for an element list."""
        if self._right is None:
            index = self.index
            self._right = [
                [index[g] for g in map(_reader(s), self.elements)] for s in self.generators
            ]
        return self._right

    def conjugacy_classes(self) -> list[list[Perm]]:
        """Classes in order of first appearance in the element list, each
        sorted.  Each class is the orbit of its first element under
        conjugation by the generators, walked on element indices.

        A breadth-first tree g_j = g_i * s_k from the identity, read off the
        right Cayley table, gives for each generator t left[j] = index of
        t * g_j as right[k][left[i]], starting from t * 1 = t; the inverse
        of right[t] then takes t * g_j to t * g_j * t^-1."""
        if self._classes is None:
            right = self._right_table()
            n, one = len(self.elements), self.index[self.identity]
            tree, order, reached = [], [one], [False] * n
            reached[one] = True
            for i in order:
                for col in right:
                    j = col[i]
                    if not reached[j]:
                        reached[j] = True
                        order.append(j)
                        tree.append((j, i, col))
            if len(order) < n:
                raise ValueError("the generators do not generate the group")
            conj = []
            for col_t in right:
                left = [0] * n
                left[one] = col_t[one]
                for j, i, col in tree:
                    left[j] = col[left[i]]
                undo = [0] * n  # y * t -> y
                for y, yt in enumerate(col_t):
                    undo[yt] = y
                conj.append([undo[x] for x in left])
            class_of = [-1] * n
            classes: list[list[Perm]] = []
            for start in range(n):
                if class_of[start] < 0:
                    class_of[start] = len(classes)
                    orbit = [start]
                    for x in orbit:
                        for c in conj:
                            y = c[x]
                            if class_of[y] < 0:
                                class_of[y] = len(classes)
                                orbit.append(y)
                    classes.append(sorted([self.elements[x] for x in orbit]))
            self._class_of, self._classes = class_of, classes
        return self._classes

    def class_index(self, g: Perm) -> int:
        """Position in conjugacy_classes() of the class holding g."""
        self.conjugacy_classes()
        return self._class_of[self.index[g]]


class MonomialRep:
    """A monomial representation of a FiniteGroup, one matrix per element."""

    def __init__(self, dim: int, root_order: int, matrices: Mapping[Perm, MonomialMatrix]):
        self.dim = dim
        self.root_order = root_order
        # closure rows stay encoded until a matrix is asked for
        self.matrices = matrices if isinstance(matrices, _ClosureMatrices) else dict(matrices)

    def matrix(self, g: Perm) -> MonomialMatrix:
        return self.matrices[g]

    def eigen_exponents(self, g: Perm) -> tuple[Fraction, ...]:
        """Multiset of eigenvalue exponents in [0,1), as a sorted tuple."""
        m = self.matrix(g)
        e = m.root_order
        out = []
        for cyc in perm_cycles(m.perm):
            c = len(cyc)
            s = sum(m.exps[j] for j in cyc)
            for t in range(c):
                out.append(Fraction((s + e * t) % (c * e), c * e))
        return tuple(sorted(out))

    def tame_weights(self, g: Perm) -> TameWeights:
        """Weights (v, w, a) of g: v = sum of eigenvalue exponents,
        a = number of nonzero exponents, w = a - v.

        Summed per cycle: a c-cycle whose exponents sum to s has the
        exponents (s mod e + e*u)/(c*e), u = 0..c-1, which add up to
        (s mod e)/e + (c-1)/2, and exactly one of them is 0 when e | s."""
        m = self.matrix(g)
        e, exps = m.root_order, m.exps
        cycles = perm_cycles(m.perm)
        residues = [sum([exps[j] for j in cyc]) % e for cyc in cycles]
        a = len(exps) - residues.count(0)
        v = Fraction(2 * sum(residues) + e * (len(exps) - len(cycles)), 2 * e)
        return TameWeights(v, a - v, Fraction(a))


class _ReducedEntry(dict):
    """Memo of a row entry after a product: a point below degree stays, and
    a column entry degree + 2e*row + x with e <= x < 2e loses e."""

    def __init__(self, degree: int, root_order: int):
        super().__init__((i, i) for i in range(degree))
        self.degree, self.root_order = degree, root_order

    def __missing__(self, v: int) -> int:
        e = self.root_order
        out = self[v] = v - e if (v - self.degree) % (2 * e) >= e else v
        return out


class _ClosureMatrices(Mapping):
    """The matrices of a closure, kept as rows and decoded on first lookup."""

    def __init__(self, rows: list[tuple[int, ...]], index: dict[Perm, int], degree: int, root_order: int):
        self._rows, self._index = rows, index
        self._degree, self._root_order = degree, root_order
        self._decoded: dict[Perm, MonomialMatrix] = {}

    def __getitem__(self, g: Perm) -> MonomialMatrix:
        m = self._decoded.get(g)
        if m is None:
            tail = self._rows[self._index[g]][self._degree :]
            cols = [divmod(c - self._degree, 2 * self._root_order) for c in tail]
            m = self._decoded[g] = MonomialMatrix(
                tuple(r for r, _ in cols), tuple(x for _, x in cols), self._root_order
            )
        return m

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._rows)


def group_closure(
    generators: Sequence[Perm],
    rep_generators: Optional[Sequence[MonomialMatrix]] = None,
    max_size: int = DEFAULT_MAX_GROUP_SIZE,
) -> tuple[FiniteGroup, Optional[MonomialRep]]:
    """Close generators under multiplication, carrying matrices along.

    Each element (g, rho(g)) is one flat row: the degree points of g, then
    one entry degree + 2e*perm[j] + exps[j] per matrix column j, where e
    is the root order.  Right multiplication by a generator s reads row
    entries at fixed indices, adds fixed exponent offsets and takes a
    column's exponent back below e; with columns 2e apart the unreduced
    sum cannot spill into the next row, so an edge costs O(degree + dim)
    whatever e is.  Matrices are decoded from the rows only when looked up.

    Walks the Cayley graph breadth-first from the identity, taking the
    rows in the order they are found.  Each product g*s is looked up once,
    and its index is kept: the returned group carries this right Cayley
    table, from which its conjugacy classes are found on element indices.
    Whenever two words reach the same permutation with different matrices
    the assignment extends to no homomorphism and InconsistentRepresentation
    is raised.  GroupTooLarge is raised once the element count passes
    max_size.
    """
    if not generators:
        raise ValueError("need at least one generator")
    degree = len(generators[0])
    if any(len(g) != degree for g in generators):
        raise ValueError("generators act on different point sets")
    dim, root_order, mats = 0, 1, [MonomialMatrix.identity(0)] * len(generators)
    if rep_generators is not None:
        if len(rep_generators) != len(generators):
            raise ValueError("need exactly one matrix per generator")
        dims = {m.dim for m in rep_generators}
        orders = {m.root_order for m in rep_generators}
        if len(dims) != 1 or len(orders) != 1:
            raise ValueError("generator matrices disagree in shape")
        dim, root_order, mats = dims.pop(), orders.pop(), rep_generators
    # g*s reads g's row at idx and adds off: perm_mul on the points, and the
    # matrix product's perm[s.perm[j]] and exps[s.perm[j]] + s.exps[j]; with
    # no offset (s.exps all 0) no exponent can reach e and g*s is a pure read;
    # right[k] collects the index of g*s for each row g in turn
    right: list[list[int]] = [[] for _ in generators]
    steps = []
    for s, m, col in zip(generators, mats, right):
        read = _reader(tuple(s) + tuple(degree + p for p in m.perm))
        steps.append((read, (0,) * degree + m.exps if any(m.exps) else None, col.append))
    reduce = _ReducedEntry(degree, root_order).__getitem__
    ident = perm_identity(degree) + tuple(degree + 2 * root_order * j for j in range(dim))
    rows = [ident]
    index = {ident[:degree]: 0}
    for g in rows:  # the list grows as it is walked: breadth-first order
        for read, off, put in steps:
            h = read(g) if off is None else tuple(map(reduce, map(add, read(g), off)))
            head = h[:degree]
            j = index.get(head)
            if j is None:
                j = len(rows)
                if j >= max_size:
                    raise GroupTooLarge(f"closure exceeded {max_size} elements")
                index[head] = j
                rows.append(h)
            elif rows[j] != h:
                raise InconsistentRepresentation("two words for one element got different matrices")
            put(j)
    group = FiniteGroup._closed(degree, index, generators, right)
    rep = None
    if rep_generators is not None:
        rep = MonomialRep(dim, root_order, _ClosureMatrices(rows, index, degree, root_order))
    return group, rep


def rep_direct_sum(group: FiniteGroup, *reps: MonomialRep) -> MonomialRep:
    """Direct sum of representations of the same group."""
    e = math.lcm(*(r.root_order for r in reps))
    dim = sum(r.dim for r in reps)
    matrices = {
        g: direct_sum(*(r.matrix(g) for r in reps)) for g in group
    }
    return MonomialRep(dim, e, matrices)


def permutation_rep(group: FiniteGroup, copies: int = 1) -> MonomialRep:
    """The natural permutation representation of the group, direct-summed."""
    matrices = {}
    for g in group:
        blocks = [permutation_matrix(g)] * copies
        matrices[g] = direct_sum(*blocks) if copies > 1 else permutation_matrix(g)
    return MonomialRep(group.degree * copies, 1, matrices)


def from_cayley_table(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Group from a Cayley table via its regular permutation action.

    table[i][j] must be the index of element i times element j, with
    element 0 the identity.  Each row becomes the permutation h -> g*h.
    """
    n = len(table)
    perms = []
    for i, row in enumerate(table):
        p = tuple(int(x) for x in row)
        if sorted(p) != list(range(n)):
            raise ValueError(f"row {i} of the Cayley table is not a permutation")
        perms.append(p)
    if perms and perms[0] != perm_identity(n):
        raise ValueError("element 0 must be the identity")
    return FiniteGroup(n, perms)


# ---------------------------------------------------------------------------
# serialization


def group_to_json(group: FiniteGroup, rep: MonomialRep, generators: Optional[Sequence[Perm]] = None) -> dict:
    """JSON form: degree, generating cycles (1-based), and generator matrices."""
    if generators is None:
        generators = [g for g in group if g != group.identity] or [group.identity]
    cycles = [
        [[p + 1 for p in cyc] for cyc in perm_cycles(g) if len(cyc) > 1]
        for g in generators
    ]
    mats = [
        {
            "perm": [p + 1 for p in rep.matrix(g).perm],
            "exps": list(rep.matrix(g).exps),
        }
        for g in generators
    ]
    return {
        "degree": group.degree,
        "generators": cycles,
        "rep": {"dim": rep.dim, "root_order": rep.root_order, "matrices": mats},
    }


def group_from_json(obj: Mapping, max_size: int = DEFAULT_MAX_GROUP_SIZE) -> tuple[FiniteGroup, MonomialRep]:
    degree = _json_int(obj["degree"])
    gens = [perm_from_cycles(degree, cycles) for cycles in obj["generators"]]
    rep = obj["rep"]
    dim = _json_int(rep["dim"])
    e = _json_int(rep["root_order"])
    mats = [
        MonomialMatrix(
            tuple(_json_int(p) - 1 for p in m["perm"]),
            tuple(_json_int(x) for x in m["exps"]),
            e,
        )
        for m in rep["matrices"]
    ]
    if any(m.dim != dim for m in mats):
        raise ValueError("matrix dimension disagrees with declared dim")
    group, rep_obj = group_closure(gens, mats, max_size=max_size)
    assert rep_obj is not None
    return group, rep_obj
