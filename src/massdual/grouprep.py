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


def perm_from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> Perm:
    """Build a permutation from disjoint cycles of points 1..degree; a point
    met twice, in one cycle or in two, is refused."""
    out = list(range(degree))
    seen: set[int] = set()
    for cyc in cycles:
        pts = [_json_int(p) - 1 for p in cyc]
        if any(p < 0 or p >= degree for p in pts):
            raise ValueError(f"cycle point out of range for degree {degree}")
        if len(set(pts)) < len(pts) or not seen.isdisjoint(pts):
            raise ValueError("cycles are not disjoint")
        seen.update(pts)
        for i, p in enumerate(pts):
            out[p] = pts[(i + 1) % len(pts)]
    return tuple(out)


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
    generators, if given, must generate it.  A byte-row closure builds
    elements, index and the sorted classes only when they are read."""

    def __init__(
        self, degree: int, elements: Sequence[Perm], generators: Optional[Sequence[Perm]] = None
    ):
        elements = tuple(elements)
        index = {g: i for i, g in enumerate(elements)}
        if len(index) < len(elements):
            raise ValueError("the element list repeats an element")
        self._setup(degree, index, (elements, index), generators)

    def _setup(self, degree, heads, views, generators, table=None, tree=None):
        self.degree = degree
        # heads: points of each element (Perms, or bytes of byte rows) -> its index
        self._heads, self._views = heads, views
        if perm_identity(degree) not in self:
            raise ValueError("element list must contain the identity")
        self._generators = None if generators is None else tuple(generators)
        # table[k][i] = index of generators[k] * elements[i], and the tree that
        # found the elements; an element list gets them from _close
        self._table: Optional[list[list[int]]] = table
        self._tree: Optional[list[tuple[int, int, list[int]]]] = tree
        self._orbits: Optional[list[list[int]]] = None
        self._representatives: tuple[Perm, ...] = ()
        self._classes: Optional[list[list[Perm]]] = None
        self._class_of: list[int] = []
        self._exponent: Optional[int] = None

    elements = property(lambda self: self._tuple_view()[0], doc="The elements, in order.")
    index = property(lambda self: self._tuple_view()[1], doc="Element -> its place in elements.")

    def _tuple_view(self) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
        """elements and index, from bytes heads on first read: zip reads degree points at a time."""
        if self._views is None:
            elements = tuple(zip(*[iter(b"".join(self._heads))] * self.degree)) if self.degree else ((),)
            self._views = elements, dict(zip(elements, range(len(elements))))
        return self._views

    def _at(self, g) -> int:
        """The index of g: by its bytes heads until the tuple view is built,
        but by that view where bytes() differs from it (lists, floats, > 255)."""
        if self._views is None and type(g) is tuple:
            try:
                return self._heads[bytes(g)]
            except (TypeError, ValueError):
                pass
        return self.index[g]

    def __len__(self):
        return len(self._heads)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        try:
            return self._at(g) >= 0
        except KeyError:
            return False

    @property
    def identity(self) -> Perm:
        return perm_identity(self.degree)

    @property
    def generators(self) -> tuple[Perm, ...]:
        """The given generators, or else each element of the list that the
        closure of those before it misses (as Dimino's algorithm picks them),
        so that each one at least doubles the group closed so far."""
        if self._generators is None:
            self._close()
        return self._generators

    def _close(self) -> None:
        """For a group built from an element list: close its generators, found
        here unless given, and take the closure's left Cayley table and tree
        with each closure index x renumbered to at[x], its place in the list."""
        n, gens = len(self), self._generators
        try:
            if gens is None:
                gens, closure = [], group_closure([self.identity], max_size=n)[0]
                for g in self.elements:
                    if g not in closure:  # answered from its heads, with no tuple view
                        gens.append(g)
                        closure = group_closure(gens, max_size=n)[0]
            else:
                closure = group_closure(gens or [self.identity], max_size=n)[0]
            at = [self.index[g] for g in closure.elements]
        except (KeyError, GroupTooLarge):
            raise ValueError("the element list is not closed under multiplication") from None
        if len(at) < n:
            raise ValueError("the generators do not generate the group")
        table = {}
        for col in closure._table:
            table[id(col)] = renumbered = [0] * n
            for x, y in zip(at, col):
                renumbered[x] = at[y]
        self._generators, self._table = tuple(gens), list(table.values())
        self._tree = [(at[j], at[i], table[id(col)]) for j, i, col in closure._tree]

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = math.lcm(*map(perm_order, self.class_representatives()))
        return self._exponent

    def power(self, g: Perm, m: int) -> Perm:
        """g^m, each cycle of g (read as ints) rotated by m mod its length; m may be any integer."""
        if g not in self:
            raise ValueError("element not in group")
        out = list(map(int, g))
        for cyc in perm_cycles(out):
            for t, x in enumerate(cyc):
                out[x] = cyc[(t + m) % len(cyc)]
        return tuple(out)

    def _walk(self) -> list[list[int]]:
        """The classes as orbits of element indices under conjugation by the
        generators, in order of first appearance in the element list, each
        walked from its first element; fills _class_of and, decoding the
        heads once, _representatives.

        The walk reads the left Cayley table and the breadth-first tree:
        triples (j, i, table[k]) with g_j = s_k * g_i, rooted at the identity,
        element root.  For each generator t, other[j] = index of g_j * t^-1 is
        table[k][other[i]], from other[root] = t^-1 (the x with t * x = 1), and
        table[t] takes it to t * g_j * t^-1."""
        if self._orbits is None:
            if self._table is None:
                self._close()
            n, root = len(self), self._at(self.identity)
            conj = []
            for col_t in self._table:
                other = [0] * n
                other[root] = col_t.index(root)
                for j, i, col in self._tree:
                    other[j] = col[other[i]]
                conj.append([col_t[x] for x in other])
            class_of = [-1] * n
            orbits: list[list[int]] = []
            for start in range(n):
                if class_of[start] < 0:
                    class_of[start] = len(orbits)
                    orbit = [start]
                    for x in orbit:
                        for c in conj:
                            y = c[x]
                            if class_of[y] < 0:
                                class_of[y] = len(orbits)
                                orbit.append(y)
                    orbits.append(orbit)
            heads = list(self._heads)
            self._representatives = tuple(tuple(heads[orbit[0]]) for orbit in orbits)
            self._class_of, self._orbits = class_of, orbits
        return self._orbits

    def conjugacy_classes(self) -> list[list[Perm]]:
        """Classes in order of first appearance in the element list, each
        sorted: the orbits of _walk, sorted as tuples on first call."""
        if self._classes is None:
            self._classes = [sorted(map(self.elements.__getitem__, orbit)) for orbit in self._walk()]
        return self._classes

    def class_representatives(self) -> tuple[Perm, ...]:
        """One element per class, in class order: the first one in element
        order, not the smallest, read from the heads without the tuple view."""
        self._walk()
        return self._representatives

    def class_index(self, g: Perm) -> int:
        """Position in conjugacy_classes() of the class holding g."""
        self._walk()
        return self._class_of[self._at(g)]


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
        v = 2 * sum(residues) + e * (len(exps) - len(cycles))
        return TameWeights(Fraction(v, 2 * e), Fraction(2 * e * a - v, 2 * e), Fraction(a))


class _LeftAction(dict):
    """T_s for rows too wide for bytes: an entry of g's row -> the entry in
    the same place of s*g's row (see group_closure), each computed when first
    read, so that building it costs nothing however large the root order."""

    def __init__(self, s: Perm, m: MonomialMatrix, degree: int):
        super().__init__(enumerate(s))
        self.m, self.degree = m, degree

    def __missing__(self, v: int) -> int:
        e = self.m.root_order
        p, x = divmod(v - self.degree, e)
        out = self[v] = self.degree + e * self.m.perm[p] + (x + self.m.exps[p]) % e
        return out


class _ClosureMatrices(Mapping):
    """The matrices of a closure, kept as rows (bytes or tuples) and decoded
    on first lookup; an element is looked up through its group."""

    def __init__(self, rows: list, group: FiniteGroup, root_order: int):
        self._rows, self._group = rows, group
        self._degree, self._root_order = group.degree, root_order
        self._decoded: dict[Perm, MonomialMatrix] = {}

    def __getitem__(self, g: Perm) -> MonomialMatrix:
        m = self._decoded.get(g)
        if m is None:
            tail = self._rows[self._group._at(g)][self._degree :]
            cols = [divmod(c - self._degree, self._root_order) for c in tail]
            m = self._decoded[g] = MonomialMatrix._make(  # valid by construction: no re-check
                (tuple(r for r, _ in cols), tuple(x for _, x in cols), self._root_order)
            )
        return m

    def __iter__(self):
        return iter(self._group)

    def __len__(self):
        return len(self._rows)


def group_closure(
    generators: Sequence[Perm],
    rep_generators: Optional[Sequence[MonomialMatrix]] = None,
    max_size: int = DEFAULT_MAX_GROUP_SIZE,
) -> tuple[FiniteGroup, Optional[MonomialRep]]:
    """Close generators under multiplication, carrying matrices along.

    Each element (g, rho(g)) is one flat row: the degree points of g, then
    one entry degree + e*perm[j] + exps[j] per matrix column j, where e is
    the root order.  A generator s multiplies on the left, and s*g sends
    every entry v of g's row through one table T_s: a point v goes to s[v],
    and degree + e*p + x goes to degree + e*s.perm[p] + (x + s.exps[p]) mod e.
    When the width degree + e*dim is at most 256 the rows are bytes and an
    edge is one bytes.translate; wider rows are tuples read through a T_s
    filled lazily, so an edge costs O(degree + dim) whatever e is.  Matrices
    are decoded from the rows only when looked up.

    Walks the Cayley graph breadth-first from the identity, taking the
    rows in the order they are found.  Each product s*g is looked up once,
    and its index is kept: the returned group carries this left Cayley
    table and breadth-first tree for its class walk, and the row heads
    (bytes for byte rows) as its lookup; its tuple views are built when read.
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
    dim, e, mats = 0, 1, [MonomialMatrix.identity(0)] * len(generators)
    if rep_generators is not None:
        if len(rep_generators) != len(generators):
            raise ValueError("need exactly one matrix per generator")
        dims = {m.dim for m in rep_generators}
        orders = {m.root_order for m in rep_generators}
        if len(dims) != 1 or len(orders) != 1:
            raise ValueError("generator matrices disagree in shape")
        dim, e, mats = dims.pop(), orders.pop(), rep_generators
    # s*g is act(g, T_s); left[k] collects the index of s_k*g for each row g in
    # turn, and tree the (j, i, left[k]) that found row j
    small = degree + e * dim <= 256
    left: list[list[int]] = [[] for _ in generators]
    steps = []
    for s, m, col in zip(generators, mats, left):
        if small:
            cols = [degree + e * p + (x + y) % e for p, y in zip(m.perm, m.exps) for x in range(e)]
            steps.append(((bytes(s) + bytes(cols)).ljust(256, b"\0"), col, col.append))
        else:
            steps.append((_LeftAction(s, m, degree).__getitem__, col, col.append))
    act = bytes.translate if small else lambda g, get: tuple(map(get, g))
    ident = perm_identity(degree) + tuple(range(degree, degree + e * dim, e))
    rows = [bytes(ident) if small else ident]
    found = {rows[0][:degree]: 0}
    tree = []
    for i, g in enumerate(rows):  # the list grows as it is walked: breadth-first order
        for table, col, put in steps:
            h = act(g, table)
            head = h[:degree]
            j = found.get(head)
            if j is None:
                j = len(rows)
                if j >= max_size:
                    raise GroupTooLarge(f"closure exceeded {max_size} elements")
                found[head] = j
                rows.append(h)
                tree.append((j, i, col))
            elif rows[j] != h:
                raise InconsistentRepresentation("two words for one element got different matrices")
            put(j)
    group = FiniteGroup.__new__(FiniteGroup)  # the closure's heads, table and tree, as they are
    group._setup(degree, found, None if small else (tuple(found), found), generators, left, tree)
    rep = None
    if rep_generators is not None:
        rep = MonomialRep(dim, e, _ClosureMatrices(rows, group, e))
    return group, rep


def rep_direct_sum(group: FiniteGroup, *reps: MonomialRep) -> MonomialRep:
    """Direct sum of representations of the same group: the closure of its
    generators (the identity for none) with their summed matrices."""
    gens = group.generators or (group.identity,)
    return group_closure(gens, [direct_sum(*(r.matrix(g) for r in reps)) for g in gens])[1]


def permutation_rep(group: FiniteGroup, copies: int = 1) -> MonomialRep:
    """The natural permutation representation of the group, direct-summed:
    the closure of its generators with their summed permutation matrices."""
    gens = group.generators or (group.identity,)
    return group_closure(gens, [direct_sum(*[permutation_matrix(g)] * copies) for g in gens])[1]


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
    return group_closure(gens, mats, max_size=max_size)
