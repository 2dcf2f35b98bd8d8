"""Abstract Abelian anyon theories with exact rational statistics.

A theory is a finite abelian group (cyclic generator orders) equipped with
exchange statistics theta(a) = exp(2 pi i q(a)) and braiding
B(a, a') = exp(2 pi i b(a, a')), where q is a quadratic form valued in Q/Z
and b is its symmetric polarization:

    q(sum a_i g_i) = sum_i a_i^2 q(g_i) + sum_{i<j} a_i a_j b(g_i, g_j),
    b(x, y) = q(x + y) - q(x) - q(y).

Statistics are data: quadratic_form and bilinear_form read q and b off the
generator tables (q_gen, b_gen), and every presentation (twisted double, K
matrix, condensation, lattice extraction) hands theory_from_presentation
such tables. A theory is checked once, when it is made: AnyonTheory
refuses tables that are not a quadratic form on its group, whichever route
(or JSON) they come from. A split, a condensation included, returns the
theory with its generators in the presentation's coordinates and a
projection onto it. One pairing kernel, the anyons braiding trivially with
given targets, is both a condensation's deconfined subgroup and the
modularity test. Also provided: twisted-double theories from a TqdParams
(N_i; n_i, n_ij), stacking, Lagrangian subgroups, fusion groups, and exact
isomorphism search. Condensation, modularity and both fusion-group routes
read their groups off relations (kernel solves and Smith forms), never by
enumerating anyons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Callable, Iterable, Sequence

from .exactmath import (IntMatrix, ModSolver, Rational01, integer_kernel,
                        invariant_factors, rat_sum, smith_normal_form,
                        unimodular_inverse)
from .stabilizer import VerificationError

Element = tuple[int, ...]


class TheoryCheckError(VerificationError):
    """A theory built here fails an exact consistency check."""


class RelationError(TheoryCheckError):
    """A presentation relation is not a boson that braids trivially with
    every generator, so the quadratic form does not descend to the quotient.
    Every caller derives its relations itself, so this is a failed check
    (exit 1), not bad input."""


def quadratic_form(q_gen: Sequence[Rational01],
                   b_gen: Sequence[Sequence[Rational01]],
                   a: Sequence[int]) -> Rational01:
    """q(sum a_i g_i) = sum_i a_i^2 q(g_i) + sum_{i<j} a_i a_j b(g_i, g_j)."""
    terms = []
    for i, ai in enumerate(a):
        if ai:
            terms.append(q_gen[i] * (ai * ai))
            for j in range(i + 1, len(a)):
                if a[j]:
                    terms.append(b_gen[i][j] * (ai * a[j]))
    return rat_sum(terms)


def bilinear_form(b_gen: Sequence[Sequence[Rational01]], a: Sequence[int],
                  c: Sequence[int]) -> Rational01:
    """b(sum a_i g_i, sum c_j g_j) = sum_{i,j} a_i c_j b(g_i, g_j)."""
    terms = []
    for i, ai in enumerate(a):
        if ai:
            for j, cj in enumerate(c):
                if cj:
                    terms.append(b_gen[i][j] * (ai * cj))
    return rat_sum(terms)


@dataclass(frozen=True)
class AnyonTheory:
    """Anyon theory on prod_i Z_{orders[i]} (elements are exponent tuples),
    presented on its cyclic generators by q and b tables.

    The one check on a theory runs here, when it is made (TheoryCheckError).
    The tables must be a quadratic form's: b symmetric with b_ii = 2 q_i.
    On integer vectors q(x) then satisfies q(n x) = n^2 q(x) and polarizes
    to b, so it is a quadratic form on the group iff x -> x + o_i e_i leaves
    it fixed: o_i^2 q_i = 0 and o_i b_ij = 0 (mod 1) for generators of
    order > 1. Order-1 generators carry only the zero exponent and are not
    checked.
    """

    orders: tuple[int, ...]
    q_gen: tuple[Rational01, ...]
    b_gen: tuple[tuple[Rational01, ...], ...]

    def __init__(self, orders, q_gen, b_gen):
        orders = tuple(int(o) for o in orders)
        if any(o < 1 for o in orders):
            raise ValueError("orders must be positive")
        q_gen = tuple(q_gen)
        b_gen = tuple(tuple(row) for row in b_gen)
        k = len(orders)
        if len(q_gen) != k or len(b_gen) != k or any(len(r) != k
                                                     for r in b_gen):
            raise ValueError("q_gen/b_gen shape mismatch")
        for i in range(k):
            if b_gen[i][i] != 2 * q_gen[i] or any(b_gen[i][j] != b_gen[j][i]
                                                  for j in range(i)):
                raise TheoryCheckError(f"generator tables are not a "
                                       f"quadratic form's: row {i} of b")
        live = [i for i, o in enumerate(orders) if o > 1]
        for i in live:
            o = orders[i]
            if not (q_gen[i] * (o * o)).is_zero() or any(
                    not (b_gen[i][j] * o).is_zero() for j in live):
                raise TheoryCheckError(f"q is not a quadratic form on the "
                                       f"group: generator {i} of order {o}")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "q_gen", q_gen)
        object.__setattr__(self, "b_gen", b_gen)

    @property
    def size(self) -> int:
        return prod(self.orders)

    def reduce(self, a: Sequence[int]) -> Element:
        return tuple(x % o for x, o in zip(a, self.orders))

    def elements(self) -> list[Element]:
        return list(itertools.product(*(range(o) for o in self.orders)))

    def order_of(self, a: Sequence[int]) -> int:
        return lcm(*(o // gcd(x, o) for x, o in zip(a, self.orders)))

    def subgroup(self, gens: Sequence[Sequence[int]]) -> set[Element]:
        zero = (0,) * len(self.orders)
        group, frontier = {zero}, [zero]
        gens = [self.reduce(g) for g in gens]
        while frontier:
            base = frontier.pop()
            for g in gens:
                nxt = self.reduce([x + y for x, y in zip(base, g)])
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        return group

    def generators(self) -> list[Element]:
        k = len(self.orders)
        return [tuple(1 if t == i else 0 for t in range(k)) for i in range(k)]

    def q(self, a: Sequence[int]) -> Rational01:
        """Statistics of a (works on any integer exponent vector)."""
        return quadratic_form(self.q_gen, self.b_gen, a)

    def b(self, a: Sequence[int], c: Sequence[int]) -> Rational01:
        return bilinear_form(self.b_gen, a, c)

    def is_boson(self, a: Sequence[int]) -> bool:
        return self.q(a).is_zero()

    def to_json_dict(self) -> dict:
        return {"orders": list(self.orders),
                "q_gen": [str(v) for v in self.q_gen],
                "b_gen": [[str(v) for v in row] for row in self.b_gen]}

    @staticmethod
    def from_json_dict(data: dict) -> "AnyonTheory":
        parse = Rational01.from_string
        return AnyonTheory(data["orders"],
                           [parse(v) for v in data["q_gen"]],
                           [[parse(v) for v in row] for row in data["b_gen"]])


TRIVIAL_THEORY = AnyonTheory((), (), ())


def is_modular(theory: AnyonTheory) -> bool:
    """True iff no nontrivial anyon braids trivially with every generator:
    the pairing kernel against the generators is trivial."""
    return not _pairing_kernel(theory, theory.generators())


def _pairing_kernel(theory: AnyonTheory,
                    targets: Sequence[Sequence[int]]) -> list[Element]:
    """Nonzero, distinct, reduced generators of the subgroup of anyons x
    with b(x, t) = 0 for every target t. The pairings b(g_i, t), scaled to
    one denominator, are the columns of one ModSolver; its kernel vectors
    reduce to the subgroup's generators."""
    pairings = [[theory.b(g, t) for t in targets]
                for g in theory.generators()]
    den = lcm(*(v.denominator for row in pairings for v in row))
    kernel = ModSolver([[v.numerator * (den // v.denominator) for v in row]
                        for row in pairings],
                       [den] * len(targets)).kernel_basis()
    return [g for g in dict.fromkeys(theory.reduce(v) for v in kernel)
            if any(g)]


def topological_spins_census(theory: AnyonTheory) -> dict[str, int]:
    """Histogram of q(a) over all anyons, keyed by 'p/q' strings."""
    return _census(map(theory.q, theory.elements()))


def _census(spins: Iterable[Rational01]) -> dict[str, int]:
    census: dict[str, int] = {}
    for q in spins:
        key = str(q)
        census[key] = census.get(key, 0) + 1
    return census


# ---------------------------------------------------------------------------
# Lagrangian subgroups
# ---------------------------------------------------------------------------


def lagrangian_subgroups(theory: AnyonTheory) -> list[set[Element]]:
    """All subgroups of mutually transparent bosons detecting every outsider.

    Each returned subgroup L satisfies (i) q = 0 and b = 0 within L and
    (ii) every anyon outside L braids nontrivially with some member;
    |L|^2 = |A| is checked (TheoryCheckError otherwise).
    """
    elems = theory.elements()
    bosons = [a for a in elems if theory.is_boson(a)]
    found: set[frozenset] = set()

    def is_candidate_subgroup(sub: set[Element]) -> bool:
        return all(theory.q(x).is_zero() for x in sub) and \
            all(theory.b(x, y).is_zero() for x in sub for y in sub)

    def grow(current: set[Element], start: int) -> None:
        if frozenset(current) in found:
            return
        outside_ok = all(
            any(not theory.b(a, x).is_zero() for x in current)
            for a in elems if a not in current)
        if outside_ok:
            found.add(frozenset(current))
            return
        for idx in range(start, len(bosons)):
            c = bosons[idx]
            if c in current:
                continue
            if not all(theory.b(c, x).is_zero() for x in current):
                continue
            new = theory.subgroup(list(current) + [c])
            if not is_candidate_subgroup(new):
                continue
            grow(new, idx + 1)

    grow({(0,) * len(theory.orders)}, 0)
    out = [set(f) for f in sorted(found, key=lambda f: sorted(f))]
    for sub in out:
        if len(sub) ** 2 != theory.size:
            raise TheoryCheckError(f"Lagrangian subgroup of size {len(sub)} "
                                   f"in a theory of size {theory.size}")
    return out


# ---------------------------------------------------------------------------
# Presented theories (quotients of generator lattices)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PresentedTheory:
    """A split cyclic presentation of a quotient theory.

    theory: the split theory; gen_exprs[r] is the integer exponent vector of
    the r-th new generator over the original generators (the presentation's,
    or a condensation's parent theory's).
    """

    theory: AnyonTheory
    gen_exprs: tuple[tuple[int, ...], ...]
    # project original exponent vectors to new coordinates
    _project: Callable

    def project(self, vec: Sequence[int]) -> Element:
        return self._project(vec)


def theory_from_presentation(q_gen: Sequence[Rational01],
                             b_gen: Sequence[Sequence[Rational01]],
                             relations: IntMatrix) -> PresentedTheory:
    """Split Z^k / <relation columns> into cyclic factors carrying q and b.

    q_gen and b_gen tabulate the k = len(q_gen) presentation generators;
    quadratic_form and bilinear_form read every q and b here off them. The
    tables must pass AnyonTheory's table check (TheoryCheckError), the
    relation lattice must have full rank k, and each relation r must
    satisfy q(r) = 0 and b(r, e_i) = 0 so that q descends (RelationError).
    """
    k = len(q_gen)
    AnyonTheory([1] * k, q_gen, b_gen)  # order 1: the table check only
    basis = [tuple(1 if t == i else 0 for t in range(k)) for i in range(k)]
    for c in range(relations.cols):
        rel = [relations[r, c] for r in range(k)]
        if not quadratic_form(q_gen, b_gen, rel).is_zero():
            raise RelationError(f"relation {rel} is not a boson")
        for e in basis:
            if not bilinear_form(b_gen, rel, e).is_zero():
                raise RelationError(
                    f"relation {rel} braids with generator {e}")
    snf = smith_normal_form(relations)
    diag = snf.diagonal()
    if len(diag) < k or any(d == 0 for d in diag):
        raise ValueError("relation lattice does not have full rank")
    u_inv = unimodular_inverse(snf.U)
    keep = [r for r in range(k) if diag[r] != 1]
    gen_exprs = [tuple(u_inv[i, r] for i in range(k)) for r in keep]
    orders = [diag[r] for r in keep]
    theory = AnyonTheory(
        orders, [quadratic_form(q_gen, b_gen, w) for w in gen_exprs],
        [[bilinear_form(b_gen, w1, w2) for w2 in gen_exprs]
         for w1 in gen_exprs])

    U = snf.U

    def project(vec: Sequence[int]) -> Element:
        y = U.mat_vec(list(vec))
        return tuple(y[r] % diag[r] for r in keep)

    return PresentedTheory(theory, tuple(gen_exprs), project)


# ---------------------------------------------------------------------------
# Condensation
# ---------------------------------------------------------------------------


def condense(theory: AnyonTheory,
             bosons: Sequence[Sequence[int]]) -> PresentedTheory:
    """Condense mutually transparent bosons.

    Anyons braiding nontrivially with a condensed boson are confined and
    dropped; the rest are identified modulo fusion with the boson subgroup
    B (Bais & Slingerland, PRB 79, 045316, 2009). The deconfined subgroup
    is the pairing kernel against the bosons: exponent vectors x with
    sum_i x_i b(g_i, beta) = 0 (mod 1) for every boson beta. Its generators
    present the condensed theory with their parent q and b as tables, and
    relations {x : sum x_i gens_i in B}. The result's gen_exprs are its
    generators in parent coordinates; project(a) maps a deconfined parent
    anyon to its class by one solve, and a confined one raises
    TheoryCheckError.
    """
    k_parent = len(theory.orders)
    bos = [theory.reduce(b) for b in bosons]
    for b in bos:
        if not theory.q(b).is_zero():
            raise ValueError(f"{b} is not a boson")
    for b1 in bos:
        for b2 in bos:
            if not theory.b(b1, b2).is_zero():
                raise ValueError("condensed bosons must braid trivially")

    gens = _pairing_kernel(theory, bos)
    k = len(gens)
    # relation lattice: {x in Z^k : sum x_i gens_i in B}, via the integer
    # kernel of [gens | bosons | diag(orders)] projected to the x block.
    cols = ([list(g) for g in gens] + [list(b) for b in bos]
            + [[o if r == i else 0 for r in range(k_parent)]
               for i, o in enumerate(theory.orders)])
    A = IntMatrix([[col[r] for col in cols] for r in range(k_parent)],
                  cols=len(cols))
    kern = integer_kernel(A)
    proj = IntMatrix([[vec[i] for vec in kern] for i in range(k)],
                     cols=len(kern)) if kern else IntMatrix.zeros(k, 0)
    presented = theory_from_presentation(
        [theory.q(g) for g in gens],
        [[theory.b(g, h) for h in gens] for g in gens], proj)

    solver = ModSolver(cols[:k + len(bos)], theory.orders)

    def project(a: Sequence[int]) -> Element:
        sol = solver.solve(a)
        if sol is None:
            raise TheoryCheckError(f"{tuple(a)} is not deconfined")
        return presented.project(sol[:k])

    # q and b are quadratic, so agreeing on the generators and their pairs
    # preserves statistics on every class
    images = [project(g) for g in gens]
    condensed = presented.theory
    for i, (g, x) in enumerate(zip(gens, images)):
        if condensed.q(x) != theory.q(g) or any(
                condensed.b(x, y) != theory.b(g, h)
                for h, y in zip(gens[:i], images)):
            raise TheoryCheckError("statistics not preserved by condensation")
    gen_exprs = tuple(
        theory.reduce([sum(w * g[r] for w, g in zip(expr, gens))
                       for r in range(k_parent)])
        for expr in presented.gen_exprs)
    return PresentedTheory(condensed, gen_exprs, project)


# ---------------------------------------------------------------------------
# Stacking and standard theories
# ---------------------------------------------------------------------------


def stack(t1: AnyonTheory, t2: AnyonTheory) -> AnyonTheory:
    """Direct product theory: additive q, zero cross-braiding."""
    k1, k2 = len(t1.orders), len(t2.orders)
    zero = Rational01(0)
    b_gen = [tuple(t1.b_gen[i]) + (zero,) * k2 for i in range(k1)]
    b_gen += [(zero,) * k1 + tuple(t2.b_gen[i]) for i in range(k2)]
    return AnyonTheory(t1.orders + t2.orders, t1.q_gen + t2.q_gen, b_gen)


def stack_theories(theories: Sequence[AnyonTheory]) -> AnyonTheory:
    out = TRIVIAL_THEORY
    for t in theories:
        out = stack(out, t)
    return out


def zn_tc_theory(N: int) -> AnyonTheory:
    """Z_N toric code: anyons e^p m^q with q(e^p m^q) = p q / N."""
    zero = Rational01(0)
    inv = Rational01(1, N)
    return AnyonTheory((N, N), (zero, zero), ((zero, inv), (inv, zero)))


# ---------------------------------------------------------------------------
# Twisted quantum double theories
# ---------------------------------------------------------------------------


def _tqd_generator_data(params):
    """q and b on the presentation generators (c_1..c_M, phi_1..phi_M)."""
    M = params.M
    zero = Rational01(0)
    q = [zero] * M + [Rational01(params.n[i], params.N[i] ** 2)
                      for i in range(M)]
    b = [[zero] * (2 * M) for _ in range(2 * M)]
    for i in range(M):
        b[i][M + i] = b[M + i][i] = Rational01(1, params.N[i])
        b[M + i][M + i] = Rational01(2 * params.n[i], params.N[i] ** 2)
        for j in range(M):
            if i != j:
                b[M + i][M + j] = Rational01(params.nij[i][j],
                                             params.N[i] * params.N[j])
    return q, b


def _tqd_relation_matrix(params) -> IntMatrix:
    """Relation columns over (c_1..c_M, phi_1..phi_M):
    c_i^{N_i} = 1 and phi_i^{N_i} = c_i^{2 n_i} prod_{j != i} c_j^{n_ij}."""
    M = params.M
    cols = []
    for i in range(M):
        col = [0] * (2 * M)
        col[i] = params.N[i]
        cols.append(col)
    for i in range(M):
        col = [0] * (2 * M)
        col[M + i] = params.N[i]
        col[i] = -2 * params.n[i]
        for j in range(M):
            if j != i:
                col[j] = -params.nij[i][j]
        cols.append(col)
    return IntMatrix([[c[r] for c in cols] for r in range(2 * M)],
                     cols=len(cols))


def tqd_theory(N: Sequence[int], n: Sequence[int] | None = None,
               nij=None) -> AnyonTheory:
    """Anyon theory of the Abelian twisted double for (N_i; n_i, n_ij), or
    for N itself when it is a TqdParams (validated when it was made): the
    split presentation of its generator tables and relations."""
    from .lattice import TqdParams
    params = N if isinstance(N, TqdParams) else TqdParams(
        N, [0] * len(N) if n is None else n, nij)
    return theory_from_presentation(*_tqd_generator_data(params),
                                    _tqd_relation_matrix(params)).theory


def stack_condense_to_tqd(params, target=None
                          ) -> tuple[PresentedTheory, bool]:
    """Condense the model's bosons b_i in a stack of Z_{N_i^2} toric codes.

    Returns the condensation result and whether the condensed theory is
    isomorphic to `target`, tqd_theory(params) unless the caller built it.
    """
    M = params.M
    stacked = stack_theories([zn_tc_theory(Ni * Ni) for Ni in params.N])
    # coordinates: (e_1, m_1, e_2, m_2, ...)
    bosons = []
    for i in range(M):
        vec = [0] * (2 * M)
        vec[2 * i] = params.N[i] * params.n[i]
        vec[2 * i + 1] = -params.N[i]
        for j in range(i):
            vec[2 * j] = params.N[j] * params.nij[i][j]
        bosons.append(vec)
    result = condense(stacked, bosons)
    verdict = theories_isomorphic(
        result.theory, tqd_theory(params) if target is None else target)
    return result, verdict


# ---------------------------------------------------------------------------
# Fusion groups and cocycles
# ---------------------------------------------------------------------------


def fusion_group(params) -> list[int]:
    """Invariant factors (> 1) of the anyon fusion group, via SNF of the
    presentation relations."""
    return _fusion_invariants(_tqd_relation_matrix(params), params)


def _fusion_invariants(relations: IntMatrix, params) -> list[int]:
    """Invariant factors (> 1) of Z^{2M} / <relation columns>, checked to be
    2M finite orders whose product is |G|^2."""
    diag = invariant_factors(relations)
    size = prod(params.N) ** 2
    if len(diag) != 2 * params.M or 0 in diag or prod(diag) != size:
        raise TheoryCheckError(f"fusion group invariant factors {diag} are "
                               f"not {2 * params.M} finite orders of product "
                               f"{size}")
    return sorted(d for d in diag if d != 1)


def fusion_group_from_cocycle(params) -> list[int]:
    """Fusion group from the central extension of the flux group G by the
    charge group G*, with multiplication twisted by the 2-cocycle
    lambda(g, h). Unit fluxes f_i and unit charges c_i generate it. Each
    f_i^{N_i}, taken through the twisted product by square-and-multiply,
    must be a pure charge; with c_i^{N_i} = 1 these are 2M relations, a
    presentation of a group of order |G|^2."""
    M = params.M
    Ns = params.N

    def lam(g, h):
        out = []
        for i in range(M):
            total = 0
            for j in range(M):
                carry = ((g[j] + h[j]) - ((g[j] + h[j]) % Ns[j])) // Ns[j]
                if carry:
                    total += params.nij[i][j] * carry if j != i \
                        else 2 * params.n[i] * carry
            out.append(total % Ns[i])
        return tuple(out)

    def mul(a, b):
        flux = tuple((a[0][i] + b[0][i]) % Ns[i] for i in range(M))
        tw = lam(a[0], b[0])
        chg = tuple((a[1][i] + b[1][i] + tw[i]) % Ns[i] for i in range(M))
        return (flux, chg)

    zero = (0,) * M
    cols = []
    for i, Ni in enumerate(Ns):
        unit = tuple(int(t == i) for t in range(M))
        power, base, e = (zero, zero), (unit, zero), Ni
        while e:
            if e & 1:
                power = mul(power, base)
            base, e = mul(base, base), e >> 1
        if power[0] != zero:
            raise TheoryCheckError(f"flux {unit} to the power {Ni} is "
                                   f"{power}, not a pure charge")
        # f_i^{N_i} = prod_j c_j^{power_j} and c_i^{N_i} = 1
        cols += [[Ni * u for u in unit] + [-c for c in power[1]],
                 [0] * M + [Ni * u for u in unit]]
    return _fusion_invariants(
        IntMatrix([[c[r] for c in cols] for r in range(2 * M)]), params)


def cocycle_value(params, g: Sequence[int], h: Sequence[int],
                  k: Sequence[int]) -> Rational01:
    """Phase exponent of the group 3-cocycle omega(g, h, k) (coboundary-free
    representative):

    sum_i n_i g_i (h_i + k_i - [h_i+k_i]_{N_i}) / N_i^2
      + sum_{j>i} n_ij g_i (h_j + k_j - [h_j+k_j]_{N_j}) / (N_i N_j).
    """
    M = params.M
    Ns = params.N
    for vec in (g, h, k):
        if len(vec) != M or any(not 0 <= v < Ns[i]
                                for i, v in enumerate(vec)):
            raise ValueError("group element out of range")
    terms = []
    for i in range(M):
        carry_i = (h[i] + k[i]) - ((h[i] + k[i]) % Ns[i])
        terms.append(Rational01(params.n[i] * g[i] * carry_i, Ns[i] ** 2))
        for j in range(i + 1, M):
            carry_j = (h[j] + k[j]) - ((h[j] + k[j]) % Ns[j])
            terms.append(Rational01(params.nij[i][j] * g[i] * carry_j,
                                    Ns[i] * Ns[j]))
    return rat_sum(terms)


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------


def theories_isomorphism(t1: AnyonTheory,
                         t2: AnyonTheory) -> dict | None:
    """A statistics-preserving group isomorphism t1 -> t2 on generators,
    or None. Pruned backtracking over generator images."""
    if t1.size != t2.size:
        return None
    elems2 = t2.elements()
    q2 = [t2.q(a) for a in elems2]
    if topological_spins_census(t1) != _census(q2):
        return None
    gens1 = t1.generators()
    order2 = [t2.order_of(a) for a in elems2]
    cands = []
    for i, g in enumerate(gens1):
        qi = t1.q(g)
        oi = t1.orders[i]
        cands.append([a for a, qa, oa in zip(elems2, q2, order2)
                      if qa == qi and oi % oa == 0])
    assignment: list[Element] = []

    def consistent(a, idx):
        g = gens1[idx]
        if t1.b(g, g) != t2.b(a, a):
            return False
        return all(t1.b(g, gens1[j]) == t2.b(a, assignment[j])
                   for j in range(idx))

    def backtrack(idx):
        if idx == len(gens1):
            return len(t2.subgroup(assignment)) == t2.size
        for a in cands[idx]:
            if consistent(a, idx):
                assignment.append(a)
                if backtrack(idx + 1):
                    return True
                assignment.pop()
        return False

    if backtrack(0):
        return {g: img for g, img in zip(gens1, assignment)}
    return None


def theories_isomorphic(t1: AnyonTheory, t2: AnyonTheory) -> bool:
    return theories_isomorphism(t1, t2) is not None
