"""Abstract Abelian anyon theories with exact rational statistics.

A theory is a finite abelian group (cyclic generator orders) equipped with
exchange statistics theta(a) = exp(2 pi i q(a)) and braiding
B(a, a') = exp(2 pi i b(a, a')), where q is a quadratic form valued in Q/Z
and b is its symmetric polarization:

    q(sum a_i g_i) = sum_i a_i^2 q(g_i) + sum_{i<j} a_i a_j b(g_i, g_j),
    b(x, y) = q(x + y) - q(x) - q(y).

Provides twisted-double theories from group-cocycle parameters (N_i; n_i,
n_ij), boson condensation, stacking, Lagrangian subgroups, fusion groups, and
exact isomorphism search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import gcd, isqrt, prod
from typing import Callable, Sequence

from .exactmath import (IntMatrix, ModSolver, Rational01, integer_kernel,
                        invariant_factors, rat_sum, smith_normal_form,
                        unimodular_inverse)
from .stabilizer import VerificationError

Element = tuple[int, ...]


class RelationError(ValueError):
    """A presentation relation is not a boson that braids trivially with
    every generator, so the quadratic form does not descend to the quotient."""


class TheoryCheckError(VerificationError):
    """A theory built here fails an exact consistency check."""


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """prod_i Z_{orders[i]}; elements are exponent tuples."""

    orders: tuple[int, ...]

    def __init__(self, orders: Sequence[int]):
        orders = tuple(int(o) for o in orders)
        if any(o < 1 for o in orders):
            raise ValueError("orders must be positive")
        object.__setattr__(self, "orders", orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return prod(self.orders)

    def reduce(self, a: Sequence[int]) -> Element:
        return tuple(x % o for x, o in zip(a, self.orders))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return self.reduce([x + y for x, y in zip(a, b)])

    def scale(self, k: int, a: Sequence[int]) -> Element:
        return self.reduce([k * x for x in a])

    def identity(self) -> Element:
        return (0,) * self.rank

    def elements(self) -> list[Element]:
        return [tuple(v) for v in itertools.product(
            *(range(o) for o in self.orders))]

    def order_of(self, a: Sequence[int]) -> int:
        a = self.reduce(a)
        out = 1
        for x, o in zip(a, self.orders):
            out = out * (o // gcd(x, o)) // gcd(out, o // gcd(x, o))
        return out

    def subgroup(self, gens: Sequence[Sequence[int]]) -> set[Element]:
        group = {self.identity()}
        frontier = [self.identity()]
        gens = [self.reduce(g) for g in gens]
        while frontier:
            base = frontier.pop()
            for g in gens:
                nxt = self.add(base, g)
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        return group


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
    """Anyon theory presented on cyclic generators with q and b data."""

    group: FiniteAbelianGroup
    q_gen: tuple[Rational01, ...]
    b_gen: tuple[tuple[Rational01, ...], ...]

    def __init__(self, orders, q_gen, b_gen):
        group = (orders if isinstance(orders, FiniteAbelianGroup)
                 else FiniteAbelianGroup(orders))
        q_gen = tuple(q_gen)
        b_gen = tuple(tuple(row) for row in b_gen)
        k = group.rank
        if len(q_gen) != k or len(b_gen) != k or any(len(r) != k
                                                     for r in b_gen):
            raise ValueError("q_gen/b_gen shape mismatch")
        for i in range(k):
            for j in range(k):
                if b_gen[i][j] != b_gen[j][i]:
                    raise ValueError("b_gen must be symmetric")
            if b_gen[i][i] != 2 * q_gen[i]:
                raise ValueError("b(g,g) must equal 2 q(g)")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "q_gen", q_gen)
        object.__setattr__(self, "b_gen", b_gen)

    @property
    def orders(self) -> tuple[int, ...]:
        return self.group.orders

    @property
    def rank(self) -> int:
        return self.group.rank

    @property
    def size(self) -> int:
        return self.group.size

    def elements(self) -> list[Element]:
        return self.group.elements()

    def generators(self) -> list[Element]:
        k = self.rank
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


def validate_theory(theory: AnyonTheory) -> list[str]:
    """Exhaustive check of the quadratic-form axioms; empty list iff valid."""
    problems = []
    group = theory.group
    elems = theory.elements()
    for a in elems:
        order = group.order_of(a)
        qa = theory.q(a)
        for n in range(order + 1):
            if theory.q(group.scale(n, a)) != qa * (n * n):
                problems.append(f"q({n}*{a}) != {n}^2 q({a})")
                break
    for a in elems:
        for c in elems:
            if theory.b(a, c) != (theory.q(group.add(a, c))
                                  - theory.q(a) - theory.q(c)):
                problems.append(f"b({a},{c}) fails polarization")
    return problems


def braiding(theory: AnyonTheory, a: Sequence[int],
             c: Sequence[int]) -> Rational01:
    """b_q(a, c) = q(a+c) - q(a) - q(c) mod 1."""
    return theory.b(theory.group.reduce(a), theory.group.reduce(c))


def is_modular(theory: AnyonTheory) -> bool:
    """True iff every nontrivial anyon braids nontrivially with something."""
    gens = theory.generators()
    for a in theory.elements():
        if a == theory.group.identity():
            continue
        if all(theory.b(a, g).is_zero() for g in gens):
            return False
    return True


def topological_spins_census(theory: AnyonTheory) -> dict[str, int]:
    """Histogram of q(a) over all anyons, keyed by 'p/q' strings."""
    census: dict[str, int] = {}
    for a in theory.elements():
        key = str(theory.q(a))
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
    group = theory.group
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
            new = group.subgroup(list(current) + [c])
            if not is_candidate_subgroup(new):
                continue
            grow(new, idx + 1)

    grow({group.identity()}, 0)
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
    the r-th new generator over the original presentation generators.
    """

    theory: AnyonTheory
    gen_exprs: tuple[tuple[int, ...], ...]
    # project original exponent vectors to new coordinates
    _project: Callable

    def project(self, vec: Sequence[int]) -> Element:
        return self._project(vec)


def theory_from_presentation(k: int,
                             q_fn: Callable[[Sequence[int]], Rational01],
                             b_fn: Callable[[Sequence[int], Sequence[int]],
                                            Rational01],
                             relations: IntMatrix) -> PresentedTheory:
    """Split Z^k / <relation columns> into cyclic factors carrying q and b.

    The relation lattice must have full rank k (finite quotient). Each
    relation r must satisfy q(r) = 0 and b(r, .) = 0 so that q descends;
    this is checked on the presentation generators (RelationError).
    """
    basis = [tuple(1 if t == i else 0 for t in range(k)) for i in range(k)]
    for c in range(relations.cols):
        rel = [relations[r, c] for r in range(k)]
        if not q_fn(rel).is_zero():
            raise RelationError(f"relation {rel} is not a boson")
        for e in basis:
            if not b_fn(rel, e).is_zero():
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
    q_gen = [q_fn(w) for w in gen_exprs]
    b_gen = [[b_fn(w1, w2) for w2 in gen_exprs] for w1 in gen_exprs]
    theory = AnyonTheory(orders, q_gen, b_gen)

    U = snf.U

    def project(vec: Sequence[int]) -> Element:
        y = U.mat_vec(list(vec))
        return tuple(y[r] % diag[r] for r in keep)

    return PresentedTheory(theory, tuple(gen_exprs), project)


# ---------------------------------------------------------------------------
# Condensation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondensationResult:
    """Outcome of condensing bosons in a parent theory."""

    theory: AnyonTheory
    # deconfined generating set, as parent elements
    deconfined_generators: tuple[Element, ...]
    # parent deconfined element -> class coordinates in `theory`
    identification: dict


def condense(theory: AnyonTheory,
             bosons: Sequence[Sequence[int]]) -> CondensationResult:
    """Condense mutually transparent bosons.

    Anyons braiding nontrivially with a condensed boson are confined and
    dropped; the rest are identified modulo fusion with the boson subgroup.
    """
    group = theory.group
    bos = [group.reduce(b) for b in bosons]
    for b in bos:
        if not theory.q(b).is_zero():
            raise ValueError(f"{b} is not a boson")
    for b1 in bos:
        for b2 in bos:
            if not theory.b(b1, b2).is_zero():
                raise ValueError("condensed bosons must braid trivially")

    deconfined = [a for a in theory.elements()
                  if all(theory.b(a, b).is_zero() for b in bos)]
    bgroup = group.subgroup(bos)

    # small generating set of the deconfined subgroup modulo the bosons
    gens: list[Element] = []
    span = set(bgroup)
    for a in sorted(deconfined, key=lambda x: (-group.order_of(x), x)):
        if a in span:
            continue
        gens.append(a)
        span = group.subgroup(list(bgroup) + gens)
        if len(span) == len(deconfined):
            break

    k = len(gens)
    # relation lattice: {x in Z^k : sum x_i gens_i in bgroup}, via the integer
    # kernel of [gens | bosons | diag(orders)] projected to the x block.
    cols = ([list(g) for g in gens] + [list(b) for b in bos]
            + [[o if r == i else 0 for r in range(group.rank)]
               for i, o in enumerate(group.orders)])
    A = IntMatrix([[col[r] for col in cols] for r in range(group.rank)],
                  cols=len(cols))
    kern = integer_kernel(A)
    proj = IntMatrix([[vec[i] for vec in kern] for i in range(k)],
                     cols=len(kern)) if kern else IntMatrix.zeros(k, 0)

    def element(vec):
        """The reduced parent element sum x_i gens_i. q and b evaluate on it
        with no correction: q(sum x_i g_i) equals q of the reduced element
        because order relations are bosonic and transparent in the parent."""
        combo = group.identity()
        for x, g in zip(vec, gens):
            combo = group.add(combo, group.scale(x, g))
        return combo

    presented = theory_from_presentation(
        k, lambda v: theory.q(element(v)),
        lambda v1, v2: theory.b(element(v1), element(v2)), proj)

    # express each deconfined parent element in the new coordinates
    solver = ModSolver(
        IntMatrix([[col[r] for col in cols[:k + len(bos)]]
                   for r in range(group.rank)], cols=k + len(bos)),
        list(group.orders)) if k + len(bos) else None
    identification = {}
    for a in deconfined:
        if solver is None:
            identification[a] = ()
            continue
        sol = solver.solve(list(a))
        if sol is None:
            raise TheoryCheckError("deconfined element outside generator span")
        coords = presented.project(sol[:k])
        identification[a] = coords
        # theta is preserved on classes
        if presented.theory.q(coords) != theory.q(a):
            raise TheoryCheckError("statistics not preserved by condensation")
    return CondensationResult(presented.theory, tuple(gens), identification)


# ---------------------------------------------------------------------------
# Stacking and standard theories
# ---------------------------------------------------------------------------


def stack(t1: AnyonTheory, t2: AnyonTheory) -> AnyonTheory:
    """Direct product theory: additive q, zero cross-braiding."""
    k1, k2 = t1.rank, t2.rank
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


def semion_theory() -> AnyonTheory:
    return AnyonTheory((2,), (Rational01(1, 4),), ((Rational01(1, 2),),))


def antisemion_theory() -> AnyonTheory:
    return AnyonTheory((2,), (Rational01(3, 4),), ((Rational01(1, 2),),))


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


def tqd_presented(params) -> PresentedTheory:
    """Split presentation of the twisted-double theory for TqdParams."""
    qd, bd = _tqd_generator_data(params)
    return theory_from_presentation(2 * params.M,
                                    partial(quadratic_form, qd, bd),
                                    partial(bilinear_form, bd),
                                    _tqd_relation_matrix(params))


def tqd_theory(N: Sequence[int], n: Sequence[int] | None = None,
               nij=None) -> AnyonTheory:
    """Anyon theory of the Abelian twisted double for (N_i; n_i, n_ij)."""
    params = _as_params(N, n, nij)
    theory = tqd_presented(params).theory
    problems = validate_theory(theory)
    if problems:
        raise TheoryCheckError(f"twisted-double theory is invalid: {problems}")
    return theory


def _as_params(N, n=None, nij=None):
    from .lattice import TqdParams
    if isinstance(N, TqdParams):
        return N
    if n is None:
        n = [0] * len(N)
    return TqdParams(N, n, nij)


def ds_theory() -> AnyonTheory:
    return tqd_theory([2], [1])


def stack_condense_to_tqd(N, n=None, nij=None) -> tuple[CondensationResult,
                                                        bool]:
    """Condense the model's bosons b_i in a stack of Z_{N_i^2} toric codes.

    Returns the condensation result and whether the condensed theory is
    isomorphic to tqd_theory(params).
    """
    params = _as_params(N, n, nij)
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
    verdict = theories_isomorphic(result.theory, tqd_theory(params))
    return result, verdict


# ---------------------------------------------------------------------------
# Fusion groups and cocycles
# ---------------------------------------------------------------------------


def fusion_group(N, n=None, nij=None) -> list[int]:
    """Invariant factors (> 1) of the anyon fusion group, via SNF of the
    presentation relations."""
    params = _as_params(N, n, nij)
    diag = invariant_factors(_tqd_relation_matrix(params))
    if len(diag) != 2 * params.M or 0 in diag:
        raise TheoryCheckError(f"fusion group invariant factors {diag} are "
                               f"not {2 * params.M} finite orders")
    return sorted(d for d in diag if d != 1)


def fusion_group_from_cocycle(N, n=None, nij=None) -> list[int]:
    """Fusion group the long way: enumerate the central extension of the flux
    group G by the charge group G* with multiplication twisted by the
    2-cocycle lambda(g, h), then reconstruct invariant factors from the
    census of element orders."""
    params = _as_params(N, n, nij)
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

    ident = ((0,) * M, (0,) * M)
    sectors = list(itertools.product(*(range(Ni) for Ni in Ns)))
    elems = [(f, c) for f in sectors for c in sectors]
    census: dict[int, int] = {}
    for a in elems:
        t, cur = 1, a
        while cur != ident:
            cur = mul(cur, a)
            t += 1
        census[t] = census.get(t, 0) + 1
    return _invariants_from_order_census(census, len(elems))


def _invariants_from_order_census(census: dict[int, int],
                                  size: int) -> list[int]:
    """Invariant factors of an abelian group from its element-order census."""
    primes = set()
    for o in census:
        t, p = o, 2
        while t > 1:
            if t % p == 0:
                primes.add(p)
                while t % p == 0:
                    t //= p
            else:
                p += 1
    per_prime: dict[int, list[int]] = {}
    for p in sorted(primes):
        # m_k = #elements with order dividing p^k; r_k = #cyclic p-factors
        # with exponent >= k = log_p(m_k / m_{k-1}).
        r: list[int] = []
        prev = sum(c for o, c in census.items() if 1 % o == 0)
        k = 1
        while True:
            cur = sum(c for o, c in census.items() if (p ** k) % o == 0)
            ratio, cnt = cur // prev, 0
            while ratio > 1:
                ratio //= p
                cnt += 1
            if cnt == 0:
                break
            r.append(cnt)
            prev = cur
            k += 1
        exps = []
        for kk in range(len(r), 0, -1):
            exact = r[kk - 1] - (r[kk] if kk < len(r) else 0)
            exps.extend([kk] * exact)
        per_prime[p] = sorted(p ** e for e in exps)  # ascending
    width = max((len(v) for v in per_prime.values()), default=0)
    inv = []
    for idx in range(width):
        f = 1
        for p, v in per_prime.items():
            padded = [1] * (width - len(v)) + v
            f *= padded[idx]
        if f != 1:
            inv.append(f)
    if prod(inv, start=1) != size:
        raise TheoryCheckError(f"invariant factors {inv} of the order census "
                               f"do not multiply to the group size {size}")
    return sorted(inv)


def cocycle_value(N, n, nij, g: Sequence[int], h: Sequence[int],
                  k: Sequence[int]) -> Rational01:
    """Phase exponent of the group 3-cocycle omega(g, h, k) (coboundary-free
    representative):

    sum_i n_i g_i (h_i + k_i - [h_i+k_i]_{N_i}) / N_i^2
      + sum_{j>i} n_ij g_i (h_j + k_j - [h_j+k_j]_{N_j}) / (N_i N_j).
    """
    params = _as_params(N, n, nij)
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
    if topological_spins_census(t1) != topological_spins_census(t2):
        return None
    gens1 = t1.generators()
    elems2 = t2.elements()
    g2 = t2.group
    cands = []
    for i, g in enumerate(gens1):
        qi = t1.q(g)
        oi = t1.orders[i]
        cands.append([a for a in elems2
                      if t2.q(a) == qi and oi % g2.order_of(a) == 0])
    assignment: list[Element] = []

    def consistent(a, idx):
        g = gens1[idx]
        if t1.b(g, g) != t2.b(a, a):
            return False
        return all(t1.b(g, gens1[j]) == t2.b(a, assignment[j])
                   for j in range(idx))

    def backtrack(idx):
        if idx == len(gens1):
            return len(g2.subgroup(assignment)) == t2.size
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
