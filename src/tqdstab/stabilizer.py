"""Stabilizer groups over mixed-dimension qudits.

Group order, logical dimension, membership with exact phase, centralizers,
and condensation by measurement. All counting reduces to Howell forms over
Z_D after lifting site-q exponents by D/d_q into Z_D coordinates.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from math import gcd, prod
from operator import mul
from typing import Literal, Sequence

from .exactmath import ModSolver, Rational01
from .pauli import (PauliOperator, QuditSystem, commutation_exponent,
                    commutation_total, power, product_of_powers)


class VerificationError(ValueError):
    """A check on a model, a group or a solver's answer failed."""


class NonCommutingError(VerificationError):
    pass


class InconsistentGroupError(VerificationError):
    pass


class SolverCheckError(VerificationError):
    """A normal-form solver's answer failed its exact re-check."""


@dataclass(frozen=True)
class MembershipResult:
    coefficients: tuple[int, ...]
    residual_phase: Rational01
    verdict: Literal["Member", "MemberUpToPhase", "NotMember"]

    @property
    def is_member(self) -> bool:
        return self.verdict == "Member"


class StabilizerGroup:
    """A qudit system together with a list of Pauli generators."""

    def __init__(self, system: QuditSystem,
                 generators: Sequence[PauliOperator],
                 validate: bool = True):
        self.system = system
        self.generators = tuple(generators)
        for g in self.generators:
            if g.system.dims != system.dims:
                raise ValueError("generator on a different system")
        # non-commuting generator pairs, recorded by the first check, and
        # the commuting ones whose total is an odd multiple of D, flattened
        self._noncommuting: list[tuple[int, int]] | None = None
        self._odd_pairs = array("I")
        self._solver: ModSolver | None = None
        # the kernel generators and the beta bit of each pending one
        self._kernel: tuple[list[list[int]], list[int]] | None = None
        self._kernel_phases: list[tuple[list[int], int]] | None = None
        if validate:
            self._check_commuting()

    def _check_commuting(self) -> None:
        """Raise NonCommutingError unless the generators commute. The
        pairwise check runs once; later calls reuse its record."""
        if self._noncommuting is None:
            self._noncommuting = assert_commuting(self)
        if self._noncommuting:
            raise NonCommutingError(
                f"non-commuting generator pairs: {self._noncommuting}")

    # -- lifted exponent coordinates ----------------------------------------

    def _lifted(self, P: PauliOperator) -> list[int]:
        """P's exponents lifted into Z_D: x parts, then z parts."""
        D, dims = self.system.D, self.system.dims
        n = len(dims)
        vec = [0] * (2 * n)
        for q, e in P.x.items():
            vec[q] = e * (D // dims[q])
        for q, e in P.z.items():
            vec[n + q] = e * (D // dims[q])
        return vec

    def _get_solver(self) -> ModSolver:
        if self._solver is None:
            n2 = 2 * len(self.system.dims)
            self._solver = ModSolver(
                [self._lifted(g) for g in self.generators],
                [self.system.D] * n2)
        return self._solver

    def combination(self, coefficients: Sequence[int]) -> PauliOperator:
        """prod_i g_i^{a_i} in generator order (exact phase)."""
        return product_of_powers(self.system,
                                 zip(self.generators, coefficients))

    def rephased(self, generators: Sequence[PauliOperator]
                 ) -> "StabilizerGroup":
        """The group of `generators`, each a scalar multiple of the matching
        generator here. The lifted exponent vectors are unchanged, so the
        result shares this group's solver, its commutation record (scalars
        commute with everything) and its kernel vectors with their beta
        bits, but computes its own kernel phases. Raises ValueError if any
        generator's exponents differ; checks commutation like the
        constructor."""
        generators = tuple(generators)
        if len(generators) != len(self.generators) or any(
                g.x != h.x or g.z != h.z
                for g, h in zip(generators, self.generators)):
            raise ValueError("rephased generators must keep the exponents")
        group = StabilizerGroup(self.system, generators, validate=False)
        group._solver = self._solver
        group._noncommuting = self._noncommuting
        group._odd_pairs = self._odd_pairs
        group._kernel = self._kernel
        group._check_commuting()
        return group

    # -- scalars reachable as generator combinations ------------------------

    def _get_kernel(self) -> tuple[list[list[int]], list[int]]:
        """The solver's kernel_generators, read once, and for each but the
        trailing big * e_i the bit beta of its phase (see
        _get_kernel_phases). Both depend on the exponents only, so rephased
        groups share the pair: the bits hold for these vectors only.

        The vectors' packed columns, one per generator, re-check that every
        vector is in the kernel: summing v * column over the generators at
        each lifted coordinate must give zero (SolverCheckError if not).
        beta is one AND per odd pair and per odd-dimension site on the
        columns' low bits.
        """
        if self._kernel is not None:
            return self._kernel
        solver = self._get_solver()
        vectors = solver.kernel_generators()
        gens, D, dims = self.generators, self.system.D, self.system.dims
        columns, parities, reduce, read = solver.columns_of(
            vectors[:len(vectors) - len(gens)])
        n = len(dims)
        sums: dict[int, int] = {}  # lifted coordinate -> packed sum
        xbits: dict[int, int] = {}  # odd-dimension site -> parity
        zbits: dict[int, int] = {}
        for g, col, bit in zip(gens, columns, parities):
            for site, e in g.x.items():
                sums[site] = reduce(sums.get(site, 0)
                                    + e * (D // dims[site]) * col)
                if e & dims[site] & 1:
                    xbits[site] = xbits.get(site, 0) ^ bit
            for site, e in g.z.items():
                sums[n + site] = reduce(sums.get(n + site, 0)
                                        + e * (D // dims[site]) * col)
                if e & dims[site] & 1:
                    zbits[site] = zbits.get(site, 0) ^ bit
        if any(sums.values()):
            raise SolverCheckError("kernel combination is not scalar")
        beta = 0
        pairs = iter(self._odd_pairs)
        for i, j in zip(pairs, pairs):
            beta ^= parities[i] & parities[j]
        for site, bit in xbits.items():
            beta ^= bit & zbits.get(site, 0)
        self._kernel = (vectors, read(beta))
        return self._kernel

    def _get_kernel_phases(self) -> list[tuple[list[int], int]]:
        """(vector, phase) for each of the solver's kernel_generators: the
        combination is a scalar, and phase is its exponent mod 2D. Computed
        once per group, multiplying no operators but g^big for the trailing
        big * e_i. The phases generate the subgroup gcd(2D, *phases) Z of
        Z_{2D}.

        For g_i = w^{p_i} X^{x_i} Z^{z_i} (w = e^{i pi/D}) and a kernel
        vector a, prod_i g_i^{a_i} = w^phi where, mod 2D and with ab = a % 2,

            phi = sum_i a_i (p_i - h_i) + D beta(ab),
            h_i = sum_s (D/d_s) z_i[s] x_i[s],
            beta(ab) = sum_{i<j, m_ij odd} ab_i ab_j
                + sum_{s: d_s odd} (sum_i ab_i x_i[s]) (sum_i ab_i z_i[s]),

        and D m_ij = commutation_total(g_i, g_j). Derivation: the ordered
        product's phase is sum_i a_i p_i + C(a_i, 2) 2h_i plus sum_{i<j}
        a_i a_j G_ij, G_ij = sum_s 2(D/d_s) z_i[s] x_j[s]. On the kernel
        x(a) = d u and z(a) = d v, so sum_{i,j} a_i a_j G_ij = 2D sum_s d_s
        u_s v_s; with G_ij - G_ji = 2D m_ij the a_i^2 terms cancel.
        """
        if self._kernel_phases is None:
            self._check_commuting()
            vectors, betas = self._get_kernel()
            D, dims = self.system.D, self.system.dims
            two_d = 2 * D
            linear = {}  # generator -> p_i - h_i mod 2D, nonzero only
            for i, g in enumerate(self.generators):
                w = (g.phase - sum((D // dims[s]) * z * g.x[s]
                                   for s, z in g.z.items() if s in g.x)
                     ) % two_d
                if w:
                    linear[i] = w
            at, weights = list(linear), list(linear.values())
            table = [(vec, (sum(map(mul, map(vec.__getitem__, at), weights))
                            + D * beta) % two_d)
                     for vec, beta in zip(vectors, betas)]
            big = self._get_solver().big
            for vec, g in zip(vectors[len(betas):], self.generators):
                op = power(g, big)
                if not op.is_scalar():
                    raise SolverCheckError("kernel combination is not scalar")
                table.append((vec, op.phase))
            self._kernel_phases = table
        return self._kernel_phases

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.system.dims),
            "generators": [
                {"phase": g.phase,
                 "x": {str(s): e for s, e in sorted(g.x.items())},
                 "z": {str(s): e for s, e in sorted(g.z.items())}}
                for g in self.generators
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict, validate: bool = True) -> "StabilizerGroup":
        system = QuditSystem(data["dims"])
        gens = [PauliOperator(system, phase=g.get("phase", 0),
                              x={int(s): e for s, e in g.get("x", {}).items()},
                              z={int(s): e for s, e in g.get("z", {}).items()})
                for g in data["generators"]]
        return StabilizerGroup(system, gens, validate=validate)


def assert_commuting(S: StabilizerGroup) -> list[tuple[int, int]]:
    """Indices (i, j), i < j, of generator pairs that fail to commute, in
    lexicographic order (empty iff abelian).

    Generators with disjoint supports commute, so only pairs that share a
    site are tested: O(k*w) pairs for k generators of weight w. The same
    pass records on S the commuting pairs whose commutation_total is an
    odd multiple of D, which its kernel phases read.
    """
    gens = S.generators
    supports = [g.support for g in gens]
    touching: dict[int, list[int]] = {}
    for j, support in enumerate(supports):
        for site in support:
            touching.setdefault(site, []).append(j)
    D = S.system.D
    bad = []
    odd = array("I")
    for i, g in enumerate(gens):
        partners = {j for site in supports[i] for j in touching[site] if j > i}
        for j in sorted(partners):
            total = commutation_total(g, gens[j]) % (2 * D)
            if total % D:
                bad.append((i, j))
            elif total:
                odd.extend((i, j))
    S._odd_pairs = odd
    return bad


def group_order(S: StabilizerGroup) -> int:
    """Order of the generated group modulo phases: the size of the span of
    the lifted generator columns inside Z_D^{2n}."""
    S._check_commuting()
    return S._get_solver().image_size()


@dataclass(frozen=True)
class ScalarConsistency:
    consistent: bool
    witness: tuple[tuple[int, ...], int] | None  # (coefficients, phase)


def scalar_consistency(S: StabilizerGroup) -> ScalarConsistency:
    """Consistent iff no combination of generators is a nonzero scalar."""
    S._check_commuting()
    for vec, phase in S._get_kernel_phases():
        if phase:
            return ScalarConsistency(False, (tuple(vec), phase))
    return ScalarConsistency(True, None)


def logical_dimension(S: StabilizerGroup) -> int:
    """(prod_q d_q) / group_order(S) for commuting, scalar-consistent groups."""
    if not scalar_consistency(S).consistent:
        raise InconsistentGroupError("group contains a nontrivial scalar")
    total = prod(S.system.dims)
    dim, rem = divmod(total, group_order(S))
    if rem:
        raise SolverCheckError("group order does not divide the dimension")
    return dim


def member_with_phase(S: StabilizerGroup, P: PauliOperator) -> MembershipResult:
    """Express P as a generator combination, tracking the phase residual."""
    coeffs = S._get_solver().solve(S._lifted(P))
    if coeffs is None:
        return MembershipResult((), Rational01(0), "NotMember")
    combo = S.combination(coeffs)
    if combo.x != P.x or combo.z != P.z:
        raise SolverCheckError("exponent solve mismatch")
    two_d = 2 * S.system.D
    delta = (P.phase - combo.phase) % two_d
    if delta == 0:
        return MembershipResult(tuple(coeffs), Rational01(0), "Member")
    table = S._get_kernel_phases()
    phases = [phase for _, phase in table]
    if delta % gcd(two_d, *phases) == 0:
        # Some identity-exponent combination supplies the missing phase;
        # fold it into the coefficients so the combination is exact.
        fix = ModSolver([[p] for p in phases], [two_d]).solve([delta])
        if fix is None:
            raise SolverCheckError(
                "no kernel combination has the missing phase")
        for f, (vec, _) in zip(fix, table):
            if f:
                coeffs = [c + f * a for c, a in zip(coeffs, vec)]
        combo = S.combination(coeffs)
        if combo != P:
            raise SolverCheckError("phase-corrected combination mismatch")
        return MembershipResult(tuple(coeffs), Rational01(0), "Member")
    return MembershipResult(tuple(coeffs), Rational01(delta, two_d),
                            "MemberUpToPhase")


def centralizer_in_group(S: StabilizerGroup,
                         probes: Sequence[PauliOperator]) -> StabilizerGroup:
    """Generators of the subgroup of <S> commuting with every probe."""
    if not probes:
        return S
    columns = [[commutation_exponent(g, probe) for probe in probes]
               for g in S.generators]
    basis = ModSolver(columns, [S.system.D] * len(probes)).kernel_basis()
    gens = []
    seen = set()
    for vec in basis:
        op = S.combination(vec)
        if op.is_identity() or op in seen:
            continue
        seen.add(op)
        gens.append(op)
    return StabilizerGroup(S.system, gens, validate=False)


def measure(S: StabilizerGroup,
            ops: Sequence[PauliOperator]) -> StabilizerGroup:
    """Condense by measuring ops with +1 outcomes: <centralizer(S, ops), ops>
    (validated, so non-commuting ops raise NonCommutingError)."""
    central = centralizer_in_group(S, ops)
    return StabilizerGroup(S.system, tuple(central.generators) + tuple(ops))


def groups_equal(S1: StabilizerGroup, S2: StabilizerGroup) -> bool:
    """Mutual generator membership, exact including phases."""
    return (all(member_with_phase(S2, g).is_member for g in S1.generators)
            and all(member_with_phase(S1, g).is_member for g in S2.generators))
