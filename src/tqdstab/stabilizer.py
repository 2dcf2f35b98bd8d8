"""Stabilizer groups over mixed-dimension qudits.

Group order, logical dimension, membership with exact phase, centralizers,
and condensation by measurement. All counting reduces to Howell forms over
Z_D after lifting site-q exponents by D/d_q into Z_D coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, prod
from typing import Literal, Sequence

from .exactmath import ModSolver, Rational01
from .pauli import (PauliOperator, QuditSystem, commutation_exponent, power,
                    product_of_powers)


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
        # non-commuting generator pairs, recorded by the first check
        self._noncommuting: list[tuple[int, int]] | None = None
        self._solver: ModSolver | None = None
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
        result shares this group's solver (and its commutation record:
        scalars commute with everything). Raises ValueError if any
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
        group._check_commuting()
        return group

    # -- scalars reachable as generator combinations ------------------------

    def _get_kernel_phases(self) -> list[tuple[list[int], int]]:
        """(vector, phase) for each of the solver's kernel_generators: the
        combination is a scalar, and phase is its exponent mod 2D. Computed
        once per group; raises SolverCheckError on a non-scalar combination.
        The phases generate the subgroup gcd(2D, *phases) Z of Z_{2D}.

        Each product runs over the vector's nonzero entries only; the
        trailing big * e_i vectors are one power each.
        """
        if self._kernel_phases is None:
            solver = self._get_solver()
            vectors = solver.kernel_generators()
            gens = self.generators
            n_rows = len(vectors) - len(gens)
            ops = [product_of_powers(self.system,
                                     [(gens[i], a) for i, a in enumerate(vec)
                                      if a])
                   for vec in vectors[:n_rows]]
            ops.extend(power(g, solver.big) for g in gens)
            table = []
            for vec, op in zip(vectors, ops):
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
    site are tested: O(k*w) pairs for k generators of weight w.
    """
    gens = S.generators
    supports = [g.support for g in gens]
    touching: dict[int, list[int]] = {}
    for j, support in enumerate(supports):
        for site in support:
            touching.setdefault(site, []).append(j)
    bad = []
    for i, g in enumerate(gens):
        partners = {j for site in supports[i] for j in touching[site] if j > i}
        for j in sorted(partners):
            if commutation_exponent(g, gens[j]):
                bad.append((i, j))
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
        coeffs = [c + sum(f * vec[i] for f, (vec, _) in zip(fix, table))
                  for i, c in enumerate(coeffs)]
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
