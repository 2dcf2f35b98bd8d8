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
from typing import Literal, Sequence

from .exactmath import ModSolver, Rational01, _Lanes
from .pauli import (PauliOperator, QuditSystem, _check_system,
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


def _reordering(P: PauliOperator) -> int:
    """h = sum_s (D/d_s) z[s] x[s] mod 2D, so Z^z X^x = w^{2h} X^x Z^z."""
    D, dims = P.system.D, P.system.dims
    return sum((D // dims[s]) * z * P.x[s] for s, z in P.z.items()
               if s in P.x) % (2 * D)


class StabilizerGroup:
    """A qudit system together with a list of commuting Pauli generators.

    The constructor runs assert_commuting, the one site-major commutation
    sweep, and raises NonCommutingError on any non-commuting pair, so every
    group that exists commutes and no query checks again.
    """

    def __init__(self, system: QuditSystem,
                 generators: Sequence[PauliOperator]):
        self.system = system
        self.generators = tuple(generators)
        bad, self._odd_pairs = assert_commuting(system, self.generators)
        if bad:
            raise NonCommutingError(f"non-commuting generator pairs: {bad}")
        self._solver: ModSolver | None = None
        # the solver's packed kernel rows and every kernel generator's phase
        self._kernel_rows: list[int] | None = None
        self._kernel_phases: list[int] | None = None

    # -- lifted exponent coordinates ----------------------------------------

    def _packed(self, P: PauliOperator, width: int) -> int:
        """P's exponents lifted into Z_D and packed in lanes of `width`
        bits, from its sparse maps: x parts in lanes 0..n-1, then z parts."""
        D, dims = self.system.D, self.system.dims
        n = len(dims)
        return sum(e * (D // dims[q]) << (offset + q) * width
                   for offset, exps in ((0, P.x), (n, P.z))
                   for q, e in exps.items())

    def _get_solver(self) -> ModSolver:
        if self._solver is None:
            D, width = self.system.D, _Lanes(self.system.D).width
            self._solver = ModSolver(
                [self._packed(g, width) for g in self.generators],
                [D] * (2 * len(self.system.dims)))
        return self._solver

    def combination(self, coefficients: Sequence[int]) -> PauliOperator:
        """prod_i g_i^{a_i} in generator order (exact phase)."""
        return product_of_powers(self.system,
                                 zip(self.generators, coefficients))

    # -- phases of generator combinations, in closed form -------------------

    def _combination_phases(self, columns: Sequence[int], count: int,
                            targets: Sequence[PauliOperator]) -> list[int]:
        """phi mod 2D for each of `count` coefficient vectors a, with
        prod_i g_i^{a_i} = w^phi P for P the matching target in normal form
        (formula in member_with_phase's docstring); column i holds a_i mod
        2D in lane r for vector r (_Lanes(2D)). One packed pass for the
        batch: the lanes of the linear term sum_i a_i (p_i - h_i) + h_P plus
        D times the packed GF(2) bracket of each vector against its target
        (the identity where `targets` is empty), mod 2D.

        The bracket pass is also the exact re-check that each combination
        has its target's exponents: at each lifted coordinate the lanes of
        sum_i (D/d_s) x_i[s] a_i - (D/d_s) x_P[s] = D u_s (mod 2D) must be 0
        or D, else SolverCheckError. The lanes equal to D are the odd u_s
        (likewise v_s on the z coordinates); the bracket is one AND per
        odd pair and a few per site on lane bits.
        """
        D, dims = self.system.D, self.system.dims
        n = len(dims)
        lanes = _Lanes(2 * D)
        reduce, ones = lanes.reducer(count), lanes.ones(count)
        sums: dict[int, int] = {}  # lifted coordinate -> packed D u_s
        parities: dict[int, int] = {}  # target's coordinate -> its parities
        for r, P in enumerate(targets):
            lane = 1 << r * lanes.width
            for offset, exps in ((0, P.x), (n, P.z)):
                for site, e in exps.items():
                    coord = offset + site
                    sums[coord] = sums.get(coord, 0) + (
                        -e * (D // dims[site]) % (2 * D) * lane)
                    if e & 1:
                        parities[coord] = parities.get(coord, 0) | lane
        # lanes stay below 2D + (D - 1)(2D - 1) < 2 (2D)**2, the reducer's
        # bound: e < d_s, and sums and columns hold residues mod 2D
        for g, col in zip(self.generators, columns):
            for offset, exps in ((0, g.x), (n, g.z)):
                for site, e in exps.items():
                    sums[offset + site] = reduce(sums.get(offset + site, 0)
                                                 + e * (D // dims[site]) * col)
        low = (D & -D).bit_length() - 1  # the lowest set bit of D
        odd: dict[int, int] = {}  # lifted coordinate -> packed u_s mod 2
        for coord, total in sums.items():
            bits = total >> low & ones
            if total != bits * D:
                raise SolverCheckError(
                    "combination over its target is not scalar")
            # kept only where the bracket reads it
            if bits and (dims[coord % n] & 1
                         or (coord + n) % (2 * n) in parities):
                odd[coord] = bits
        beta = 0
        pairs = iter(self._odd_pairs)
        for i, j in zip(pairs, pairs):
            beta ^= columns[i] & columns[j]
        beta &= ones
        for site in {coord % n for coord in odd}:
            u, v = odd.get(site, 0), odd.get(n + site, 0)
            beta ^= (parities.get(site, 0) & v) ^ (parities.get(n + site, 0)
                                                   & u)
            if dims[site] & 1:
                beta ^= u & v
        # the packed exponent tables are dropped before the phase pass
        # builds acc, so the two never share the peak memory
        del sums, parities, odd
        acc = sum(_reordering(P) << r * lanes.width
                  for r, P in enumerate(targets))
        # lanes stay below 2D + (2D - 1)**2, within the reducer's bound
        for g, col in zip(self.generators, columns):
            weight = (g.phase - _reordering(g)) % (2 * D)
            if weight:
                acc = reduce(acc + weight * col)
        return lanes.read(reduce(acc + D * beta), count)

    def _kernel_vector(self, i: int) -> list[int]:
        """Kernel generator i (_get_kernel_phases order) as a vector: row i
        read off its lanes, or D * e_j for the j-th past the rows."""
        self._get_kernel_phases()
        rows, k = self._kernel_rows, len(self.generators)
        if i < len(rows):
            return self._get_solver()._lanes.read(rows[i], k)
        return [self.system.D * (j == i - len(rows)) for j in range(k)]

    def _get_kernel_phases(self) -> list[int]:
        """The scalar combination's phase mod 2D for each kernel generator:
        the solver's kernel_rows, read once and kept for _kernel_vector,
        then D * e_i per generator. Computed once per group from packed
        columns only; the phases generate the subgroup gcd(2D, *phases) Z
        of Z_{2D}.

        The kernel rows are the identity-target case of _combination_phases:
        one transpose gives their packed columns mod 2D, which it reads with
        no targets (exponent re-check included) before they are dropped. A
        trailing D * e_i gives g_i^D = w^{D p_i + D (D - 1) h_i}, a scalar as
        every d_s divides D.
        """
        if self._kernel_phases is None:
            solver, D = self._get_solver(), self.system.D
            rows = self._kernel_rows = solver.kernel_rows()
            columns = _Lanes(2 * D).transpose(rows, len(self.generators),
                                              solver._lanes)
            self._kernel_phases = self._combination_phases(
                columns, len(rows), ()) + [
                D * (g.phase + (D - 1) * _reordering(g)) % (2 * D)
                for g in self.generators]
        return self._kernel_phases

    def _scalar_step(self) -> int:
        """gcd(2D, kernel phases): the group's scalars are exactly the
        w^phi with phi a multiple of it."""
        return gcd(2 * self.system.D, *self._get_kernel_phases())

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
    def from_json_dict(data: dict) -> "StabilizerGroup":
        system = QuditSystem(data["dims"])
        gens = [PauliOperator(system, phase=g.get("phase", 0),
                              x={int(s): e for s, e in g.get("x", {}).items()},
                              z={int(s): e for s, e in g.get("z", {}).items()})
                for g in data["generators"]]
        return StabilizerGroup(system, gens)


def _hold(holders: tuple[dict, dict], j: int, P: PauliOperator) -> None:
    """Add P as operator j to the X and Z holders: site -> [(j, exponent)]."""
    for index, exps in zip(holders, (P.x, P.z)):
        for site, e in exps.items():
            index.setdefault(site, []).append((j, e))


def _totals(system: QuditSystem, g: PauliOperator,
            holders: tuple[dict, dict]) -> dict[int, int]:
    """j -> commutation_total(g, P_j) for held P_j; a missing j has total 0."""
    D, dims = system.D, system.dims
    totals: dict[int, int] = {}
    for exps, index, sign in ((g.z, holders[0], 1), (g.x, holders[1], -1)):
        for site, e in exps.items():
            w = sign * (D // dims[site]) * e
            for j, f in index.get(site, ()):
                totals[j] = totals.get(j, 0) + w * f
    return totals


def assert_commuting(system: QuditSystem,
                     generators: Sequence[PauliOperator]
                     ) -> tuple[list[tuple[int, int]], array]:
    """The pairwise commutation pass StabilizerGroup runs once, when it is
    made: the non-commuting generator pairs (i, j), i < j, in lexicographic
    order, and the commuting ones whose commutation_total is an odd multiple
    of D, flattened in that order. ValueError on a generator of another system.

    One site-major sweep, last generator first: each one's totals against
    those after it are summed over the holders at its sites (_totals)
    before it joins them (_hold). The cost is the sum over sites of
    (X holders x Z holders) multiply-adds.
    """
    for g in generators:
        _check_system(system, g)
    D = system.D
    holders, bad, odd = ({}, {}), [], []
    # filled backwards and reversed, so odd takes each pair as j, i
    for i in range(len(generators) - 1, -1, -1):
        totals = _totals(system, generators[i], holders)
        for j in sorted(totals, reverse=True):
            total = totals[j] % (2 * D)
            if total % D:
                bad.append((i, j))
            elif total:
                odd += (j, i)
        _hold(holders, i, generators[i])
    return bad[::-1], array("I", reversed(odd))


def group_order(S: StabilizerGroup) -> int:
    """Order of the generated group modulo phases: the size of the span of
    the lifted generator columns inside Z_D^{2n}."""
    return S._get_solver().image_size()


@dataclass(frozen=True)
class ScalarConsistency:
    consistent: bool
    witness: tuple[tuple[int, ...], int] | None  # (coefficients, phase)


def scalar_consistency(S: StabilizerGroup) -> ScalarConsistency:
    """Consistent iff no combination of generators is a nonzero scalar."""
    for i, phase in enumerate(S._get_kernel_phases()):
        if phase:
            return ScalarConsistency(False,
                                     (tuple(S._kernel_vector(i)), phase))
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
    """Express P as a generator combination, tracking the phase residual.

    The solver gives coefficients a with the exponents of P; the phase of
    the combination is read in closed form, with no operator products. For
    g_i = w^{p_i} X^{x_i} Z^{z_i} (w = e^{i pi/D}) and P = w^{p_P} X^{x_P}
    Z^{z_P} in normal form, write X_s = sum_i a_i x_i[s] = x_P[s] + d_s u_s
    and Z_s = sum_i a_i z_i[s] = z_P[s] + d_s v_s as unreduced integers.
    Then prod_i g_i^{a_i} = w^phi X^{x_P} Z^{z_P} with, mod 2D and with
    ab = a % 2,

        phi = sum_i a_i (p_i - h_i) + h_P + D [ sum_{i<j, m_ij odd} ab_i ab_j
              + sum_s (x_P[s] v_s + z_P[s] u_s + d_s u_s v_s) ],
        h = sum_s (D/d_s) z[s] x[s],  D m_ij = commutation_total(g_i, g_j).

    Derivation: (1) the ordered product's phase is sum_i (a_i p_i +
    (a_i^2 - a_i) h_i) + sum_{i<j} a_i a_j G_ij, G_ij = sum_s 2 (D/d_s)
    z_i[s] x_j[s]; (2) G_ij - G_ji = 2 D m_ij, and the symmetric half sums
    to sum_s (D/d_s) Z_s X_s, whose a_i^2 terms cancel the h_i ones;
    (3) expanding X_s and Z_s as above gives the bracket. With P the
    identity this is the kernel table's formula.

    A nonzero residual that some scalar of the group supplies is folded
    into the coefficients, and the folded vector is re-checked to give P
    exactly.
    """
    solver = S._get_solver()
    x = solver.solve_packed(S._packed(P, solver._lanes.width))
    if x is None:
        return MembershipResult((), Rational01(0), "NotMember")
    coeffs = solver._lanes.read(x, len(S.generators))
    two_d = 2 * S.system.D
    delta = (P.phase - S._combination_phases(coeffs, 1, [P])[0]) % two_d
    if delta == 0:
        return MembershipResult(tuple(coeffs), Rational01(0), "Member")
    if delta % S._scalar_step() == 0:
        # Some identity-exponent combination supplies the missing phase;
        # fold it into the coefficients so the combination is exact.
        fix = ModSolver([[p] for p in S._get_kernel_phases()],
                        [two_d]).solve([delta])
        if fix is None:
            raise SolverCheckError(
                "no kernel combination has the missing phase")
        for i, f in enumerate(fix):
            if f:
                coeffs = [c + f * a
                          for c, a in zip(coeffs, S._kernel_vector(i))]
        if S._combination_phases([c % two_d for c in coeffs], 1,
                                 [P]) != [P.phase]:
            raise SolverCheckError("phase-corrected combination mismatch")
        return MembershipResult(tuple(coeffs), Rational01(0), "Member")
    return MembershipResult(tuple(coeffs), Rational01(delta, two_d),
                            "MemberUpToPhase")


def _commutation_columns(S: StabilizerGroup,
                         probes: Sequence[PauliOperator]) -> list[list[int]]:
    """[[commutation_exponent(g, p) for p in probes] for g in S.generators],
    summed over the probes held at g's sites; ValueError on another system."""
    holders: tuple[dict, dict] = ({}, {})
    for j, probe in enumerate(probes):
        _check_system(S.system, probe)
        _hold(holders, j, probe)
    columns = [[0] * len(probes) for _ in S.generators]
    for g, column in zip(S.generators, columns):
        for j, total in _totals(S.system, g, holders).items():
            column[j] = total % S.system.D
    return columns


def centralizer_in_group(S: StabilizerGroup,
                         probes: Sequence[PauliOperator]
                         ) -> tuple[PauliOperator, ...]:
    """Generators of the subgroup of <S> commuting with every probe: distinct
    non-identity combinations of S's generators. They commute, as elements
    of <S>, so no group is made of them here."""
    if not probes:
        return S.generators
    columns = _commutation_columns(S, probes)
    basis = ModSolver(columns, [S.system.D] * len(probes)).kernel_basis()
    gens = []
    seen = set()
    for vec in basis:
        op = S.combination(vec)
        if op.is_identity() or op in seen:
            continue
        seen.add(op)
        gens.append(op)
    return tuple(gens)


def measure(S: StabilizerGroup,
            ops: Sequence[PauliOperator]) -> StabilizerGroup:
    """Condense by measuring ops with +1 outcomes: <centralizer(S, ops), ops>,
    the one group made here, so non-commuting ops raise NonCommutingError."""
    return StabilizerGroup(S.system,
                           centralizer_in_group(S, ops) + tuple(ops))


def groups_equal(S1: StabilizerGroup, S2: StabilizerGroup) -> bool:
    """<S1> == <S2> exactly, phases included.

    One direction suffices. Each generator of S1 is solved against S2
    (stopping at the first non-member), and one packed pass of
    _combination_phases gives every phase gap at once; each gap must be a
    scalar of <S2>, a multiple of gcd(2D, S2's kernel phases). Then
    S1 is inside <S2>, and with equal image sizes the exponent images are
    equal, so every h in <S2> is a scalar times an element of <S1>. That
    scalar lies in <S1> iff scalars(<S2>) is inside scalars(<S1>), i.e.
    iff the two gcds are equal.
    """
    solver = S2._get_solver()
    if S1._get_solver().image_size() != solver.image_size():
        return False
    rows = []
    for g in S1.generators:
        x = solver.solve_packed(S2._packed(g, solver._lanes.width))
        if x is None:
            return False
        rows.append(x)
    columns = _Lanes(2 * S2.system.D).transpose(rows, len(S2.generators),
                                                solver._lanes)
    phases = S2._combination_phases(columns, len(rows), S1.generators)
    step = S2._scalar_step()
    two_d = 2 * S2.system.D
    if any((g.phase - phi) % two_d % step
           for g, phi in zip(S1.generators, phases)):
        return False
    return S1._scalar_step() == step
