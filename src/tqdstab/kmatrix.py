"""K-matrix presentations of abelian anyon theories.

A symmetric integer matrix K with det K != 0 presents an abelian theory:
anyons are cosets of Z^k / K Z^k, statistics q(l) = (1/2) l^T K^{-1} l and
braiding b(l, l') = l^T K^{-1} l' mod 1. The layered models built here use

    K = [[0, N], [N, -S]],

with N = diag(N_1..N_M) and S the symmetric coupling table (S_ii = 2 n_i,
S_ij = n_ij). The same theory arises from a stack of Z_{N_i^2} toric codes,
K_TC = direct sum of [[0, N_i^2], [N_i^2, 0]], by condensing the bosons
collected in the column matrix Q; the deconfined generators form L and
L^{-1} K_TC L^{-T} recovers the layered K.

Every anyon answer (theory, fusion group, census) is read off one split
presentation: `theory_from_k` hands `anyon.theory_from_presentation` K's
columns as relations and `_statistics(K)`, K^{-1} on the unit vectors, as
generator tables; `q_of` and `b_of` read the same tables. The census is
defined only for even K (even diagonal), where q is well defined on
cosets; for an odd K, such as [[3]], a relation is not a boson and the
split raises RelationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .anyon import (AnyonTheory, bilinear_form, quadratic_form,
                    theory_from_presentation, topological_spins_census)
from .exactmath import IntMatrix, Rational01, det_adjugate
from .lattice import TqdParams
from .stabilizer import VerificationError


class SingularMatrixError(ValueError):
    pass


class CondensationMatrixError(VerificationError):
    """The deconfined generators of a condensation are not integral."""


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _check_symmetric(K: IntMatrix) -> None:
    if K.rows != K.cols:
        raise ValueError("K must be square")
    for i in range(K.rows):
        for j in range(i):
            if K[i, j] != K[j, i]:
                raise ValueError("K must be symmetric")


def coupling_matrix(params: TqdParams) -> IntMatrix:
    """Symmetric M x M matrix S with S_ii = 2 n_i and S_ij = n_ij."""
    M = params.M
    return IntMatrix([[2 * params.n[i] if i == j else params.nij[i][j]
                       for j in range(M)] for i in range(M)])


def upper_coupling_matrix(params: TqdParams) -> IntMatrix:
    """Upper-triangular U with U_ii = n_i, U_ij = n_ij (i < j); S = U + U^T."""
    M = params.M
    return IntMatrix([[params.n[i] if i == j
                       else (params.nij[i][j] if j > i else 0)
                       for j in range(M)] for i in range(M)])


def build_k_tqd(params: TqdParams) -> IntMatrix:
    """[[0, N], [N, -S]] for the layered model with the given parameters."""
    M = params.M
    N = IntMatrix.diagonal(list(params.N))
    S = coupling_matrix(params)
    rows = []
    for i in range(M):
        rows.append([0] * M + [N[i, j] for j in range(M)])
    for i in range(M):
        rows.append([N[i, j] for j in range(M)] + [-S[i, j] for j in range(M)])
    return IntMatrix(rows)


def build_k_tc_stack(params: TqdParams) -> IntMatrix:
    """Direct sum of [[0, N_i^2], [N_i^2, 0]] blocks, flux-then-charge order.

    Coordinates are (m_1..m_M, e_1..e_M) so that the condensation matrices
    below can be written with diagonal N blocks.
    """
    M = params.M
    rows = []
    for i in range(M):
        rows.append([0] * M + [params.N[i] ** 2 if j == i else 0
                               for j in range(M)])
    for i in range(M):
        rows.append([params.N[i] ** 2 if j == i else 0 for j in range(M)]
                    + [0] * M)
    return IntMatrix(rows)


def _det_adjugate(K: IntMatrix) -> tuple[int, IntMatrix]:
    """det K and adj K for a symmetric nonsingular K."""
    _check_symmetric(K)
    det, adj = det_adjugate(K)
    if adj is None:
        raise SingularMatrixError("matrix is singular")
    return det, adj


def k_inverse(K: IntMatrix) -> list[list[Fraction]]:
    """Exact rational inverse of K: adj K / det K."""
    det, adj = _det_adjugate(K)
    return [[Fraction(x, det) for x in adj.row(i)] for i in range(adj.rows)]


def transform(K: IntMatrix, W: IntMatrix) -> IntMatrix:
    """Basis change K -> W K W^T for unimodular W."""
    _check_symmetric(K)
    if not W.is_unimodular():
        raise ValueError("W must be unimodular")
    return W @ K @ W.transpose()


# ---------------------------------------------------------------------------
# Anyons from K
# ---------------------------------------------------------------------------


def _statistics(K: IntMatrix
                ) -> tuple[list[Rational01], list[list[Rational01]]]:
    """K^{-1}'s generator tables: q(e_i) = adj_ii / (2 det) and
    b(e_i, e_j) = adj_ij / det mod 1, from one (det, adj)."""
    det, adj = _det_adjugate(K)
    k = K.rows
    return ([Rational01(adj[i, i], 2 * det) for i in range(k)],
            [[Rational01(adj[i, j], det) for j in range(k)] for i in range(k)])


def q_of(K: IntMatrix, l: Sequence[int]) -> Rational01:
    """Exchange statistic q(l) = (1/2) l^T K^{-1} l mod 1."""
    return quadratic_form(*_statistics(K), l)


def b_of(K: IntMatrix, l: Sequence[int], lp: Sequence[int]) -> Rational01:
    """Braiding phase b(l, l') = l^T K^{-1} l' mod 1."""
    return bilinear_form(_statistics(K)[1], l, lp)


def theory_from_k(K: IntMatrix) -> AnyonTheory:
    """AnyonTheory carried by Z^k / K Z^k with statistics from K^{-1}: the
    presentation with K's columns as relations and _statistics(K) as its
    generator tables, split into cyclic factors. Raises RelationError
    unless K is even."""
    return theory_from_presentation(*_statistics(K), K).theory


# ---------------------------------------------------------------------------
# Census and signature
# ---------------------------------------------------------------------------


def census(K: IntMatrix) -> dict[str, int]:
    """Histogram of exchange statistics over all anyons of an even K."""
    return topological_spins_census(theory_from_k(K))


def signature(K: IntMatrix) -> int:
    """Signature of K via symmetric (congruence) diagonalization.

    A zero pivot a[t][t] takes a nonzero trailing diagonal entry a[j][j] by
    a symmetric swap of t and j. If every trailing diagonal entry is zero,
    adding row and column j to t, for a[t][j] != 0, makes the pivot
    2 a[t][j] != 0.
    """
    _check_symmetric(K)
    a = [[Fraction(x) for x in K.row(i)] for i in range(K.rows)]
    n = len(a)
    sig = 0
    for t in range(n):
        if a[t][t] == 0:
            j = next((j for j in range(t + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[t], a[j] = a[j], a[t]
                for row in a:
                    row[t], row[j] = row[j], row[t]
            else:
                j = next((j for j in range(t + 1, n) if a[t][j] != 0), None)
                if j is None:
                    continue  # zero row/column: contributes nothing
                for c in range(n):
                    a[t][c] += a[j][c]
                for r in range(n):
                    a[r][t] += a[r][j]
        pivot = a[t][t]
        sig += 1 if pivot > 0 else -1
        for r in range(t + 1, n):
            if a[r][t]:
                f = a[r][t] / pivot
                for c in range(n):
                    a[r][c] -= f * a[t][c]
                for rr in range(n):
                    a[rr][r] -= f * a[rr][t]
    return sig


def to_json_dict(K: IntMatrix) -> dict:
    """CLI-facing summary: matrix, fusion group, census, signature."""
    theory = theory_from_k(K)
    return {
        "K": K.tolist(),
        "group": list(theory.orders),
        "census": topological_spins_census(theory),
        "signature": signature(K),
    }


# ---------------------------------------------------------------------------
# Condensation matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondensationMatrices:
    """Boson columns Q, deconfined-generator columns L, and checks."""

    k_tc: IntMatrix
    k_tqd: IntMatrix
    Q: IntMatrix
    L: IntMatrix
    report: dict[str, bool]

    @property
    def all_identities_hold(self) -> bool:
        return all(self.report.values())


def condensation_matrices(params: TqdParams) -> CondensationMatrices:
    """Condensation data taking the toric-code stack to the layered theory.

    Verifies exactly, in integers with adj = adj K_TC and det = det K_TC:
      Q^T adj Q = -det S            (Q^T K_TC^{-1} Q = -S),
      L^T adj Q = 0 mod det         (L^T K_TC^{-1} Q = (0; -I) mod 1),
      L K_TQD L^T = K_TC            (L^{-1} K_TC L^{-T} = K_TQD, L invertible).
    """
    M = params.M
    N = params.N
    U = upper_coupling_matrix(params)
    S = coupling_matrix(params)
    k_tc = build_k_tc_stack(params)
    k_tqd = build_k_tqd(params)

    # Q columns are the bosons m_i^{-N_i} e_i^{N_i n_i} prod_{j<i} e_j^{N_j n_ij}.
    q_rows = [[-N[i] if j == i else 0 for j in range(M)] for i in range(M)]
    q_rows += [[N[i] * U[i, j] for j in range(M)] for i in range(M)]
    Q = IntMatrix(q_rows, cols=M)

    # L columns: elementary fluxes m_i e_i^{n_i} prod_{j>i} e_j^{(N_j/N_i) n_ij},
    # then charges e_i^{N_i}.
    l_rows = [[1 if j == i else 0 for j in range(M)] + [0] * M
              for i in range(M)]
    for i in range(M):
        row = []
        for j in range(M):
            val = N[i] * U[j, i]  # (N U^T)_{ij}
            if val % N[j]:
                raise CondensationMatrixError(
                    f"deconfined generator entry {val}/{N[j]} not integral")
            row.append(val // N[j])
        l_rows.append(row + [N[i] if j == i else 0 for j in range(M)])
    L = IntMatrix(l_rows)

    det, adj = _det_adjugate(k_tc)
    qq = Q.transpose() @ adj @ Q
    lq = L.transpose() @ adj @ Q
    report = {
        "bosons_mutually_trivial": all(
            qq[i, j] == -det * S[i, j] for i in range(M) for j in range(M)),
        "deconfined_braid_trivially": all(
            lq[i, j] % det == 0 for i in range(2 * M) for j in range(M)),
        "condensed_k_matches": L @ k_tqd @ L.transpose() == k_tc,
    }
    return CondensationMatrices(k_tc, k_tqd, Q, L, report)
