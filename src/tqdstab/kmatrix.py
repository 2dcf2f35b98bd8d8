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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .exactmath import (IntMatrix, Rational01, det_adjugate,
                        smith_normal_form, unimodular_inverse)
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


@dataclass(frozen=True)
class AnyonGroupFromK:
    """Cokernel Z^k / K Z^k with deterministic coset representatives."""

    orders: tuple[int, ...]            # invariant factors > 1
    generators: tuple[tuple[int, ...], ...]  # one vector per order
    representatives: tuple[tuple[int, ...], ...]  # all |det K| cosets

    @property
    def size(self) -> int:
        return prod(self.orders)


def anyon_group_from_k(K: IntMatrix) -> AnyonGroupFromK:
    """Invariant factors and coset representatives of Z^k / K Z^k.

    Through the Smith decomposition U K V = diag(d), a vector x lies in the
    coset labelled by (U x mod d); representatives are U^{-1} t for t in the
    fundamental box prod [0, d_i).
    """
    _check_symmetric(K)
    if K.determinant() == 0:
        raise SingularMatrixError("K must be nonsingular")
    snf = smith_normal_form(K)
    diag = snf.diagonal()
    u_inv = unimodular_inverse(snf.U)
    kept = [i for i, d in enumerate(diag) if d > 1]
    orders = tuple(diag[i] for i in kept)
    gens = tuple(tuple(u_inv[r, i] for r in range(K.rows)) for i in kept)
    reps: list[tuple[int, ...]] = []
    tuples: list[list[int]] = [[]]
    for i in kept:
        tuples = [t + [v] for t in tuples for v in range(diag[i])]
    for t in tuples:
        full = [0] * K.rows
        for idx, i in enumerate(kept):
            full[i] = t[idx]
        reps.append(tuple(u_inv.mat_vec(full)))
    return AnyonGroupFromK(orders, gens, tuple(reps))


def reduce_vector(K: IntMatrix, l: Sequence[int]) -> tuple[int, ...]:
    """Canonical coset representative of l under l ~ l + K m."""
    snf = smith_normal_form(K)
    diag = snf.diagonal()
    t = snf.U.mat_vec(list(l))
    t = [v % d for v, d in zip(t, diag)]
    return tuple(unimodular_inverse(snf.U).mat_vec(t))


def _pairing(det_adj: tuple[int, IntMatrix], l: Sequence[int],
             lp: Sequence[int], scale: int) -> Rational01:
    """l^T adj l' / (scale * det) mod 1, from K's (det, adj)."""
    det, adj = det_adj
    return Rational01(sum(x * y for x, y in zip(l, adj.mat_vec(lp))),
                      scale * det)


def q_of(K: IntMatrix, l: Sequence[int]) -> Rational01:
    """Exchange statistic q(l) = (1/2) l^T K^{-1} l = l^T adj l / (2 det)."""
    return _pairing(_det_adjugate(K), l, l, 2)


def b_of(K: IntMatrix, l: Sequence[int], lp: Sequence[int]) -> Rational01:
    """Braiding phase b(l, l') = l^T K^{-1} l' = l^T adj l' / det mod 1."""
    return _pairing(_det_adjugate(K), l, lp, 1)


def theory_from_k(K: IntMatrix):
    """AnyonTheory carried by Z^k / K Z^k with statistics from K^{-1}."""
    from .anyon import AnyonTheory
    group = anyon_group_from_k(K)
    det_adj = _det_adjugate(K)
    gens = group.generators
    q_gen = [_pairing(det_adj, g, g, 2) for g in gens]
    b_gen = [[_pairing(det_adj, g, h, 1) for h in gens] for g in gens]
    return AnyonTheory(group.orders, q_gen, b_gen)


# ---------------------------------------------------------------------------
# Census and signature
# ---------------------------------------------------------------------------


def _census(K: IntMatrix, group: AnyonGroupFromK) -> dict[Rational01, int]:
    det_adj = _det_adjugate(K)
    counts: dict[Rational01, int] = {}
    for rep in group.representatives:
        q = _pairing(det_adj, rep, rep, 2)
        counts[q] = counts.get(q, 0) + 1
    return counts


def census(K: IntMatrix) -> dict[Rational01, int]:
    """Histogram of exchange statistics over all anyons of K."""
    return _census(K, anyon_group_from_k(K))


def signature(K: IntMatrix) -> int:
    """Signature of K via symmetric (congruence) diagonalization."""
    _check_symmetric(K)
    a = [[Fraction(x) for x in K.row(i)] for i in range(K.rows)]
    n = len(a)
    sig = 0
    for t in range(n):
        if a[t][t] == 0:
            j = next((j for j in range(t + 1, n) if a[t][j] != 0), None)
            if j is None:
                continue  # zero row/column: contributes nothing
            # Symmetric row+col addition makes the pivot nonzero.
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
    group = anyon_group_from_k(K)
    hist = _census(K, group)
    return {
        "K": K.tolist(),
        "group": list(group.orders),
        "census": {str(q): c for q, c in sorted(
            hist.items(), key=lambda kv: (kv[0].denominator, kv[0].numerator))},
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
