"""Reference implementations that the library's fast paths are checked
against. Nothing under src/ imports this module."""

from __future__ import annotations

from typing import Sequence

from tqdstab.exactmath import _unit_for, _xgcd
from tqdstab.pauli import adjoint, product


def dense_howell_form(rows: Sequence[Sequence[int]],
                      big: int) -> tuple[list[list[int]],
                                         list[tuple[int, int, int]]]:
    """Howell form of the Z_big row span of `rows` with dense rows.

    At each column every pending row is scanned, and each xgcd step
    rewrites two full-width rows. Same pivots, pivot order and arithmetic
    as `exactmath.howell_form`; its rows are the dense copies of that
    function's sparse rows.
    """
    width = len(rows[0]) if rows else 0
    todo = [r for r in ([x % big for x in row] for row in rows) if any(r)]
    H: list[list[int]] = []
    pivots: list[tuple[int, int, int]] = []
    for col in range(width):
        here = [r for r in todo if r[col]]
        rest = [r for r in todo if not r[col]]
        if not here:
            todo = rest
            continue
        piv = here[0]
        for r in here[1:]:
            a, b = piv[col], r[col]
            g, s, t = _xgcd(a, b)
            newp = [(s * x + t * y) % big for x, y in zip(piv, r)]
            newr = [((b // g) * x - (a // g) * y) % big
                    for x, y in zip(piv, r)]
            piv = newp
            if any(newr):
                rest.append(newr)
        u = _unit_for(piv[col], big)
        piv = [(u * x) % big for x in piv]
        d = piv[col]
        H.append(piv)
        pivots.append((len(H) - 1, col, d))
        # Howell closure: the annihilator (big/d) * piv re-enters the queue.
        ann = [((big // d) * x) % big for x in piv]
        ann[col] = 0
        if any(ann):
            rest.append(ann)
        todo = rest
    return H, pivots


def transposed_solver_rows(group) -> tuple[list[list[int]], list[list[int]]]:
    """(A, rows): a stabilizer group's 2n x k lifted generator matrix and
    the [M | I] Howell input rows of its solver, built entry by entry as
    the transposes are defined: A[i][j] is entry i of generator j's lifted
    vector, and row j is column j of A, each entry times big / D = 1, then
    the unit vector e_j."""
    cols = [group._lifted(g) for g in group.generators]
    m, n = 2 * group.system.n_sites, len(cols)
    A = [[cols[j][i] for j in range(n)] for i in range(m)]
    rows = [[A[i][j] for i in range(m)] + [1 if k == j else 0
                                           for k in range(n)]
            for j in range(n)]
    return A, rows


def junction_exponent_by_products(w1, w2, w3) -> int:
    """t in Z_{2D} with W1 W2^dag W3 = e^{2 pi i t / 2D} W3 W2^dag W1, read
    off by forming both products and comparing their phases."""
    lhs = product([w1, adjoint(w2), w3])
    rhs = product([w3, adjoint(w2), w1])
    if lhs.x != rhs.x or lhs.z != rhs.z:
        raise ValueError("operators differ by more than a phase")
    return (lhs.phase - rhs.phase) % (2 * w1.system.D)
