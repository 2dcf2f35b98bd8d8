"""Reference implementations that the library's fast paths are checked
against. Nothing under src/ imports this module."""

from __future__ import annotations

from typing import Sequence

from tqdstab.exactmath import _unit_for, _xgcd


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
