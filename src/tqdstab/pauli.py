"""Generalized Pauli operators on mixed-dimension qudit systems.

An operator is stored in the normal order

    e^{i*pi*phase/D} * prod_q X_q^{x_q} Z_q^{z_q}

with sites in index order, where D = lcm of the site dimensions, X and Z are
the shift and clock operators (Z X = e^{2*pi*i/d} X Z on a dimension-d site),
and the exponent maps are sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Literal, Mapping, Sequence

from .exactmath import Rational01


@dataclass(frozen=True)
class QuditSystem:
    """A finite collection of qudits with per-site dimensions."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError("site dimensions must be >= 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_D", lcm(*dims) if dims else 1)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def D(self) -> int:
        """lcm of all site dimensions (phase lattice denominator)."""
        return self._D

    def check_site(self, site: int) -> None:
        if not 0 <= site < len(self.dims):
            raise ValueError(f"invalid site {site}")


class PauliOperator:
    """A phase times a normal-ordered product of X and Z powers."""

    __slots__ = ("system", "phase", "x", "z")

    def __init__(self, system: QuditSystem, phase: int = 0,
                 x: Mapping[int, int] | None = None,
                 z: Mapping[int, int] | None = None):
        self.system = system
        two_d = 2 * system.D
        self.phase = phase % two_d
        self.x = _reduce_sparse(system, x)
        self.z = _reduce_sparse(system, z)

    # -- equality / hashing --------------------------------------------------

    def _key(self):
        return (self.system.dims, self.phase,
                tuple(sorted(self.x.items())), tuple(sorted(self.z.items())))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PauliOperator) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def is_identity(self) -> bool:
        return self.phase == 0 and not self.x and not self.z

    def is_scalar(self) -> bool:
        return not self.x and not self.z

    @property
    def support(self) -> set[int]:
        return set(self.x) | set(self.z)

    # -- rendering -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<PauliOperator {render(self)}>"


def _reduce_sparse(system: QuditSystem,
                   exps: Mapping[int, int] | None) -> dict[int, int]:
    out: dict[int, int] = {}
    if exps:
        for site, e in exps.items():
            system.check_site(site)
            e %= system.dims[site]
            if e:
                out[site] = e
    return out


def identity(system: QuditSystem) -> PauliOperator:
    return PauliOperator(system)


def scalar(system: QuditSystem, phase: int) -> PauliOperator:
    """phase is an exponent of e^{i*pi/D}."""
    return PauliOperator(system, phase=phase)


def single(system: QuditSystem, site: int, kind: Literal["X", "Z"],
           exponent: int) -> PauliOperator:
    """Elementary X or Z power with zero phase."""
    system.check_site(site)
    if kind == "X":
        return PauliOperator(system, x={site: exponent})
    if kind == "Z":
        return PauliOperator(system, z={site: exponent})
    raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")


def multiply(P: PauliOperator, Q: PauliOperator) -> PauliOperator:
    """Normal-ordered product P*Q with exact phase tracking.

    Reordering Z_q^{z} past X_q^{x'} contributes 2*(D/d_q)*z*x' to the
    mod-2D phase exponent.
    """
    if P.system.dims != Q.system.dims:
        raise ValueError("system mismatch")
    system = P.system
    D = system.D
    phase = P.phase + Q.phase
    x = dict(P.x)
    z = dict(P.z)
    for site, xq in Q.x.items():
        zq = z.get(site)
        if zq:
            phase += 2 * (D // system.dims[site]) * zq * xq
        x[site] = x.get(site, 0) + xq
    for site, zq in Q.z.items():
        z[site] = z.get(site, 0) + zq
    return PauliOperator(system, phase=phase, x=x, z=z)


def product(ops: Iterable[PauliOperator],
            system: QuditSystem | None = None) -> PauliOperator:
    """Ordered product of operators (left to right)."""
    result = None
    for op in ops:
        result = op if result is None else multiply(result, op)
    if result is None:
        if system is None:
            raise ValueError("empty product needs an explicit system")
        return identity(system)
    return result


def adjoint(P: PauliOperator) -> PauliOperator:
    """Hermitian conjugate: multiply(P, adjoint(P)) is the identity."""
    system = P.system
    D = system.D
    phase = -P.phase
    for site, zq in P.z.items():
        xq = P.x.get(site)
        if xq:
            # (X^x Z^z)^dag = Z^-z X^-x; reorder back to normal form.
            phase += 2 * (D // system.dims[site]) * zq * xq
    return PauliOperator(system, phase=phase,
                         x={s: -e for s, e in P.x.items()},
                         z={s: -e for s, e in P.z.items()})


def power(P: PauliOperator, k: int) -> PauliOperator:
    """P^k in closed form (supports very large |k|)."""
    if k < 0:
        return power(adjoint(P), -k)
    system = P.system
    D = system.D
    # (ph X^x Z^z)^k = ph^k * c^(k choose 2) * X^{kx} Z^{kz} with c the
    # phase from commuting one Z^z block past one X^x block.
    c = sum(2 * (D // system.dims[site]) * zq * P.x.get(site, 0)
            for site, zq in P.z.items())
    phase = k * P.phase + (k * (k - 1) // 2) * c
    return PauliOperator(system, phase=phase,
                         x={s: k * e for s, e in P.x.items()},
                         z={s: k * e for s, e in P.z.items()})


def commutation_phase(P: PauliOperator, Q: PauliOperator) -> Rational01:
    """phi with P Q = e^{2*pi*i*phi} Q P (independent of operator phases)."""
    if P.system.dims != Q.system.dims:
        raise ValueError("system mismatch")
    system = P.system
    D = system.D
    total = 0
    for site in set(P.x) | set(P.z) | set(Q.x) | set(Q.z):
        scale = D // system.dims[site]
        total += scale * (P.z.get(site, 0) * Q.x.get(site, 0)
                          - P.x.get(site, 0) * Q.z.get(site, 0))
    return Rational01(total, D)


def commutes(P: PauliOperator, Q: PauliOperator) -> bool:
    return commutation_phase(P, Q).is_zero()


# ---------------------------------------------------------------------------
# Clifford conjugation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordGate:
    """One of QuditCX / QubitCZ / QubitS / QubitCXab, identified by kind."""

    kind: Literal["QuditCX", "QubitCZ", "QubitS", "QubitCXab"]
    sites: tuple[int, ...]

    def validate(self, system: QuditSystem) -> None:
        for s in self.sites:
            system.check_site(s)
        dims = [system.dims[s] for s in self.sites]
        if self.kind == "QuditCX":
            if len(self.sites) != 2 or dims[0] != dims[1]:
                raise ValueError("QuditCX requires two equal-dimension sites")
        elif self.kind in ("QubitCZ", "QubitCXab"):
            if len(self.sites) != 2 or dims != [2, 2]:
                raise ValueError(f"{self.kind} requires two qubit sites")
        elif self.kind == "QubitS":
            if len(self.sites) != 1 or dims != [2]:
                raise ValueError("QubitS requires one qubit site")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


def qudit_cx(control: int, target: int) -> CliffordGate:
    return CliffordGate("QuditCX", (control, target))


def qubit_cz(a: int, b: int) -> CliffordGate:
    return CliffordGate("QubitCZ", (a, b))


def qubit_s(a: int) -> CliffordGate:
    return CliffordGate("QubitS", (a,))


def qubit_cx(control: int, target: int) -> CliffordGate:
    return CliffordGate("QubitCXab", (control, target))


def _conjugate_one(P: PauliOperator, gate: CliffordGate) -> PauliOperator:
    gate.validate(P.system)
    system = P.system
    D = system.D
    phase = P.phase
    x = dict(P.x)
    z = dict(P.z)

    def bump(table: dict[int, int], site: int, delta: int) -> None:
        table[site] = table.get(site, 0) + delta

    # Inputs here are elementary single-site factors (see _conjugate_exact),
    # so the gate images below are already normal ordered with no extra
    # reordering phase.
    if gate.kind == "QuditCX":
        c, t = gate.sites
        # X_c -> X_c X_t, Z_t -> Z_c^{-1} Z_t; X_t, Z_c fixed.
        if P.x.get(c):
            bump(x, t, P.x[c])
        if P.z.get(t):
            bump(z, c, -P.z[t])
    elif gate.kind == "QubitCZ":
        a, b = gate.sites
        if P.x.get(a):
            bump(z, b, P.x[a])
        if P.x.get(b):
            bump(z, a, P.x[b])
    elif gate.kind == "QubitS":
        (a,) = gate.sites
        xa = P.x.get(a, 0)
        if xa:
            # S X S^dag = i X Z (normal ordered).
            bump(z, a, xa)
            phase += (D // 2) * xa
    elif gate.kind == "QubitCXab":
        c, t = gate.sites
        if P.x.get(c):
            bump(x, t, P.x[c])
        if P.z.get(t):
            bump(z, c, P.z[t])
    return PauliOperator(system, phase=phase, x=x, z=z)


def conjugate(P: PauliOperator,
              circuit: Sequence[CliffordGate]) -> PauliOperator:
    """U P U^dag for U the ordered product of the circuit's gates.

    Gates are applied in sequence order: the first gate is the innermost
    (applied first to states), so conjugation proceeds left to right.
    """
    result = P
    for gate in circuit:
        result = _conjugate_exact(result, gate)
    return result


def _conjugate_exact(P: PauliOperator, gate: CliffordGate) -> PauliOperator:
    """Exact conjugation: decompose P into elementary factors, map each, and
    re-multiply in order so no reordering phase is missed."""
    gate.validate(P.system)
    system = P.system
    factors: list[PauliOperator] = []
    for site in sorted(set(P.x) | set(P.z)):
        if P.x.get(site):
            factors.append(single(system, site, "X", P.x[site]))
        if P.z.get(site):
            factors.append(single(system, site, "Z", P.z[site]))
    out = scalar(system, P.phase)
    for f in factors:
        out = multiply(out, _conjugate_one(f, gate))
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PHASE_NAMES = {1: "i · ", 2: "-1 · ", 3: "-i · "}


def render(P: PauliOperator) -> str:
    """Canonical text form, e.g. "i · X[3]^2 Z[7]^1"."""
    D = P.system.D
    if P.phase == 0:
        head = ""
    elif (4 * P.phase) % (2 * D) == 0:
        head = _PHASE_NAMES[(4 * P.phase) // (2 * D) % 4]
    else:
        head = f"e^(i*pi*{P.phase}/{D}) · "
    parts = []
    for site in sorted(set(P.x) | set(P.z)):
        if P.x.get(site):
            parts.append(f"X[{site}]^{P.x[site]}")
        if P.z.get(site):
            parts.append(f"Z[{site}]^{P.z[site]}")
    body = " ".join(parts) if parts else "1"
    return head + body
