"""The benchmark's three workloads: fixed job lists and their known answers.

Sizes and twist exponents are fixed per workload because they set the cost;
a run's seed only permutes the job order and, for ``anyons``, picks the
T-junction centre, which leaves every answer unchanged. This module does not
import tqdstab, so the runner's own process never loads the library.
"""

from __future__ import annotations

import random


def _job(job_id: str, kind: str, known: dict, **spec) -> dict:
    """A job; `known` holds answer fields fixed by the physics, checked
    independently of the recorded golden answer."""
    return {"id": job_id, "kind": kind, "known": known, "spec": spec}


_DIM4 = {"logical_dimension": 4}
_DIM16 = {"logical_dimension": 16}
_ISO = {"iso_match": True}
_EQUAL = {"equal": True}
# omega(1,1,1) = 1/2 and every other value 0.
_OMEGA = {"omega": {f"{g}{h}{k}": "1/2" if g + h + k == 3 else "0/1"
                    for g in range(2) for h in range(2) for k in range(2)},
          "cocycle_valid": True}


WORKLOADS = {
    # Counting path: builders, commutation checks, one wide Howell form.
    "degeneracy": {
        "largest": "ds-8x8",
        "jobs": [
            _job("ds-8x8", "degeneracy", _DIM4, type="ds", L=8),
            _job("ds-6x6", "degeneracy", _DIM4, type="ds", L=6),
            _job("tqd4-6x6", "degeneracy", _DIM16, type="tqd", N=[4], n=[1],
                 L=6),
            _job("tqd22-5x5", "degeneracy", _DIM16, type="tqd", N=[2, 2],
                 n=[1, 1], nij=[[0, 1], [1, 0]], L=5),
        ],
    },
    # String-operator path: thousands of strings, few of them distinct.
    "anyons": {
        "largest": "tqd22-twisted-4x4",
        "jobs": [
            _job("ds-3x3", "anyons", _ISO, type="ds", L=3),
            _job("tc4-3x3", "anyons", _ISO, type="tc", N=[4], L=3),
            _job("tqd4-3x3", "anyons", _ISO, type="tqd", N=[4], n=[3], L=3),
            _job("tqd22-untwisted-3x3", "anyons", _ISO, type="tqd",
                 N=[2, 2], n=[0, 0], L=3),
            _job("tqd22-twisted-3x3", "anyons", _ISO, type="tqd",
                 N=[2, 2], n=[1, 1], nij=[[0, 1], [1, 0]], L=3),
            _job("tqd22-twisted-4x4", "anyons", _ISO, type="tqd",
                 N=[2, 2], n=[1, 1], nij=[[0, 1], [1, 0]], L=4),
        ],
    },
    # Many reads of one Howell form: solves, kernels, combinations.
    "membership": {
        "largest": "cond2-6x6",
        "jobs": [
            _job("cond2-6x6", "condensation", _EQUAL, N=[2], n=[1], L=6),
            _job("cond22-4x4", "condensation", _EQUAL, N=[2, 2],
                 n=[1, 1], nij=[[0, 1], [1, 0]], L=4),
            _job("cond4-4x4", "condensation", _EQUAL, N=[4], n=[1], L=4),
            _job("spt-7x6", "spt", _OMEGA, ell=4, Lx=7, Ly=6),
            _job("neg-ds-vs-untwisted-4x4", "control_groups_equal",
                 {"equal": False}, L=4),
            _job("neg-ds-phi1-loop-4x4", "control_member",
                 {"verdict": "NotMember"}, L=4),
        ],
    },
}


def plan(workload: str, rng: random.Random) -> list[dict]:
    """The workload's jobs in an order drawn from `rng`.

    Every anyons job also gets a T-junction centre drawn from `rng`;
    placement leaves the statistics unchanged, so the golden answers hold for
    any draw.
    """
    jobs = [dict(job) for job in WORKLOADS[workload]["jobs"]]
    rng.shuffle(jobs)
    for job in jobs:
        if job["kind"] == "anyons":
            L = job["spec"]["L"]
            job["centre"] = [rng.randrange(L), rng.randrange(L)]
    return jobs
