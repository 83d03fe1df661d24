"""Seeded workload generators.

Each workload is a fixed stratified design over the input ranges below;
the seed draws every input value inside its stratum.  The strata fix the
mix of cheap and expensive operations, so runs with different seeds cost
the same to within a few percent, while every n and y changes with the
seed and the output checks cannot pass from memory.  Where the cost of an
operation grows steeply inside a stratum (near-one, verify), the draw is
confined to the middle ``spread`` share of the stratum.

sweep     compare/approx/solve/eval over y in {3/2, 2, 4, 100} with
          three-value --n lists, n log-uniform in [10, 1e15] (one value
          per third of the log range).  The paper's decade sweeps: solver,
          asymptotics and CLI cost dominate; eval_log walks <= ~90 terms.
near-one  eval and compare at y = 1 + 10^-u, u in [2, 4], n in [1e3, 1e5]
          (5 x 5 grid in u and log n).  eval_log walks 260 to 17,265
          terms and carries most of the time.
verify    quadcheck (n <= 60), monotone certificates (N, R in [15, 45]) and
          library eval_exact(n, y), n in [300, 700], y in {2, 3/2}.  Exact
          rational and quadrature work each take a large share.

u stops at 4 and eval_exact at n = 700 (not 1e-5 and 1200) so that one
operation stays well under a pass of the pool, which must repeat several
times within a run: eval_log(1e5, 1 + 1e-5) alone takes 5.5 s and
eval_exact(1200, 3/2) about 10 s, on one 2.1 GHz x86-64 core.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Dict, List, Tuple

WORKLOADS = ("sweep", "near-one", "verify")

SWEEP_COMMANDS = ("compare", "approx", "solve", "eval")
SWEEP_YS = ("3/2", "2", "4", "100")
SWEEP_REPEATS = 8
FORMATS = ("csv", "json", "table")

NEAR_ONE_GRID = 5
VERIFY_YS = ("2", "3/2")


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind "cli": ``args`` is the argv of one in-process CLI call.
    kind "exact": ``args`` is (n, y) for one library eval_exact call.
    """

    kind: str
    args: Tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.kind}: {' '.join(self.args)}"


def _stratum(rng: random.Random, lo: float, hi: float, k: int, strata: int, spread: float) -> float:
    """A draw from the middle ``spread`` share of stratum k of [lo, hi]."""
    width = (hi - lo) / strata
    centre = lo + (k + 0.5) * width
    return centre + rng.uniform(-0.5, 0.5) * spread * width


def _sweep(rng: random.Random) -> List[Op]:
    ops = []
    for rep in range(SWEEP_REPEATS):
        for command in SWEEP_COMMANDS:
            for y in SWEEP_YS:
                ns = [round(10 ** _stratum(rng, 1, 15, k, 3, 1.0)) for k in range(3)]
                fmt = FORMATS[(rep + len(ops)) % len(FORMATS)]
                argv = (command, "--y", y, "--n", ",".join(map(str, ns)), "--format", fmt)
                ops.append(Op("cli", argv))
    rng.shuffle(ops)
    return ops


def near_one_y(u: float) -> str:
    """1 + 10^-u with a three-digit mantissa, as an exact decimal string."""
    exponent = int(u)
    mantissa = round(1000 * 10 ** (exponent - u))
    return str(Decimal(1) + Decimal(mantissa).scaleb(-(exponent + 3)))


def _near_one(rng: random.Random) -> List[Op]:
    ops = []
    for i in range(NEAR_ONE_GRID):
        for j in range(NEAR_ONE_GRID):
            y = near_one_y(_stratum(rng, 2, 4, i, NEAR_ONE_GRID, 0.2))
            n = round(10 ** _stratum(rng, 3, 5, j, NEAR_ONE_GRID, 0.2))
            command = "eval" if (i + j) % 2 == 0 else "compare"
            fmt = FORMATS[(i + j) % len(FORMATS)]
            ops.append(Op("cli", (command, "--y", y, "--n", str(n), "--format", fmt)))
    rng.shuffle(ops)
    return ops


def _verify(rng: random.Random) -> List[Op]:
    ops = []
    for y in VERIFY_YS:
        for k in range(6):
            n = round(10 ** _stratum(rng, math.log10(300), math.log10(700), k, 6, 0.2))
            ops.append(Op("exact", (str(n), y)))
        for k in range(6):
            small = round(_stratum(rng, 1, 30, k, 6, 0.2))
            large = round(_stratum(rng, 30, 60, k, 6, 0.2))
            ops.append(Op("cli", ("quadcheck", "--y", y, "--n", f"{small},{large}", "--format", "csv")))
        for k in range(3):
            N = round(_stratum(rng, 15, 45, k, 3, 0.2))
            R = round(_stratum(rng, 15, 45, 2 - k, 3, 0.2))
            ops.append(Op("cli", ("monotone", "--y", y, "--N", str(N), "--R", str(R))))
    rng.shuffle(ops)
    return ops


_GENERATORS: Dict[str, Callable[[random.Random], List[Op]]] = {
    "sweep": _sweep,
    "near-one": _near_one,
    "verify": _verify,
}


def generate(workload: str, seed: int) -> List[Op]:
    """The operation pool of ``workload``; the same seed gives the same pool."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
