"""The benchmark's workloads: fixed CLI command lines over the checked-in specs.

Sizes are chosen so one closed-loop repeat takes about one to four seconds on
a 2-core x86 machine, which gives several repeats per measured run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One ``python -m tracegen`` invocation, minus the seed."""

    kind: str                 # sample | estimate | verify
    spec: str                 # key of specs.SPECS
    mode: str | None = None   # sample mode
    k: int | None = None
    n: int | None = None
    p: float | None = None
    phi: str | None = None

    def argv(self, spec_path, seed):
        args = [self.kind, "--monoid", spec_path]
        if self.mode is not None:
            args += ["--mode", self.mode]
        if self.k is not None:
            args += ["--k", str(self.k)]
        if self.p is not None:
            args += ["--p", repr(self.p)]
        if self.phi is not None:
            args += ["--phi", self.phi]
        if self.n is not None:
            args += ["--n", str(self.n)]
        if self.kind != "verify":
            args += ["--seed", str(seed), "--jobs", "1"]
        return args


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple


WORKLOADS = {
    "boundary-wide": Workload(
        "boundary prefixes on C_16^c (2207 cliques): dense chain build, "
        "O(n) step kernel and prefix serialization; no estimator work",
        (Command("sample", "c16", mode="boundary", k=20, n=10_000),),
    ),
    "estimate-deep": Workload(
        "height estimate on fig1 at k=10: the divisor lift is almost all the "
        "time and the chain has 5 states, so chain changes must not move it",
        (Command("estimate", "fig1", phi="height", k=10, n=8_000),),
    ),
    "product-mix": Workload(
        "reducible prod32: exact-k rejection at ~2% acceptance plus the scalar "
        "subuniform sampler, per-component chains and layer unions",
        (
            Command("sample", "prod32", mode="exact-k", k=20, n=5_000),
            Command("sample", "prod32", mode="subuniform", p=0.17, n=25_000),
        ),
    ),
    "verify-c14": Workload(
        "verify on C_14^c (843 cliques): ~917k cylinder-path checks, chains at "
        "four parameters and the Parry power iteration; bypasses the samplers",
        (Command("verify", "c14"),),
    ),
}
