"""Output checks written against the monoid spec file alone.

Nothing here imports ``tracegen``: cliques, admissibility, exact counts and
the verify workload size are recomputed from the spec's letters and
independence pairs, so a defect in the library cannot vouch for itself.
"""

from __future__ import annotations

import json
import math


class CheckError(Exception):
    """An output that a correct run cannot produce."""


class Spec:
    """Letters and independence masks of one spec file, plus derived cliques."""

    def __init__(self, letters, pairs, symmetric_closure=False):
        self.letters = list(letters)
        self.index = {a: i for i, a in enumerate(self.letters)}
        indep = [0] * len(self.letters)
        for a, b in pairs:
            indep[self.index[a]] |= 1 << self.index[b]
            if symmetric_closure:
                indep[self.index[b]] |= 1 << self.index[a]
        full = (1 << len(self.letters)) - 1
        self.indep = indep
        self.dep = [full & ~m for m in indep]
        self.cliques = self._cliques()
        self.clique_set = frozenset(self.cliques)
        self._reach = {}

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(data["letters"], data["independence"], data.get("symmetric_closure", False))

    def _cliques(self):
        out = []

        def grow(mask, start):
            out.append(mask)
            for i in range(start, len(self.letters)):
                if mask & ~self.indep[i] == 0:
                    grow(mask | 1 << i, i + 1)

        grow(0, 0)
        return out

    def reach(self, c):
        """Letters that may sit in the layer after clique ``c``: those depending on it."""
        r = self._reach.get(c)
        if r is None:
            r = 0
            for i in range(len(self.letters)):
                if c >> i & 1:
                    r |= self.dep[i]
            self._reach[c] = r
        return r

    def admissible(self, c, c2):
        return c2 & ~self.reach(c) == 0


def parse_layers(spec, line):
    """Layer masks of one serialized trace line, or CheckError."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CheckError(f"unparseable line: {exc.msg}") from None
    if not isinstance(data, list):
        raise CheckError("a trace line must be an array of layers")
    layers = []
    for layer in data:
        if not isinstance(layer, list) or not layer:
            raise CheckError("each layer must be a non-empty array of letters")
        mask = 0
        last = -1
        for a in layer:
            i = spec.index.get(a) if isinstance(a, str) else None
            if i is None:
                raise CheckError(f"unknown letter {a!r}")
            if i <= last:
                raise CheckError("letters of a layer must be distinct and in alphabet order")
            last = i
            mask |= 1 << i
        if mask not in spec.clique_set:
            raise CheckError(f"layer {layer} is not a clique")
        if layers and not spec.admissible(layers[-1], mask):
            raise CheckError(f"layer {layer} may not follow the layer below it")
        layers.append(mask)
    return layers


def _body(text, prefix):
    if not text.startswith(prefix):
        raise CheckError(f"output does not start with {prefix!r}")
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    return text.split("\n")[1:-1]


def check_sample(spec, text, mode, k, n):
    """Every line a normal form of the right size, and exactly ``n`` of them."""
    lines = _body(text, "# tracegen sample")
    if len(lines) != n:
        raise CheckError(f"{len(lines)} sample lines, expected {n}")
    for line in lines:
        layers = parse_layers(spec, line)
        if mode == "boundary" and len(layers) != k:
            raise CheckError(f"boundary prefix with {len(layers)} layers, expected {k}")
        if mode == "exact-k" and sum(m.bit_count() for m in layers) != k:
            raise CheckError(f"trace of length {sum(m.bit_count() for m in layers)}, expected {k}")
    return lines


def count_traces(spec, k):
    """Exact number of traces of length ``k`` from the clique polynomial."""
    coeff = [0] * (max(c.bit_count() for c in spec.cliques) + 1)
    for c in spec.cliques:
        size = c.bit_count()
        coeff[size] += -1 if size % 2 else 1
    lam = [1]
    for m in range(1, k + 1):
        lam.append(-sum(coeff[j] * lam[m - j] for j in range(1, min(len(coeff) - 1, m) + 1)))
    return lam[k]


def key_values(lines):
    out = {}
    for line in lines:
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def check_estimate(spec, text, k, n):
    """Sample count, exact count and the count estimate within five standard errors."""
    values = key_values(_body(text, "# tracegen estimate"))
    try:
        count = int(values["n"])
        lam_exact = int(values["lambda_exact"])
        lam_hat = float(values["lambda_hat"])
        lam_se = float(values["lambda_hat_se"])
        estimate = float(values["estimate"])
    except (KeyError, ValueError) as exc:
        raise CheckError(f"estimate output lacks a value: {exc}") from None
    if count != n:
        raise CheckError(f"estimate reports n={count}, expected {n}")
    expected = count_traces(spec, k)
    if lam_exact != expected:
        raise CheckError(f"lambda_exact {lam_exact}, the spec gives {expected}")
    if not (math.isfinite(estimate) and abs(lam_hat - expected) <= 5.0 * lam_se):
        raise CheckError(
            f"lambda_hat {lam_hat} is more than 5 se ({lam_se}) from {expected}"
        )
    return values


def check_verify(text):
    lines = _body(text, "# tracegen verify")
    if not lines or lines[-1] != "result ok":
        raise CheckError(f"verify ends with {lines[-1] if lines else 'nothing'!r}, not 'result ok'")
    bad = [line for line in lines[:-1] if not line.endswith(" ok")]
    if bad:
        raise CheckError(f"failed checks: {bad}")
    return lines


def cylinder_paths(spec):
    """State paths whose probability ``verify`` recomputes on an irreducible monoid.

    This is the verify workload's size.  ``verify`` walks every admissible
    clique path of length 1 to L at four parameters (L = 4, 3, 2 for at most
    16, 40, more states) and skips, at the root, paths that leave the empty
    clique.
    """
    n = len(spec.cliques)
    max_len = 4 if n <= 16 else 3 if n <= 40 else 2
    # paths[c] = admissible paths of the current length ending in clique c
    paths = {c: 1 for c in spec.cliques}
    below = {c: 1 for c in spec.cliques}  # same, excluding any earlier empty state
    total = 0
    root_total = 0
    for length in range(1, max_len + 1):
        if length > 1:
            paths = {c2: sum(v for c, v in paths.items() if spec.admissible(c, c2))
                     for c2 in spec.cliques}
            below = {c2: sum(v for c, v in below.items() if c and spec.admissible(c, c2))
                     for c2 in spec.cliques}
        total += sum(paths.values())
        root_total += sum(below.values())
    return 3 * total + root_total
