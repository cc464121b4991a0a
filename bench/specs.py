"""Monoid spec files the benchmark runs on, and the generator that writes them.

The files under ``specs/`` are checked in; ``python3 bench/specs.py`` rewrites
them from the definitions below, and ``load_specs`` refuses to run when a file
no longer matches its definition or its clique count, so a workload cannot
silently change size.
"""

from __future__ import annotations

import json
from pathlib import Path

from checker import Spec

SPEC_DIR = Path(__file__).resolve().parent / "specs"


def cycle_complement(n):
    """``C_n^c``: n letters on a cycle, each depending only on its two neighbours."""
    letters = [f"x{i:02d}" for i in range(n)]
    pairs = [
        [letters[i], letters[j]]
        for i in range(n)
        for j in range(n)
        if i != j and (i - j) % n not in (1, n - 1)
    ]
    return {"letters": letters, "independence": pairs}


def fig1():
    """Three letters: a and b commute, c blocks both."""
    return {"letters": ["a", "b", "c"], "independence": [["a", "b"], ["b", "a"]]}


def prod32():
    """Product of a free 3-letter and a free 2-letter monoid (reducible)."""
    return {
        "letters": ["a1", "a2", "a3", "b1", "b2"],
        "independence": [[a, b] for a in ("a1", "a2", "a3") for b in ("b1", "b2")],
        "symmetric_closure": True,
    }


# name -> (definition, clique count including the empty clique)
SPECS = {
    "fig1": (fig1, 5),
    "prod32": (prod32, 12),
    "c14": (lambda: cycle_complement(14), 843),
    "c16": (lambda: cycle_complement(16), 2207),
}


def render(name):
    return json.dumps(SPECS[name][0](), separators=(",", ":")) + "\n"


def write_specs():
    SPEC_DIR.mkdir(exist_ok=True)
    for name in SPECS:
        (SPEC_DIR / f"{name}.json").write_text(render(name), encoding="utf-8")


def load_specs():
    """Checked-in spec paths by name, after checking content and clique counts."""
    paths = {}
    for name, (_, cliques) in SPECS.items():
        path = SPEC_DIR / f"{name}.json"
        if path.read_text(encoding="utf-8") != render(name):
            raise ValueError(f"{path} differs from its generator; run bench/specs.py")
        found = len(Spec.from_file(path).cliques)
        if found != cliques:
            raise ValueError(f"{name} has {found} cliques, expected {cliques}")
        paths[name] = path
    return paths


if __name__ == "__main__":
    write_specs()
