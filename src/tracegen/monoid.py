"""Independence alphabets, cliques, and the clique automaton.

A monoid presentation is a finite alphabet together with an irreflexive,
symmetric independence relation telling which letters commute.  Letters are
indexed in input order and letter sets are stored as bit-masks over those
indices, so commutation tests are single AND operations.  The cliques of the
independence graph are the sets of pairwise-commuting letters and the states
of the automaton whose paths are exactly the normal forms of traces: clique
``c'`` may follow ``c`` iff ``c' ⊆ D(c)``, where ``D(c) = pair.follow(c)``
holds the letters that depend on some letter of ``c``.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    AlphabetTooLarge,
    AsymmetricPair,
    CliqueExplosion,
    DuplicateLetter,
    InvalidMonoidFile,
    ReflexivePair,
    UnknownLetter,
    UnknownLetterInPair,
)

MAX_LETTERS = 64          # cliques fit in one machine word
DEFAULT_CLIQUE_CAP = 1 << 20


def iter_bits(mask):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _LayerJSON(dict):
    """Compact JSON array of a layer's letters, keyed by the layer's mask;
    each mask is encoded on its first lookup only, by joining the letters'
    JSON strings, which are encoded once per alphabet."""

    def __init__(self, letters):
        super().__init__()
        self.quoted = [json.dumps(a) for a in letters]

    def __missing__(self, mask):
        out = self[mask] = "[" + ",".join([self.quoted[i] for i in iter_bits(mask)]) + "]"
        return out


class _Follow(dict):
    """D(mask), keyed by the mask; each mask is computed on its first lookup
    only, as the OR of its letters' dependence masks.  Every caller asks for
    cliques, so the table holds at most one entry per clique."""

    def __init__(self, dep_masks):
        super().__init__()
        self.dep_masks = dep_masks

    def __missing__(self, mask):
        out = 0
        for i in iter_bits(mask):
            out |= self.dep_masks[i]
        self[mask] = out
        return out


class IndependencePair:
    """Alphabet plus independence relation, with per-letter neighbor masks.

    ``indep_masks[i]`` holds the letters commuting with letter ``i``;
    ``dep_masks[i]`` is its complement within the alphabet and always contains
    ``i`` itself (no letter commutes with itself).  The memo tables
    ``layer_json`` and ``_follow`` are derived from these and take no part in
    equality or hashing.
    """

    __slots__ = ("letters", "indep_masks", "dep_masks", "full_mask", "_index", "layer_json",
                 "_follow")

    def __init__(self, letters, indep_masks):
        self.letters = tuple(letters)
        self.indep_masks = tuple(indep_masks)
        self.full_mask = (1 << len(self.letters)) - 1
        self.dep_masks = tuple(self.full_mask & ~m for m in self.indep_masks)
        self._index = {a: i for i, a in enumerate(self.letters)}
        self.layer_json = _LayerJSON(self.letters)
        self._follow = _Follow(self.dep_masks)

    @property
    def size(self):
        return len(self.letters)

    def letter_index(self, letter):
        try:
            return self._index[letter]
        except KeyError:
            raise UnknownLetter(f"unknown letter {letter!r}") from None

    def independent(self, i, j):
        return bool(self.indep_masks[i] >> j & 1)

    def letters_of_mask(self, mask):
        return [self.letters[i] for i in iter_bits(mask)]

    def mask_of_letters(self, letters):
        mask = 0
        for a in letters:
            mask |= 1 << self.letter_index(a)
        return mask

    def follow(self, mask):
        """D(mask): the letters depending on some letter of ``mask``,
        memoised per pair."""
        return self._follow[mask]

    def is_clique(self, mask):
        """True iff all distinct members of ``mask`` commute pairwise."""
        for i in iter_bits(mask):
            if mask & ~self.indep_masks[i] & ~(1 << i):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, IndependencePair)
            and self.letters == other.letters
            and self.indep_masks == other.indep_masks
        )

    def __hash__(self):
        return hash((self.letters, self.indep_masks))

    def __repr__(self):
        pairs = sum(m.bit_count() for m in self.indep_masks) // 2
        return f"IndependencePair({len(self.letters)} letters, {pairs} independent pairs)"


def validate_independence(raw_letters, raw_pairs, symmetric_closure=False):
    """Build a validated pair from raw letters and letter pairs.

    Input pairs must list both directions unless ``symmetric_closure`` is set;
    silent symmetrization of asymmetric input is an error, not a repair.
    """
    letters = list(raw_letters)
    if not 1 <= len(letters) <= MAX_LETTERS:
        raise AlphabetTooLarge(
            f"alphabet must have between 1 and {MAX_LETTERS} letters, got {len(letters)}"
        )
    seen = set()
    for a in letters:
        if a in seen:
            raise DuplicateLetter(f"duplicate letter {a!r}")
        seen.add(a)
    index = {a: i for i, a in enumerate(letters)}

    directed = set()
    for a, b in raw_pairs:
        if a not in index:
            raise UnknownLetterInPair(f"letter {a!r} in pair ({a!r},{b!r}) is not in the alphabet")
        if b not in index:
            raise UnknownLetterInPair(f"letter {b!r} in pair ({a!r},{b!r}) is not in the alphabet")
        if a == b:
            raise ReflexivePair(f"letter {a!r} cannot be independent of itself")
        directed.add((index[a], index[b]))
    if symmetric_closure:
        directed |= {(j, i) for i, j in directed}
    else:
        for i, j in directed:
            if (j, i) not in directed:
                raise AsymmetricPair(
                    f"pair ({letters[i]!r},{letters[j]!r}) listed without its mirror; "
                    "set \"symmetric_closure\": true to list one direction only"
                )

    masks = [0] * len(letters)
    for i, j in directed:
        masks[i] |= 1 << j
    return IndependencePair(letters, masks)


class CliqueFamily:
    """All cliques of the independence graph, indexed and wired together.

    Cliques are ordered by size then numerically by mask, so index 0 is the
    empty clique and orderings (hence matrices, outputs) are deterministic.
    The dense boolean matrix ``admissibility[i, j]`` says whether clique ``i``
    may be followed by clique ``j``, that is ``c_j ⊆ D(c_i)``; it is built
    lazily, one row per clique, since only verification and the oracle read
    it (the clique chain finds its columns from ``D(c)`` itself).
    """

    __slots__ = ("pair", "masks", "sizes", "by_mask", "masks_np", "_adm")

    def __init__(self, pair, masks):
        self.pair = pair
        self.masks = tuple(masks)
        self.sizes = np.array([m.bit_count() for m in self.masks], dtype=np.int64)
        self.by_mask = {m: i for i, m in enumerate(self.masks)}
        self.masks_np = np.array(self.masks, dtype=np.uint64)
        self._adm = None

    def __len__(self):
        return len(self.masks)

    @property
    def max_clique_size(self):
        return int(self.sizes[-1]) if len(self.masks) else 0

    @property
    def admissibility(self):
        if self._adm is None:
            n = len(self.masks)
            adm = np.empty((n, n), dtype=bool)
            for i, mask in enumerate(self.masks):
                outside = np.uint64(self.pair.full_mask & ~self.pair.follow(mask))
                np.equal(self.masks_np & outside, 0, out=adm[i])
            self._adm = adm
        return self._adm

    def index_of(self, mask):
        return self.by_mask[mask]


def cf_admissible(pair, c, c2):
    """May clique ``c2`` directly follow ``c``, i.e. is ``c2 ⊆ D(c)``?  The
    empty clique follows anything; only the empty clique follows it."""
    return not c2 & ~pair.follow(c)


def enumerate_cliques(pair, cap=DEFAULT_CLIQUE_CAP):
    """Enumerate every clique of ``(A, I)``, empty clique included."""
    masks = []

    def grow(mask, start):
        masks.append(mask)
        if len(masks) > cap:
            raise CliqueExplosion(
                f"more than {cap} cliques; raise the cap to proceed"
            )
        for i in range(start, pair.size):
            bit = 1 << i
            # letter i joins iff every current member commutes with it
            if mask & ~pair.indep_masks[i] == 0:
                grow(mask | bit, i + 1)

    grow(0, 0)
    masks.sort(key=lambda m: (m.bit_count(), m))
    return CliqueFamily(pair, masks)


class ComponentDecomposition:
    """Partition of the alphabet into connected pieces of the dependence graph.

    Letters in different components commute, so the monoid is the direct
    product of the component monoids; a single component means the monoid is
    irreducible.
    """

    __slots__ = ("components", "letter_map", "global_indices")

    def __init__(self, components, letter_map, global_indices):
        self.components = tuple(components)
        self.letter_map = tuple(letter_map)
        self.global_indices = tuple(tuple(g) for g in global_indices)

    def __len__(self):
        return len(self.components)

    @property
    def irreducible(self):
        return len(self.components) == 1

    def to_global_mask(self, component_index, local_mask):
        gidx = self.global_indices[component_index]
        mask = 0
        for b in iter_bits(local_mask):
            mask |= 1 << gidx[b]
        return mask

    def split_mask(self, mask):
        """Split a global letter mask into per-component local masks."""
        locals_ = [0] * len(self.components)
        for g in iter_bits(mask):
            ci, li = self.letter_map[g]
            locals_[ci] |= 1 << li
        return locals_


def decompose_components(pair):
    """Connected components of the dependence graph, in first-letter order."""
    n = pair.size
    comp_of = [-1] * n
    order = []
    for start in range(n):
        if comp_of[start] >= 0:
            continue
        ci = len(order)
        members = []
        stack = [start]
        comp_of[start] = ci
        while stack:
            i = stack.pop()
            members.append(i)
            for j in iter_bits(pair.dep_masks[i] & ~(1 << i)):
                if comp_of[j] < 0:
                    comp_of[j] = ci
                    stack.append(j)
        order.append(sorted(members))

    components = []
    letter_map = [None] * n
    for ci, members in enumerate(order):
        letters = [pair.letters[g] for g in members]
        local_of = {g: l for l, g in enumerate(members)}
        masks = []
        for g in members:
            local_mask = 0
            for g2 in iter_bits(pair.indep_masks[g]):
                if comp_of[g2] == ci:
                    local_mask |= 1 << local_of[g2]
            masks.append(local_mask)
        components.append(IndependencePair(letters, masks))
        for g in members:
            letter_map[g] = (ci, local_of[g])
    return ComponentDecomposition(components, letter_map, order)


# -- monoid files ------------------------------------------------------------

def parse_monoid(data):
    """Validate a decoded monoid object (``letters`` + ``independence``)."""
    if not isinstance(data, dict):
        raise InvalidMonoidFile("monoid file must hold a JSON object")
    try:
        letters = data["letters"]
        pairs = data["independence"]
    except KeyError as exc:
        raise InvalidMonoidFile(f"monoid file lacks field {exc.args[0]!r}") from None
    if not isinstance(letters, list) or not all(isinstance(a, str) for a in letters):
        raise InvalidMonoidFile("field 'letters' must be an array of strings")
    if not isinstance(pairs, list):
        raise InvalidMonoidFile("field 'independence' must be an array of letter pairs")
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)):
            raise InvalidMonoidFile(f"independence entry {p!r} is not a 2-element array of strings")
    closure = data.get("symmetric_closure", False)
    if not isinstance(closure, bool):
        raise InvalidMonoidFile("field 'symmetric_closure' must be a boolean")
    return validate_independence(letters, [tuple(p) for p in pairs], symmetric_closure=closure)


def load_monoid(path):
    """Read and validate a monoid spec file (UTF-8 JSON)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise InvalidMonoidFile(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise InvalidMonoidFile(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InvalidMonoidFile(f"{path}: JSON nested too deeply") from None
    return parse_monoid(data)
