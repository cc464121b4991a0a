"""Independence alphabets, cliques, and the clique automaton.

A monoid presentation is a finite alphabet together with an irreflexive,
symmetric independence relation telling which letters commute.  Letters are
indexed in input order and letter sets are stored as bit-masks over those
indices, so commutation tests are single AND operations.  The cliques of the
independence graph are the sets of pairwise-commuting letters and the states
of the automaton whose paths are exactly the normal forms of traces: clique
``c'`` may follow ``c`` iff ``c' ⊆ D(c)``, where ``D(c) = pair.follow(c)``
holds the letters that depend on some letter of ``c``.

Every mask, in every module, numbers the letters of the one alphabet.  An
irreducible component (``decompose_components``) is a letter mask too, and
its cliques (``enumerate_cliques`` with that mask) are cliques of the whole
pair: no letter is renumbered, so a component's layers are already layers of
the product monoid.
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
_CLASS_BLOCK = 1 << 20    # cap classes*cliques per block of the follow-class table


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


class FollowClasses:
    """The cliques of a family grouped by their follow set D(c); nothing in it
    depends on a parameter.

    ``follow`` holds the distinct D values in increasing order, with the whole
    alphabet among them: it is the follow set of the clique chain's start
    state, which every clique may follow.  ``class_of[i]`` is clique ``i``'s
    index in ``follow`` and ``start`` the alphabet's.  ``counts[k, j]`` is the
    number of cliques of size ``j`` inside ``alphabet & ~follow[k]``, the
    letters that commute with every letter of a clique of class ``k``, so
    ``sum_j (-1)^j counts[k, j] x^j`` is their clique polynomial.  The counts
    are taken in blocks of at most ``_CLASS_BLOCK`` class-clique pairs.
    """

    __slots__ = ("follow", "class_of", "start", "counts")

    def __init__(self, family):
        d = np.array([*map(family.pair.follow, family.masks), family.alphabet], dtype=np.uint64)
        self.follow, inverse = np.unique(d, return_inverse=True)
        self.class_of = inverse[:-1]
        self.start = int(inverse[-1])
        # cliques come sorted by size, and every size up to the largest occurs
        size_starts = np.searchsorted(family.sizes, np.arange(family.max_clique_size + 1))
        self.counts = np.empty((len(self.follow), len(size_starts)), dtype=np.int64)
        block = max(1, _CLASS_BLOCK // len(family))
        for lo in range(0, len(self.follow), block):
            inside = (family.masks_np & self.follow[lo:lo + block, None]) == 0
            np.add.reduceat(inside, size_starts, axis=1, dtype=np.int64,
                            out=self.counts[lo:lo + block])


class CliqueFamily:
    """All cliques of the independence graph inside the letter mask
    ``alphabet``, indexed and wired together.

    Cliques are ordered by size then numerically by mask, so index 0 is the
    empty clique and orderings (hence matrices, outputs) are deterministic.
    Clique ``j`` may follow clique ``i`` iff ``c_j ⊆ D(c_i)``, which depends
    on ``i`` only through its follow class ``k`` in ``follow_classes``
    (``FollowClasses``, built on first read): ``class_columns(k)`` lists
    those ``j``, and every reader of the relation asks it.  The dense boolean
    matrix ``admissibility[i, j]`` repeats the row of clique ``i``'s class
    for each clique; it is built lazily, and only the dense transition
    matrix and the oracle read it.
    """

    __slots__ = ("pair", "alphabet", "masks", "sizes", "by_mask", "masks_np", "_adm",
                 "_classes")

    def __init__(self, pair, masks, alphabet):
        self.pair = pair
        self.alphabet = alphabet
        self.masks = tuple(masks)
        self.sizes = np.array([m.bit_count() for m in self.masks], dtype=np.int64)
        self.by_mask = {m: i for i, m in enumerate(self.masks)}
        self.masks_np = np.array(self.masks, dtype=np.uint64)
        self._adm = None
        self._classes = None

    def __len__(self):
        return len(self.masks)

    @property
    def max_clique_size(self):
        return int(self.sizes[-1]) if len(self.masks) else 0

    @property
    def admissibility(self):
        if self._adm is None:
            classes = self.follow_classes
            self._adm = self.class_admissibility(range(len(classes.follow)))[classes.class_of]
        return self._adm

    def class_columns(self, k):
        """Indices of the cliques that may follow a clique of follow class
        ``k``: those inside its follow set ``follow_classes.follow[k]``."""
        return np.flatnonzero((self.masks_np & ~self.follow_classes.follow[k]) == 0)

    def class_admissibility(self, classes):
        """One boolean row of ``len(self)`` per follow class in ``classes``,
        true on the class's columns."""
        rows = np.zeros((len(classes), len(self.masks)), dtype=bool)
        for row, k in zip(rows, classes):
            row[self.class_columns(k)] = True
        return rows

    @property
    def follow_classes(self):
        if self._classes is None:
            self._classes = FollowClasses(self)
        return self._classes

    def index_of(self, mask):
        return self.by_mask[mask]


def cf_admissible(pair, c, c2):
    """May clique ``c2`` directly follow ``c``, i.e. is ``c2 ⊆ D(c)``?  The
    empty clique follows anything; only the empty clique follows it."""
    return not c2 & ~pair.follow(c)


def enumerate_cliques(pair, cap=DEFAULT_CLIQUE_CAP, alphabet=None):
    """Enumerate every clique of ``(A, I)`` inside the letter mask
    ``alphabet`` (every letter by default), empty clique included."""
    if alphabet is None:
        alphabet = pair.full_mask
    letters = list(iter_bits(alphabet))
    masks = []

    def grow(mask, start):
        masks.append(mask)
        if len(masks) > cap:
            raise CliqueExplosion(
                f"more than {cap} cliques; raise the cap to proceed"
            )
        for pos in range(start, len(letters)):
            i = letters[pos]
            # letter i joins iff every current member commutes with it
            if mask & ~pair.indep_masks[i] == 0:
                grow(mask | 1 << i, pos + 1)

    grow(0, 0)
    masks.sort(key=lambda m: (m.bit_count(), m))
    return CliqueFamily(pair, masks, alphabet)


def decompose_components(pair, alphabet=None):
    """Connected components of the dependence graph on the letter mask
    ``alphabet`` (every letter by default), as letter masks in first-letter
    order.

    Letters in different components commute, so the monoid is the direct
    product of the component monoids; a single component means the monoid is
    irreducible.
    """
    rest = pair.full_mask if alphabet is None else alphabet
    components = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for i in iter_bits(frontier):
                reach |= pair.dep_masks[i]
            frontier = reach & rest & ~comp
            comp |= frontier
        components.append(comp)
        rest &= ~comp
    return tuple(components)


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
