"""Finite traces in layered normal form (heaps of pieces).

A trace is stored as its unique chain of non-empty cliques: layer ``i+1`` may
only hold letters that depend on something in layer ``i``, which is exactly
the picture of pieces falling onto a heap.  Words are normalized by letting
letters fall one at a time; congruent words (equal up to swapping adjacent
independent letters) land in identical heaps.
"""

from __future__ import annotations

import json

from .errors import InvalidTrace, UnknownLetter
from .monoid import cf_admissible, iter_bits


class Trace:
    """An element of the monoid: a chain of non-empty clique masks.

    Instances are immutable; equality and hashing look at the layer masks and
    the presentation, so traces can be collected in sets and dicts.
    """

    __slots__ = ("pair", "layers")

    def __init__(self, pair, layers=()):
        self.pair = pair
        self.layers = tuple(layers)

    @property
    def length(self):
        return sum(m.bit_count() for m in self.layers)

    @property
    def height(self):
        return len(self.layers)

    @property
    def first_layer(self):
        return self.layers[0] if self.layers else 0

    def word(self):
        """A representative word: letters layer by layer, in alphabet order."""
        out = []
        for mask in self.layers:
            out.extend(self.pair.letters[i] for i in iter_bits(mask))
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, Trace)
            and self.layers == other.layers
            and self.pair == other.pair
        )

    def __hash__(self):
        return hash(self.layers)

    def __len__(self):
        return self.length

    def __repr__(self):
        body = "|".join("".join(self.pair.letters_of_mask(m)) for m in self.layers)
        return f"Trace({body or 'empty'})"


def _insert_index(layers, i, pair):
    """Drop letter ``i`` onto the mutable heap ``layers`` (list of masks)."""
    dep = pair.dep_masks[i]
    land = 0
    for j in range(len(layers) - 1, -1, -1):
        if layers[j] & dep:
            land = j + 1
            break
    if land == len(layers):
        layers.append(1 << i)
    else:
        layers[land] |= 1 << i
    return layers


def _normalize_indices(indices, pair):
    layers = []
    for i in indices:
        _insert_index(layers, i, pair)
    return tuple(layers)


def normalize_word(word, pair):
    """Normal form of a word (any iterable of letters; a str iterates chars)."""
    return Trace(pair, _normalize_indices((pair.letter_index(a) for a in word), pair))


def trace_concat(u, v):
    """Concatenation ``u . v``: drop v's letters, layer by layer, onto u."""
    if u.pair != v.pair:
        raise ValueError("traces over different monoids")
    layers = list(u.layers)
    for mask in v.layers:
        for i in iter_bits(mask):
            _insert_index(layers, i, u.pair)
    return Trace(u.pair, layers)


def trace_from_layers(pair, layer_masks):
    """Trace from an admissible chain of non-empty clique masks, checked."""
    layers = tuple(layer_masks)
    prev = None
    for m in layers:
        if m == 0:
            raise InvalidTrace("empty layer in normal form")
        if not pair.is_clique(m):
            raise InvalidTrace("layer letters do not commute pairwise")
        if prev is not None and not cf_admissible(pair, prev, m):
            raise InvalidTrace("consecutive layers violate admissibility")
        prev = m
    return Trace(pair, layers)


def topping(u, n):
    """First ``n`` layers of the trace ``u``."""
    return Trace(u.pair, u.layers[: max(n, 0)])


def remove_bottom(layers, submask, pair):
    """Erase ``submask`` (a subset of the first layer) and re-settle the heap."""
    base = layers[0] & ~submask
    out = [base] if base else []
    for mask in layers[1:]:
        for i in iter_bits(mask):
            _insert_index(out, i, pair)
    return tuple(out)


def left_quotient(ul, vl, pair):
    """Normal form of ``u^-1 v`` from the layers of ``u`` and ``v``, or None.

    Letters are cancelled one at a time: any letter of u's first layer must
    appear in v's first layer, and cancelling it on both sides preserves the
    answer because the monoid is cancellative.
    """
    while ul:
        bit = ul[0] & -ul[0]
        if not vl or not vl[0] & bit:
            return None
        ul = remove_bottom(ul, bit, pair)
        vl = remove_bottom(vl, bit, pair)
    return vl


def divides(u, v):
    """Left divisibility: is there a ``w`` with ``v = u . w``?"""
    if u.pair != v.pair:
        raise ValueError("traces over different monoids")
    if u.length > v.length:
        return False
    return left_quotient(u.layers, v.layers, u.pair) is not None


def project(u, alphabet):
    """Erase the letters outside ``alphabet``, a letter mask that is a union
    of irreducible components.  Its letters depend on no letter outside it,
    so they keep their layers, which fill a prefix of the heap: the masked
    layers, cut at the first empty one."""
    layers = []
    for mask in u.layers:
        mask &= alphabet
        if not mask:
            break
        layers.append(mask)
    return Trace(u.pair, layers)


# -- serialization -----------------------------------------------------------

def serialize_trace(u):
    """Layers as lists of letter strings, letters in alphabet order."""
    return [u.pair.letters_of_mask(m) for m in u.layers]


def layers_line(pair, masks):
    """One compact JSON line for a sequence of layer masks, given as Python
    ints (a numpy row goes through ``.tolist()`` first).  It joins the pair's
    cached per-mask fragments, so each distinct layer is encoded once."""
    return "[" + ",".join(map(pair.layer_json.__getitem__, masks)) + "]"


def layers_block(pair, rows):
    """The ``layers_line`` of each of ``rows`` (sequences of layer masks as
    Python ints), joined by newlines into one text block with no newline at
    its end: a row chunk's output, written at once."""
    return "\n".join([layers_line(pair, masks) for masks in rows])


def trace_line(u):
    return layers_line(u.pair, u.layers)


def parse_trace(pair, data):
    """Validate a serialized trace (list of non-empty letter layers)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InvalidTrace(f"unparseable trace: {exc.msg}") from None
        except RecursionError:
            raise InvalidTrace("unparseable trace: nested too deeply") from None
    if not isinstance(data, list):
        raise InvalidTrace("serialized trace must be an array of layers")
    layers = []
    for layer in data:
        if not isinstance(layer, list) or not layer:
            raise InvalidTrace("each layer must be a non-empty array of letters")
        mask = 0
        for a in layer:
            i = pair.letter_index(a) if isinstance(a, str) else None
            if i is None:
                raise UnknownLetter(f"bad letter entry {a!r}")
            bit = 1 << i
            if mask & bit:
                raise InvalidTrace(f"letter {a!r} repeated inside one layer")
            mask |= bit
        layers.append(mask)
    return trace_from_layers(pair, layers)
