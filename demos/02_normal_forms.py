"""Normal forms as heaps: layers, congruence, divisibility, projections.

Every trace has one canonical spelling as a stack of layers, each layer a
set of commuting letters, each letter resting on something it does not
commute with.  Dropping the letters of any representative word one by one
rebuilds that stack, so congruent words are recognized by normalizing both.
"""

from tracegen import (
    MonoidBundle,
    divides,
    normalize_word,
    project,
    serialize_trace,
    topping,
    trace_concat,
    validate_independence,
)
from tracegen.oracle import congruence_closure

pair = validate_independence(["a", "b", "c"], [("a", "b")], symmetric_closure=True)

t = normalize_word("acab", pair)
print("word acab stacks into layers:", serialize_trace(t))
print("height (layers):", t.height, " length (letters):", t.length)
print("acba builds the same heap:", normalize_word("acba", pair) == t)
print("all spellings of acab:", sorted("".join(w) for w in congruence_closure("acab", pair)))

u = normalize_word("ac", pair)
v = normalize_word("ab", pair)
print("\nconcatenation ac . ab:", serialize_trace(trace_concat(u, v)))
print("topping to 2 layers:", serialize_trace(topping(t, 2)))

# left divisibility: u divides v when v = u . w for some w; visually, u is a
# bottom sub-heap of v
print("\na divides acab:", divides(normalize_word("a", pair), t))
print("b divides acab:", divides(normalize_word("b", pair), t))
print("(b is stuck above c, so it cannot reach the floor)")

# product monoids split along components, and projections erase the rest;
# a component's letters depend on nothing outside it, so they keep their layers
prod_pair = validate_independence(
    ["x1", "x2", "y1"],
    [("x1", "y1"), ("x2", "y1")],
    symmetric_closure=True,
)
prod = MonoidBundle(prod_pair)
w = normalize_word(["x1", "y1", "x2", "y1"], prod_pair)
print("\nproduct monoid trace:", serialize_trace(w))
for cb in prod.components:
    piece = project(w, cb.alphabet)
    print(f"  projection to {prod_pair.letters_of_mask(cb.alphabet)}:", serialize_trace(piece))
