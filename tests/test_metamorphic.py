"""Metamorphic relations over drawn languages: reversal and renaming map the
decision of L onto that of its mirror and of its image, with no oracle.

Custom bounds keep the components' bounds under both maps: the mirror of a
classic rule swaps u1 with v2 and v1 with u2, of a triplet u1 with u2, and a
renaming keeps every length.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from splicekit import custom_bounds, decide_splicing, difference_witness
from splicekit.closure import closure_dfa

from helpers import rename, renamed_dfa, reverse, reversed_dfa
from test_decide import small_dfas

SWAP = {"a": "b", "b": "a"}
BOUNDS = st.sampled_from([(3, 2, 3), (3, 2, 2), (4, 3, 4)])
VARIANTS = st.sampled_from(["classic", "pixton"])


@settings(max_examples=40, deadline=None)
@given(dfa=small_dfas(), variant=VARIANTS, lts=BOUNDS)
def test_reversal_maps_the_decision_of_a_drawn_language_onto_its_mirror(dfa, variant, lts):
    bounds = custom_bounds(variant, *lts)
    there = decide_splicing(dfa, variant, bounds)
    back = decide_splicing(reversed_dfa(dfa), variant, bounds)
    assert there.verdict == back.verdict
    assert there.stats["respecting_rules"] == back.stats["respecting_rules"]
    assert {reverse(rule) for rule in there.system.rules} == set(back.system.rules)


@settings(max_examples=40, deadline=None)
@given(dfa=small_dfas(), variant=VARIANTS, lts=BOUNDS)
def test_renaming_maps_the_decision_of_a_drawn_language_onto_its_image(dfa, variant, lts):
    # the renamed alphabet order maps ll-order onto ll-order, so the rule
    # list and the ll-least word of L that the closure misses (what makes a
    # custom-bound decide inconclusive) map letter for letter
    table = str.maketrans(SWAP)
    image = renamed_dfa(dfa, SWAP)
    bounds = custom_bounds(variant, *lts)
    there = decide_splicing(dfa, variant, bounds)
    back = decide_splicing(image, variant, bounds)
    assert there.verdict == back.verdict
    assert [rename(rule, SWAP) for rule in there.system.rules] == list(back.system.rules)
    missed = difference_witness(dfa, closure_dfa(there.closure))
    assert difference_witness(image, closure_dfa(back.closure)) == (
        None if missed is None else missed.translate(table)
    )
