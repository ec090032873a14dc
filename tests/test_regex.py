import random
import re

import pytest

from splicekit import Alphabet, RegexSyntaxError, determinize, minimize, parse_regex
from splicekit.automata import enumerate_words

from helpers import all_words_upto, random_regex

AB = Alphabet.from_string("ab")
ABC = Alphabet.from_string("abc")


def test_running_example_language():
    nfa = parse_regex("a+b+", AB)
    assert nfa.accepts("ab") and nfa.accepts("aab") and nfa.accepts("aabb")
    assert not nfa.accepts("") and not nfa.accepts("ba") and not nfa.accepts("a")


def test_empty_group_is_epsilon():
    nfa = parse_regex("()", AB)
    assert nfa.accepts("")
    assert not nfa.accepts("a")


def test_marker_language():
    d = minimize(determinize(parse_regex("b(aa)*", AB)))
    assert enumerate_words(d, 5) == ["b", "baa", "baaaa"]


def test_alternation_and_nesting():
    nfa = parse_regex("(a|bb)*a", AB)
    assert nfa.accepts("a") and nfa.accepts("bba") and nfa.accepts("abba")
    assert not nfa.accepts("ba")


def test_syntax_errors_carry_positions():
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex("a*)", AB)
    assert err.value.position == 2
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex("*a", AB)
    assert err.value.position == 0
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex("(ab", AB)
    assert err.value.position == 0
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex("axb", AB)
    assert err.value.position == 1


def test_deep_nesting_is_a_syntax_error():
    assert parse_regex("(" * 100 + "a" + ")" * 100, AB).accepts("a")
    with pytest.raises(RegexSyntaxError, match="nested too deeply"):
        parse_regex("(" * 300 + "a" + ")" * 300, AB)


def test_membership_agrees_with_python_re():
    # random regexes, depth <= 4, alphabet <= 3 symbols: the DFA and
    # re.fullmatch must agree on every word up to length 8
    rng = random.Random(20240817)
    words = all_words_upto(ABC, 8)
    for _ in range(30):
        ours, theirs = random_regex(rng, "abc", 4)
        dfa = minimize(determinize(parse_regex(ours, ABC)))
        matcher = re.compile(theirs)
        for w in words:
            assert dfa.accepts(w) == bool(matcher.fullmatch(w)), (ours, w)
