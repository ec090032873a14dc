import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from splicekit import (
    automaton_from_json,
    automaton_to_json,
    build_closure,
    decide_splicing,
    determinize,
    enumerate_words,
    equivalent,
    minimize,
    parse_regex,
    Alphabet,
    Nfa,
    syntactic_monoid,
    system_from_json,
)
from splicekit import closure as closure_module
from splicekit import monoid as monoid_module
from splicekit.automata import automaton_chunks
from splicekit.cli import _emit, main
from splicekit.closure import ClosureAutomaton, closure_dfa
from splicekit.splicing import system_chunks

from helpers import build_closure_reference, factor_site_system


A = Alphabet.from_string("a")
AB_PLUS = minimize(determinize(parse_regex("a+b+", Alphabet.from_string("ab"))))
AB_PLUS_MONOID = syntactic_monoid(AB_PLUS)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_even_words_prints_witness(capsys):
    code, out, _ = run(
        capsys, "decide", "--lang", "(aa)*", "--alphabet", "a",
        "--variant", "classic", "--bounds", "theorem",
    )
    assert code == 1
    assert out.splitlines() == ["no", "witness: " + "a" * 16]


def test_decide_yes_exit_zero(capsys):
    code, out, _ = run(
        capsys, "decide", "--lang", "a*", "--alphabet", "a",
        "--variant", "pixton", "--bounds", "theorem",
    )
    assert code == 0
    assert out.splitlines() == ["yes"]


def test_decide_custom_inconclusive(capsys):
    code, out, _ = run(
        capsys, "decide", "--lang", "(aa)*", "--alphabet", "a",
        "--variant", "classic", "--axiom-lt", "3", "--inner-lt", "2", "--outer-lt", "2",
    )
    assert code == 2
    assert out.splitlines()[0] == "inconclusive"
    assert "bounds below theorem guarantee" in out


def test_decide_stats_and_emit(tmp_path, capsys):
    system_path = tmp_path / "system.json"
    closure_path = tmp_path / "closure.json"
    code, out, _ = run(
        capsys, "decide", "--lang", "a*", "--alphabet", "a",
        "--variant", "pixton", "--bounds", "theorem", "--stats",
        "--emit-system", str(system_path), "--emit-closure", str(closure_path),
    )
    assert code == 0
    stats = json.loads(out.splitlines()[1])
    assert stats["monoid_size"] == 1
    # the counts of Decision.stats in order, then the wall time from seconds
    assert list(stats) == [
        "monoid_size", "candidate_rules", "respecting_rules", "rules_emitted",
        "closure_states", "closure_rounds", "closure_epsilon_edges", "wall_time_s",
    ]
    assert stats["wall_time_s"] >= 0
    emitted = automaton_from_json(closure_path.read_text())
    d = minimize(determinize(emitted))
    astar = minimize(determinize(parse_regex("a*", Alphabet.from_string("a"))))
    assert equivalent(d, astar)[0]
    doc = json.loads(system_path.read_text())
    assert doc["variant"] == "pixton"
    assert isinstance(doc["axioms"], dict)  # symbolic axiom automaton


def test_decide_emits_the_closure_it_compared(tmp_path, capsys):
    system_path = tmp_path / "system.json"
    closure_path = tmp_path / "closure.json"
    code, _, _ = run(
        capsys, "decide", "--lang", "a+b+", "--alphabet", "ab", "--variant", "classic",
        "--axiom-lt", "3", "--inner-lt", "3", "--outer-lt", "3",
        "--emit-system", str(system_path), "--emit-closure", str(closure_path),
    )
    assert code == 0
    system = system_from_json(system_path.read_text())
    firing = factor_site_system(system, AB_PLUS)
    fresh = build_closure_reference(firing, AB_PLUS_MONOID)
    assert closure_path.read_text() == automaton_to_json(fresh.nfa()) + "\n"
    assert closure_dfa(fresh) == closure_dfa(build_closure(system))
    # the certificate's factor-site rules, read as a tuple, give the same file
    assert closure_path.read_text() == automaton_to_json(build_closure(firing).nfa()) + "\n"


@pytest.mark.parametrize(
    "chunks, text",
    [(["{", "}"], "{}\n"), (["{}", ""], "{}\n"), (["", "a\n", "", ""], "a\n"), ([], "\n")],
)
def test_emit_ends_the_file_with_one_newline(tmp_path, chunks, text):
    path = tmp_path / "out"
    _emit(str(path), iter(chunks))
    assert path.read_text() == text


def test_emit_leaves_no_file_when_a_chunk_fails(tmp_path):
    def chunks():
        yield "{"
        raise MemoryError

    path = tmp_path / "out"
    with pytest.raises(MemoryError):
        _emit(str(path), chunks())
    assert not path.exists()


def test_emit_holds_less_than_half_of_each_file(tmp_path):
    """aaa+ classic theorem writes a 15.2 MB system and an 8.0 MB closure
    file; the writers make their chunks per class-trie node and per
    epsilon row, and _emit writes each as it comes, so neither file is held."""
    decision = decide_splicing(minimize(determinize(parse_regex("aaa+", A))), "classic")
    writers = {
        "system": system_chunks(decision.system),
        "closure": automaton_chunks(decision.closure.nfa()),
    }
    for name, chunks in writers.items():
        path = tmp_path / name
        tracemalloc.start()
        try:
            _emit(str(path), chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 5_000_000 and peak < size / 2, (name, size, peak)


@pytest.mark.parametrize(
    "regex, alphabet, bounds",
    [
        ("a+b+", "ab", ("--axiom-lt", "4", "--inner-lt", "3", "--outer-lt", "4")),
        ("(ab)*", "ab", ("--axiom-lt", "5", "--inner-lt", "3", "--outer-lt", "4")),
        ("a*", "a", ("--bounds", "theorem")),
    ],
    ids=["a+b+ (4,3,4)", "(ab)* (5,3,4)", "a* theorem"],
)
def test_emitted_closure_is_rederived_from_the_certificate(tmp_path, capsys, regex, alphabet,
                                                           bounds):
    """A classic decide saturates the factor-site rules of its certificate
    as a product; read back from the certificate as a tuple of rules, they
    build the same automaton, so the closure file is written again byte for
    byte."""
    system_path = tmp_path / "system.json"
    closure_path = tmp_path / "closure.json"
    code, _, _ = run(
        capsys, *_decide(regex, alphabet, "classic", *bounds),
        "--emit-system", str(system_path), "--emit-closure", str(closure_path),
    )
    assert code == 0
    dfa = minimize(determinize(parse_regex(regex, Alphabet.from_string(alphabet))))
    firing = factor_site_system(system_from_json(system_path.read_text()), dfa)
    assert closure_path.read_text() == automaton_to_json(build_closure(firing).nfa()) + "\n"


def test_decide_path_stays_on_the_masks(tmp_path, capsys, monkeypatch):
    """decide with --stats and --emit-closure builds no edge set of any
    automaton and no per-edge provenance tuple."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("the decide path left the masks")

    monkeypatch.setattr(Nfa, "labeled_edges", property(refuse))
    monkeypatch.setattr(Nfa, "epsilon_edges", property(refuse))
    monkeypatch.setattr(ClosureAutomaton, "added", property(refuse))
    monkeypatch.setattr(closure_module, "AddedEdge", refuse)
    system_path = tmp_path / "system.json"
    closure_path = tmp_path / "closure.json"
    code, out, _ = run(
        capsys, "decide", "--lang", "a+b+", "--alphabet", "ab", "--variant", "classic",
        "--axiom-lt", "3", "--inner-lt", "3", "--outer-lt", "3", "--stats",
        "--emit-system", str(system_path), "--emit-closure", str(closure_path),
    )
    assert code == 0
    monkeypatch.undo()
    system = system_from_json(system_path.read_text())
    fresh = build_closure_reference(factor_site_system(system, AB_PLUS), AB_PLUS_MONOID)
    assert json.loads(out.splitlines()[1])["closure_epsilon_edges"] == len(fresh.added)
    assert closure_path.read_text() == automaton_to_json(fresh.nfa()) + "\n"
    assert closure_dfa(fresh) == closure_dfa(build_closure(system))


def test_decide_spells_the_bridge_pool_only_to_emit_the_system(tmp_path, capsys, monkeypatch):
    """The gadgets read only the site pools and the rule count spells no
    pool, so a triplet decide spells its bridge bound only for
    --emit-system, and no bound twice: the words of a bound are spelled
    once, by ``monoid.class_pool``, and kept on the monoid."""
    asked = []
    spell = monoid_module.words_shorter_than

    def recorded(alphabet, lt):
        asked.append(lt)
        return spell(alphabet, lt)

    monkeypatch.setattr(monoid_module, "words_shorter_than", recorded)
    argv = _decide("a*b*", "ab", "pixton", "--axiom-lt", "6", "--inner-lt", "4",
                   "--outer-lt", "6", "--stats", "--emit-closure", str(tmp_path / "closure.json"))
    assert run(capsys, *argv)[0] == 0
    assert asked == [4]
    asked.clear()
    assert run(capsys, *argv, "--emit-system", str(tmp_path / "system.json"))[0] == 0
    assert sorted(asked) == [4, 6]


def test_monoid_json(capsys):
    code, out, _ = run(capsys, "monoid", "--lang", "a+b+", "--alphabet", "ab")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 5
    assert doc["representatives"][doc["identity"]] == ""
    assert set(doc["generators"]) == {"a", "b"}
    assert len(doc["table"]) == 5


def test_respect_true_and_false(capsys):
    code, out, _ = run(
        capsys, "respect", "--lang", "a+b+", "--alphabet", "ab",
        "--variant", "classic", "--rule", "a,b;,ab",
    )
    assert code == 0 and out == "true\n"
    code, out, _ = run(
        capsys, "respect", "--lang", "(aa)*", "--alphabet", "a",
        "--variant", "classic", "--rule", "aa,;aa,", "--witness",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "false"
    assert lines[1].startswith("counterexample:")


def test_splice_outputs_word(capsys):
    code, out, _ = run(
        capsys, "splice", "--variant", "classic", "--rule", "a,b;,ab",
        "--w1", "ab", "--w2", "ab",
    )
    assert code == 0
    assert out == "aab\n"


def test_splice_json_carries_positions(capsys):
    code, out, _ = run(
        capsys, "splice", "--variant", "classic", "--rule", "a,b;,ab",
        "--w1", "ab", "--w2", "ab", "--json",
    )
    doc = json.loads(out)
    assert doc["results"] == [{"word": "aab", "position": 1}]


def test_splice_json_lists_results_in_ll_order_then_position(capsys):
    # under the alphabet order b < a, "ba" comes before "ab" and "aa"; a word
    # spliced at two positions is listed once per position, lowest first
    code, out, _ = run(
        capsys, "splice", "--variant", "classic", "--rule", ",;,",
        "--w1", "ab", "--w2", "ba", "--alphabet", "ba", "--json",
    )
    assert code == 0
    results = [(r["word"], r["position"]) for r in json.loads(out)["results"]]
    assert results == [
        ("", 0), ("a", 0), ("a", 1), ("ba", 0), ("ab", 2), ("aa", 1),
        ("aba", 1), ("aba", 2), ("abba", 2),
    ]
    _, text, _ = run(
        capsys, "splice", "--variant", "classic", "--rule", ",;,",
        "--w1", "ab", "--w2", "ba", "--alphabet", "ba",
    )
    assert text.splitlines() == list(dict.fromkeys(word for word, _ in results))


def test_closure_and_oracle_on_system_file(tmp_path, capsys):
    system_path = tmp_path / "example1.json"
    system_path.write_text(
        '{"variant":"classic","alphabet":["a","b"],"axioms":["ab"],'
        '"rules":[["a","b","","ab"],["ab","","a","b"]]}'
    )
    emit = tmp_path / "closure.json"
    dot = tmp_path / "closure.dot"
    code, out, _ = run(
        capsys, "closure", "--system", str(system_path),
        "--emit-closure", str(emit), "--dot", str(dot), "--trace",
    )
    assert code == 0
    assert out.splitlines() == [
        "round 1: +2 edges",
        "  eps 0 -> 3 (site 'ab', in)",
        "  eps 8 -> 2 (site 'ab', out)",
        "round 2: +6 edges",
        "  eps 3 -> 3 (site 'ab', in)",
        "  eps 4 -> 3 (site 'ab', in)",
        "  eps 6 -> 3 (site 'ab', in)",
        "  eps 8 -> 5 (site 'ab', out)",
        "  eps 8 -> 7 (site 'ab', out)",
        "  eps 8 -> 8 (site 'ab', out)",
        "states: 9",
        "rounds: 2",
        "epsilon-added: 8",
    ]
    nfa = automaton_from_json(emit.read_text())
    apbp = minimize(determinize(parse_regex("a+b+", Alphabet.from_string("ab"))))
    assert equivalent(minimize(determinize(nfa)), apbp)[0]
    assert dot.read_text().startswith("digraph")

    code, out, _ = run(
        capsys, "oracle", "--system", str(system_path), "--report-len", "4",
        "--cap-len", "8",
    )
    assert code == 0
    assert out.splitlines() == ["ab", "aab", "abb", "aaab", "aabb", "abbb"]


def test_pump_command(capsys):
    code, out, _ = run(
        capsys, "pump", "--lang", "(aa)*", "--alphabet", "a",
        "--word", "aaaa", "--j", "10",
    )
    assert code == 0
    assert out.splitlines() == [
        "alpha: ",
        "beta: aa",
        "gamma: aa",
        "normalized: " + "a" * 22,
    ]


def test_usage_errors_exit_64(capsys):
    code, _, err = run(capsys, "decide", "--lang", "a*", "--variant", "classic")
    assert code == 64 and err
    code, _, err = run(capsys, "nonsense")
    assert code == 64


def test_tool_errors_exit_65(capsys):
    code, _, err = run(
        capsys, "monoid", "--lang", "a*(", "--alphabet", "a"
    )
    assert code == 65 and "position" in err
    code, _, err = run(
        capsys, "respect", "--lang", "a*", "--alphabet", "a",
        "--variant", "classic", "--rule", "x,;,",
    )
    assert code == 65
    nested = "(" * 300 + "a" + ")" * 300
    code, out, err = run(capsys, "monoid", "--lang", nested, "--alphabet", "a")
    assert code == 65 and out == ""
    assert err.startswith("splicekit: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("regex,rule", [("(aa)*", "aa,;aa,"), ("a*", "a,;a,")])
def test_respect_witness_rejects_a_negative_bound_before_any_output(capsys, regex, rule):
    # the first rule breaks (aa)*, the second respects a*: the verdict must not matter
    code, out, err = run(
        capsys, "respect", "--lang", regex, "--alphabet", "a",
        "--variant", "classic", "--rule", rule, "--witness", "--bound", "-1",
    )
    assert (code, out, err) == (65, "", "splicekit: word_bound must be non-negative\n")


@pytest.mark.parametrize("flags", [("--bounds", "custom", "--axiom-lt", "3"), ("--axiom-lt", "3")])
def test_custom_bounds_need_every_length_flag(capsys, flags):
    code, out, err = run(
        capsys, "decide", "--lang", "(aa)*", "--alphabet", "a", "--variant", "classic", *flags,
    )
    assert code == 64 and out == ""
    assert err == "splicekit: custom bounds need --inner-lt, --outer-lt (or use --bounds theorem)\n"


@pytest.mark.parametrize("flags", [("--axiom-lt", "3"), ("--inner-lt", "2", "--outer-lt", "2")])
def test_theorem_bounds_reject_length_flags(capsys, flags):
    code, out, err = run(
        capsys, "decide", "--lang", "(aa)*", "--alphabet", "a", "--variant", "classic",
        "--bounds", "theorem", *flags,
    )
    assert code == 64 and out == ""
    given = ", ".join(flag for flag in flags if flag.startswith("--"))
    assert err == f"splicekit: --bounds theorem takes no length flags, got {given}\n"
    assert "use --bounds theorem" not in err


@pytest.mark.parametrize(
    "command,text,field",
    [
        ("decide", '{"alphabet":["a"],"states":1,"initial":[0],"edges":[]}', "accepting"),
        ("closure", '{"variant":"pixton","alphabet":["a"],"axioms":[],"rules":[[1,2,3]]}', "rules"),
        ("closure", '{"variant":"pixton","alphabet":["a"],"axioms":[]}', "rules"),
        ("closure", '[{"variant":"pixton"}]', "JSON object"),
        ("closure", '{"variant":"foo","alphabet":["a"],"axioms":[],"rules":[["a","a","a"]]}',
         "field 'variant': unknown variant 'foo'"),
        ("closure", '{"variant":"foo","alphabet":["a"],"axioms":[],"rules":[["a","a","a","a"]]}',
         "field 'variant': unknown variant 'foo'"),
        ("closure", '{"variant":"pixton","alphabet":"ab","axioms":[],"rules":[]}',
         "field 'alphabet': expected an array, got \"ab\""),
    ],
)
def test_malformed_json_files_exit_65(tmp_path, capsys, command, text, field):
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "decide":
        argv = ("decide", "--lang", f"@{path}", "--variant", "classic")
    else:
        argv = ("closure", "--system", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 65 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("splicekit: ") and field in err


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command",
    ["decide --lang @{path} --variant classic", "closure --system {path}",
     "oracle --system {path} --report-len 2"],
    ids=["decide", "closure", "oracle"],
)
@pytest.mark.parametrize(
    "text",
    [DEEP, '{"variant":"classic","alphabet":["a"],"axioms":' + DEEP + ',"rules":[]}'],
    ids=["nested arrays", "nested axioms"],
)
def test_json_nested_past_the_recursion_limit_exits_65(tmp_path, capsys, command, text):
    """The decoder gives up on such a file with a RecursionError, which the
    readers report as a malformed file."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *command.format(path=path).split())
    assert (code, out, err) == (65, "", "splicekit: JSON document nested too deeply\n")


AUTOMATON_A = {
    "alphabet": ["a"], "states": 2, "initial": [0], "accepting": [1],
    "edges": [[0, "a", 1]], "epsilon": [],
}


@pytest.mark.parametrize(
    "change,message",
    [
        ({"states": -1}, "state_count must be non-negative"),
        ({"edges": [[0, "a", 2]]}, "edge state id out of range"),
        ({"edges": [[0, "a", -1]]}, "edge state id out of range"),
        ({"edges": [[0, "b", 1]]}, "symbol 'b' not in alphabet"),
        ({"epsilon": [[0, 5]]}, "epsilon edge state id out of range"),
        ({"initial": [3]}, "state id out of range"),
        # named: 1 + 1 initial + 1 accepting + 2 * 1 edge; nothing is allocated
        ({"states": 10**9},
         "field 'states': 1000000000 states declared, but the file names at most 5 "
         "and may leave at most 65536 unnamed"),
        # JSON numbers with a fraction, strings and bools are not coerced
        ({"states": 2.9}, "field 'states': expected an integer, got 2.9"),
        ({"states": True}, "field 'states': expected an integer, got true"),
        ({"initial": [0.7]}, "field 'initial': expected an integer, got 0.7"),
        ({"initial": ["0"]}, 'field \'initial\': expected an integer, got "0"'),
        ({"initial": "0"}, 'field \'initial\': expected an array, got "0"'),
        ({"accepting": [True]}, "field 'accepting': expected an integer, got true"),
        ({"edges": [[0, "a", 1.0]]}, "field 'edges': expected an integer, got 1.0"),
        ({"epsilon": [["0", 1]]}, 'field \'epsilon\': expected an integer, got "0"'),
        ({"alphabet": "a"}, 'field \'alphabet\': expected an array, got "a"'),
    ],
    ids=["negative states", "edge target 2 of 2 states", "edge target -1",
         "unknown edge symbol", "epsilon target 5", "initial 3", "states 10^9",
         "states 2.9", "states true", "initial 0.7", "initial string 0",
         "initial not an array", "accepting true", "edge target 1.0",
         "epsilon source string 0", "alphabet string"],
)
def test_malformed_automaton_files_exit_65_with_one_line(tmp_path, capsys, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**AUTOMATON_A, **change}))
    code, out, err = run(capsys, "decide", "--lang", f"@{path}", "--variant", "classic")
    assert (code, out, err) == (65, "", f"splicekit: {message}\n")


def _system_file(path, alphabet, axioms, rules):
    path.write_text(json.dumps(
        {"variant": "pixton", "alphabet": alphabet, "axioms": axioms, "rules": rules}
    ))
    return str(path)


def test_axioms_over_a_sub_alphabet(tmp_path, capsys):
    """Axioms over {a} in a system over {a, b}: the axioms have no b edges,
    and the closure accepts what the oracle finds."""
    system = _system_file(tmp_path / "sub.json", ["a", "b"], AUTOMATON_A, [["a", "a", "b"]])
    emit = tmp_path / "closure.json"
    code, _, err = run(capsys, "closure", "--system", system, "--emit-closure", str(emit))
    assert (code, err) == (0, "")
    closure = minimize(determinize(automaton_from_json(emit.read_text())))
    code, out, _ = run(capsys, "oracle", "--system", system, "--report-len", "4")
    assert code == 0
    assert out.splitlines() == enumerate_words(closure, 4) == ["a", "b"]


def test_axioms_over_a_super_alphabet_are_rejected(tmp_path, capsys):
    axioms = {**AUTOMATON_A, "alphabet": ["a", "b"], "edges": [[0, "b", 1]]}
    system = _system_file(tmp_path / "super.json", ["a"], axioms, [])
    for argv in (("closure",), ("oracle", "--report-len", "4")):
        code, out, err = run(capsys, *argv, "--system", system)
        assert (code, out, err) == (65, "", "splicekit: symbol 'b' not in alphabet\n")


def test_axiom_alphabet_order_does_not_change_the_closure(tmp_path, capsys):
    """The axiom automaton's rows are matched to the system's alphabet by
    symbol: listing its alphabet as ["b","a"] writes the same closure bytes
    as ["a","b"]."""
    outputs = []
    for order in (["a", "b"], ["b", "a"]):
        axioms = {
            "alphabet": order, "states": 3, "initial": [0], "accepting": [2],
            "edges": [[0, "a", 1], [1, "b", 2]], "epsilon": [],
        }
        name = "".join(order)
        system = _system_file(tmp_path / f"{name}.json", ["a", "b"], axioms, [["a", "b", ""]])
        emit = tmp_path / f"{name}.closure.json"
        code, out, _ = run(capsys, "closure", "--system", system, "--emit-closure", str(emit))
        assert code == 0
        outputs.append((out, emit.read_text()))
    assert outputs[0] == outputs[1]


def test_candidate_guard_maps_to_tool_error(capsys):
    code, _, err = run(
        capsys, "decide", "--lang", "a+b+", "--alphabet", "ab",
        "--variant", "classic", "--bounds", "theorem",
    )
    assert code == 65
    assert "exceeding the limit" in err


def test_output_is_byte_identical_across_runs(capsys):
    args = ("monoid", "--lang", "a+b+", "--alphabet", "ab")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = (
        "decide", "--lang", "(aa)*", "--alphabet", "a",
        "--variant", "pixton", "--bounds", "theorem",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_lang_from_automaton_file(tmp_path, capsys):
    path = tmp_path / "lang.json"
    ab = Alphabet.from_string("ab")
    from splicekit import automaton_to_json

    path.write_text(automaton_to_json(parse_regex("a+b+", ab)))
    code, out, _ = run(capsys, "monoid", "--lang", f"@{path}")
    assert code == 0
    assert json.loads(out)["size"] == 5


def test_decide_runs_without_numpy_or_scipy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "import splicekit.cli\n"
        "sys.exit(splicekit.cli.main(['decide', '--lang', 'a+b+', '--alphabet', 'ab',"
        " '--variant', 'classic', '--axiom-lt', '3', '--inner-lt', '3', '--outer-lt', '3']))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "yes\n"


def test_empty_alphabet_counts_one_candidate_rule(capsys):
    # Sigma^{<b} over the empty alphabet is {epsilon}: one word tuple
    code, out, _ = run(
        capsys, "decide", "--lang", "()", "--alphabet", "", "--variant", "classic", "--stats",
    )
    assert code == 0
    assert json.loads(out.splitlines()[1])["candidate_rules"] == 1


def test_candidate_guard_counts_unary_word_tuples(capsys):
    # (a^10)* classic theorem: 200 * 20 * 20 * 200 word tuples, over the limit
    code, _, err = run(
        capsys, "decide", "--lang", "(aaaaaaaaaa)*", "--alphabet", "a",
        "--variant", "classic", "--bounds", "theorem",
    )
    assert code == 65
    assert "16000000 elements" in err


def test_pool_guard_counts_the_characters_the_pools_would_spell(capsys):
    # 1 * 1 * 100,000 word tuples pass the candidate guard, but the bridge
    # pool would spell 0 + 1 + ... + 99,999 characters
    code, out, err = run(
        capsys, "decide", "--lang", "a*", "--alphabet", "a", "--variant", "pixton",
        "--axiom-lt", "2", "--inner-lt", "1", "--outer-lt", "100000",
    )
    assert (code, out) == (65, "")
    assert err == (
        "splicekit: rule pools would spell 4999950000 characters, "
        "exceeding the limit of 10000000\n"
    )


def test_axiom_guard_counts_the_states_of_the_axiom_product(capsys):
    # a* has 1 state, so its axioms shorter than 1,000,000 are a product of
    # 1 * 1,000,001 states, refused before anything is built
    code, out, err = run(
        capsys, *_decide("a*", "a", "classic", "--axiom-lt", "1000000", "--inner-lt", "1",
                         "--outer-lt", "1", "--stats"),
    )
    assert (code, out) == (65, "")
    assert err == (
        "splicekit: axiom product would have 1000001 states, exceeding the limit of 65536\n"
    )


def test_pump_refuses_a_pumped_factor_over_the_candidate_limit(capsys):
    # alpha = "", beta = "aa", gamma = "aa": 2 * 10^12 + 2 characters
    code, out, err = run(
        capsys, "pump", "--lang", "(aa)*", "--alphabet", "a", "--word", "aaaa",
        "--j", "1000000000000",
    )
    assert (code, out) == (65, "")
    assert err == (
        "splicekit: pumped factor alpha beta^j gamma would have 2000000000002 characters, "
        "exceeding the limit of 10000000\n"
    )


@pytest.mark.parametrize("value", ["abc", "0"])
def test_candidate_limit_env_must_be_positive_integer(monkeypatch, capsys, value):
    monkeypatch.setenv("SPLICEKIT_CANDIDATE_LIMIT", value)
    code, out, err = run(
        capsys, "decide", "--lang", "(aa)*", "--alphabet", "a",
        "--variant", "classic", "--bounds", "theorem",
    )
    assert code == 65
    assert out == ""
    assert err == (
        "splicekit: SPLICEKIT_CANDIDATE_LIMIT must be a positive integer, "
        f"got {value!r}\n"
    )


def _decide(lang, alphabet, variant, *flags):
    return ("decide", "--lang", lang, "--alphabet", alphabet, "--variant", variant, *flags)


_STATS_EMIT = (
    "--stats", "--emit-system", "{tmp}/system.json", "--emit-closure", "{tmp}/closure.json"
)
_SPLICE_BA = ("--w1", "ab", "--w2", "ba", "--alphabet", "ba")

# Each case is a sequence of CLI calls; {tmp} stands for a fresh directory.
# The digest covers each call's stdout (with "wall_time_s":... stripped) and
# exit code, then the name and bytes of every file the calls wrote.
_PINNED_CALLS = {
    "decide a+b+ classic custom(3,3,3)": [
        _decide("a+b+", "ab", "classic", "--axiom-lt", "3", "--inner-lt", "3", "--outer-lt", "3",
                *_STATS_EMIT)],
    "decide a+b+ classic custom(4,3,4)": [
        _decide("a+b+", "ab", "classic", "--axiom-lt", "4", "--inner-lt", "3", "--outer-lt", "4",
                *_STATS_EMIT)],
    "decide a*b* pixton custom(6,4,6)": [
        _decide("a*b*", "ab", "pixton", "--axiom-lt", "6", "--inner-lt", "4", "--outer-lt", "6",
                *_STATS_EMIT)],
    "decide a* classic theorem": [_decide("a*", "a", "classic", "--bounds", "theorem", *_STATS_EMIT)],
    **{
        f"decide (a^{k})* {variant} theorem": [_decide(f"({'a' * k})*", "a", variant, "--stats")]
        for k in range(2, 6)
        for variant in ("classic", "pixton")
    },
    "decide a+ classic theorem": [_decide("a+", "a", "classic", "--stats")],
    "decide aa+ classic theorem": [_decide("aa+", "a", "classic", "--stats")],
    "decide a+b+ classic custom(3,3,3) --prune": [
        _decide("a+b+", "ab", "classic", "--axiom-lt", "3", "--inner-lt", "3", "--outer-lt", "3",
                "--prune", *_STATS_EMIT)],
    "monoid a+b+ under ba": [("monoid", "--lang", "a+b+", "--alphabet", "ba")],
    "respect --witness classic": [
        ("respect", "--lang", "(aa)*", "--alphabet", "a", "--variant", "classic",
         "--rule", "aa,;a,", "--witness")],
    "respect --witness pixton": [
        ("respect", "--lang", "a*ba*", "--alphabet", "ab", "--variant", "pixton",
         "--rule", "b,b;bb", "--witness")],
    "splice classic": [("splice", "--variant", "classic", "--rule", ",;,", *_SPLICE_BA)],
    "splice classic --json": [
        ("splice", "--variant", "classic", "--rule", ",;,", *_SPLICE_BA, "--json")],
    "splice pixton": [("splice", "--variant", "pixton", "--rule", ",;a", *_SPLICE_BA)],
    "splice pixton --json": [
        ("splice", "--variant", "pixton", "--rule", ",;a", *_SPLICE_BA, "--json")],
    "pump --json": [
        ("pump", "--lang", "(aa)*", "--alphabet", "a", "--word", "aaaaa", "--j", "12", "--json")],
    "closure --trace on an emitted system": [
        _decide("a+b+", "ab", "classic", "--axiom-lt", "3", "--inner-lt", "2", "--outer-lt", "3",
                "--prune", "--emit-system", "{tmp}/system.json"),
        ("closure", "--system", "{tmp}/system.json", "--trace",
         "--emit-closure", "{tmp}/closure.json", "--dot", "{tmp}/closure.dot"),
    ],
}

_PINNED_DIGESTS = {
    "decide a+b+ classic custom(3,3,3)": "873b1340b4b170875c3753c635545bcb9b95df71d8abd0777287a20558526472",
    "decide a+b+ classic custom(4,3,4)": "7669d7ae1ee71e9332954c726285849982ac2f5ce7679d913cc64ecfb7ec7381",
    "decide a*b* pixton custom(6,4,6)": "a3f46eb209d7738eff834a0f107c59dc4e05e2932f03331dca77728e7f21e2e1",
    "decide a* classic theorem": "7167d010e3d9859301a59481168a5213bca647c7171931f1a777fbdd9b49c035",
    "decide (a^2)* classic theorem": "8815754c7871cfd76947710d51f91e5238d17115681773a5a8bfe57867911179",
    "decide (a^2)* pixton theorem": "911883504d115e2756475f0d4173769880c17d5b3ccdba9f83e763559fa81633",
    "decide (a^3)* classic theorem": "aa4efdb9b2f444fa872877476d97bb0161dad8b244408fcad16b3ce76a88f3ea",
    "decide (a^3)* pixton theorem": "75552932895978056de540296e414c8f59c799da1b52f689cee7f69c0fe9d9ff",
    "decide (a^4)* classic theorem": "0305334d6b4950db03c3ef98f6c62c3a046a6d4091969d58ce93c7b1ba5f4ced",
    "decide (a^4)* pixton theorem": "af812f72d7f1dce1d0125bc199cf860ec74cdec6204cd9aa9f95b6062b91b1d1",
    "decide (a^5)* classic theorem": "b5e079c843d7b4a1ae8b93b1062cbcefbefda5640d3ba3b5e8651b9b41ab4363",
    "decide (a^5)* pixton theorem": "6740667fa883f288149ca2128e9a6b50600ca861674704b6e4d16dd9d1b733e3",
    "decide a+ classic theorem": "a8e0af01abf20610818d20f79433e61ea8c9a258696ca00cc67f52961bdad670",
    "decide aa+ classic theorem": "d911ebbc0dc262abc1e2eb32e2842e61a1345acd72616031c3c87edcb7360a60",
    "decide a+b+ classic custom(3,3,3) --prune": "46482e6772abe337af7e0a9b4bad85148fbb211eec114e83dc83825bbf5aebf5",
    "monoid a+b+ under ba": "20d872cde1cdeec521738c70aa5f59116b145f8e12261f260bb85becf9b297f5",
    "respect --witness classic": "12002854155f63590343bbe6501fcf16294ff59e64b31ffbdc83d921bb457a1b",
    "respect --witness pixton": "68164f7aea91ff317c651c16174f1e85d5c1120482f0cc451263342f26765e25",
    "splice classic": "4ecd4681bbaccba118510c5d17675479563eba7e70b470fd30fef852549bdfca",
    "splice classic --json": "ea469381ef6108fc3022e3a2451ea864f05988fd5002a54842b2b17eac4b14a6",
    "splice pixton": "47b34c04db0344d48165c3d894f8723e587d2d95575498163612923353a8eaf5",
    "splice pixton --json": "ba457679f748fdf5b55d0c96d27148ab85a708151213046d8de3bebc8c87d529",
    "pump --json": "3a430f6e2771e06300fe0ab693c251347f5ffd553abfbc8129122629ef4f03d6",
    "closure --trace on an emitted system": "74e93cf64518d1d328a52e2e61f14475c64d062a7ef3e968b9b78b3f47c557f6",
}


@pytest.mark.parametrize("case", list(_PINNED_CALLS))
def test_cli_bytes_are_pinned(tmp_path, capsys, case):
    digest = hashlib.sha256()
    for argv in _PINNED_CALLS[case]:
        code, out, _ = run(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
        digest.update(re.sub(r',"wall_time_s":[0-9.e+-]+', "", out).encode())
        digest.update(f"exit {code}\n".encode())
    for path in sorted(tmp_path.iterdir()):
        digest.update(f"{path.name}\n".encode() + path.read_bytes())
    assert digest.hexdigest() == _PINNED_DIGESTS[case]
