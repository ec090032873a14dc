import json
import os
import subprocess
import sys

import pytest

from splicekit import (
    automaton_from_json,
    automaton_to_json,
    build_closure,
    determinize,
    equivalent,
    minimize,
    parse_regex,
    Alphabet,
    system_from_json,
)
from splicekit import closure as closure_module
from splicekit.cli import main
from splicekit.closure import ClosureAutomaton


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
    fresh = build_closure(system_from_json(system_path.read_text()))
    assert closure_path.read_text() == automaton_to_json(fresh.nfa()) + "\n"


def test_decide_path_stays_on_the_masks(tmp_path, capsys, monkeypatch):
    """decide with --stats and --emit-closure builds neither the saturated
    edge set nor the per-edge provenance tuple."""

    def refuse(*_args):
        raise AssertionError("the decide path left the closure's masks")

    monkeypatch.setattr(ClosureAutomaton, "nfa", refuse)
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
    fresh = build_closure(system_from_json(system_path.read_text()))
    assert json.loads(out.splitlines()[1])["closure_epsilon_edges"] == len(fresh.added)
    assert closure_path.read_text() == automaton_to_json(fresh.nfa()) + "\n"


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
        "  eps 7 -> 2 (site 'ab', out)",
        "round 2: +5 edges",
        "  eps 3 -> 3 (site 'ab', in)",
        "  eps 4 -> 3 (site 'ab', in)",
        "  eps 7 -> 6 (site 'ab', out)",
        "  eps 7 -> 7 (site 'ab', out)",
        "  eps 7 -> 8 (site 'ab', out)",
        "states: 10",
        "rounds: 2",
        "epsilon-added: 7",
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
