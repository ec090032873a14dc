"""Command-line interface.

One executable, seven subcommands: monoid, respect, splice, closure, oracle,
pump, decide.  Languages are given as an inline regex plus an explicit
--alphabet, or as @path to an automaton JSON file.  Exit codes: decide uses
0/1/2 for yes/no/inconclusive; usage errors exit 64; tool errors exit 65.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .automata import (
    Alphabet,
    Dfa,
    automaton_from_json,
    automaton_to_dot,
    determinize,
    length_lex_key,
    minimize,
)
from .closure import build_closure
from .decide import (
    CUSTOM,
    THEOREM,
    custom_bounds,
    decide_splicing,
)
from .errors import SpliceKitError
from .monoid import pump_normalize, pumping_factorization, syntactic_monoid
from .regex import parse_regex
from .respect import RespectContext, respect_counterexample
from .splicing import (
    ClassicRule,
    bounded_closure,
    parse_rule,
    splice_classic,
    splice_pixton,
    system_from_json,
    system_to_json,
)

_USAGE_EXIT = 64
_ERROR_EXIT = 65

_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_lang(lang: str, alphabet: str | None) -> Dfa:
    if lang.startswith("@"):
        with open(lang[1:], encoding="utf-8") as handle:
            nfa = automaton_from_json(handle.read())
        if alphabet is not None and tuple(alphabet) != nfa.alphabet.symbols:
            raise SpliceKitError("--alphabet disagrees with the automaton file")
        return minimize(determinize(nfa))
    if alphabet is None:
        raise _UsageError("--alphabet is required with an inline regex")
    ab = Alphabet.from_string(alphabet)
    return minimize(determinize(parse_regex(lang, ab)))


def _emit(path: str, payload: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)  # not payload + "\n": that copies the payload
        if not payload.endswith("\n"):
            handle.write("\n")


def _print_json(doc) -> None:
    print(json.dumps(doc, separators=(",", ":")))


def _cmd_monoid(args) -> int:
    lang = _resolve_lang(args.lang, args.alphabet)
    monoid = syntactic_monoid(lang)
    _print_json(
        {
            "size": monoid.size,
            "identity": monoid.identity,
            "table": [list(row) for row in monoid.table],
            "generators": {
                sym: monoid.generators[i]
                for i, sym in enumerate(monoid.alphabet.symbols)
            },
            "representatives": list(monoid.representatives),
            "accepting": sorted(monoid.accepting),
        }
    )
    return 0


def _cmd_respect(args) -> int:
    if args.witness and args.bound < 0:
        raise ValueError("word_bound must be non-negative")
    lang = _resolve_lang(args.lang, args.alphabet)
    rule = parse_rule(args.rule, args.variant, lang.alphabet)
    ctx = RespectContext(syntactic_monoid(lang))
    verdict = ctx.respects(rule)
    print("true" if verdict else "false")
    if not verdict and args.witness:
        found = respect_counterexample(lang, rule, args.bound)
        if found is None:
            print(f"no counterexample among language words of length <= {args.bound}")
        else:
            w1, w2, z = found
            print(f"counterexample: ({w1!r}, {w2!r}) -> {z!r}")
    return 0


def _cmd_splice(args) -> int:
    symbols = sorted(set(args.w1 + args.w2 + args.rule.replace(",", "").replace(";", "")))
    alphabet = Alphabet.from_string(args.alphabet) if args.alphabet else Alphabet(tuple(symbols))
    rule = parse_rule(args.rule, args.variant, alphabet)
    alphabet.check_word(args.w1)
    alphabet.check_word(args.w2)
    key = length_lex_key(alphabet)
    if isinstance(rule, ClassicRule):
        # a word with several splicing positions is listed once per position
        results = sorted(splice_classic(args.w1, args.w2, rule), key=lambda r: (key(r[0]), r[1]))
        words = list(dict.fromkeys(z for z, _ in results))
        docs = [{"word": z, "position": p} for z, p in results]
    else:
        words = sorted(splice_pixton(args.w1, args.w2, rule), key=key)
        docs = [{"word": z} for z in words]
    if args.json:
        _print_json({"results": docs})
        return 0
    for word in words:
        print(word)
    return 0


def _cmd_closure(args) -> int:
    with open(args.system, encoding="utf-8") as handle:
        system = system_from_json(handle.read())
    closure = build_closure(system)
    if args.trace:
        by_round: dict[int, list] = {}
        for edge in closure.added:
            by_round.setdefault(edge.round, []).append(edge)
        for rnd in sorted(by_round):
            print(f"round {rnd}: +{len(by_round[rnd])} edges")
            for e in by_round[rnd]:
                print(f"  eps {e.src} -> {e.dst} (site {e.site!r}, {e.side})")
    print(f"states: {closure.base.state_count}")
    print(f"rounds: {closure.rounds}")
    print(f"epsilon-added: {closure.added_count}")
    if args.emit_closure:
        _emit(args.emit_closure, closure.to_json())
    if args.dot:
        sites = sorted({e.site for e in closure.added})
        palette = {site: _PALETTE[i % len(_PALETTE)] for i, site in enumerate(sites)}
        colors = {(e.src, e.dst): palette[e.site] for e in closure.added}
        _emit(args.dot, automaton_to_dot(closure.nfa(), colors))
    return 0


def _cmd_oracle(args) -> int:
    with open(args.system, encoding="utf-8") as handle:
        system = system_from_json(handle.read())
    words = bounded_closure(system, args.report_len, args.cap_len)
    for word in sorted(words, key=length_lex_key(system.alphabet)):
        print(word)
    return 0


def _cmd_pump(args) -> int:
    lang = _resolve_lang(args.lang, args.alphabet)
    monoid = syntactic_monoid(lang)
    lang.alphabet.check_word(args.word)
    factorization = pumping_factorization(monoid, args.word)
    pumped = pump_normalize(monoid, args.word, factorization, args.j)
    if args.json:
        _print_json(
            {
                "alpha": factorization.alpha,
                "beta": factorization.beta,
                "gamma": factorization.gamma,
                "normalized": pumped,
            }
        )
        return 0
    print(f"alpha: {factorization.alpha}")
    print(f"beta: {factorization.beta}")
    print(f"gamma: {factorization.gamma}")
    print(f"normalized: {pumped}")
    return 0


def _cmd_decide(args) -> int:
    lang = _resolve_lang(args.lang, args.alphabet)
    bounds = None  # theorem bounds for the monoid decide_splicing computes
    lengths = {
        "--axiom-lt": args.axiom_lt,
        "--inner-lt": args.inner_lt,
        "--outer-lt": args.outer_lt,
    }
    given = [name for name, value in lengths.items() if value is not None]
    if args.bounds == THEOREM and given:
        raise _UsageError(f"--bounds theorem takes no length flags, got {', '.join(given)}")
    # length flags alone imply custom bounds
    if args.bounds == CUSTOM or given:
        missing = [name for name, value in lengths.items() if value is None]
        if missing:
            raise _UsageError(
                f"custom bounds need {', '.join(missing)} (or use --bounds theorem)"
            )
        bounds = custom_bounds(args.variant, args.axiom_lt, args.inner_lt, args.outer_lt)
    decision = decide_splicing(
        lang,
        args.variant,
        bounds,
        prune=args.prune,
    )
    print(decision.verdict)
    if decision.witness is not None:
        print(f"witness: {decision.witness}")
    if decision.reason is not None:
        print(f"reason: {decision.reason}")
    if args.stats:
        wall = round(sum(decision.seconds.values()), 3)
        _print_json({**decision.stats, "wall_time_s": wall})
    if args.emit_system:
        _emit(args.emit_system, system_to_json(decision.system))
    if args.emit_closure:
        _emit(args.emit_closure, decision.closure.to_json())
    return decision.exit_code


def _build_parser() -> _Parser:
    parser = _Parser(prog="splicekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"splicekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def lang_args(p):
        p.add_argument("--lang", required=True, help="inline regex or @automaton.json")
        p.add_argument("--alphabet", help="ordered alphabet characters, e.g. 'ab'")

    p = sub.add_parser("monoid", help="syntactic monoid of a regular language")
    lang_args(p)
    p.add_argument("--json", action="store_true", help="(JSON is already the output)")
    p.set_defaults(func=_cmd_monoid)

    p = sub.add_parser("respect", help="does a rule respect a language?")
    lang_args(p)
    p.add_argument("--variant", choices=["classic", "pixton"], required=True)
    p.add_argument("--rule", required=True, help="classic 'u1,v1;u2,v2' or pixton 'u1,u2;v'")
    p.add_argument("--witness", action="store_true", help="show a splice counterexample")
    p.add_argument("--bound", type=int, default=8, help="word length bound for the witness search")
    p.set_defaults(func=_cmd_respect)

    p = sub.add_parser("splice", help="single splicing step on two words")
    p.add_argument("--variant", choices=["classic", "pixton"], required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--alphabet", help="defaults to the symbols present in the inputs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_splice)

    p = sub.add_parser("closure", help="build the closure automaton of a system")
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--emit-closure", help="write the saturated automaton JSON here")
    p.add_argument("--dot", help="write a DOT rendering here")
    p.add_argument("--trace", action="store_true", help="print per-round edge additions")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("oracle", help="bounded brute-force closure (test oracle)")
    p.add_argument("--system", required=True)
    p.add_argument("--report-len", type=int, required=True)
    p.add_argument("--cap-len", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("pump", help="pumping factorization and normalization")
    lang_args(p)
    p.add_argument("--word", required=True)
    p.add_argument("--j", type=int, required=True, help="even pump count > |word| + |alpha beta gamma|")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pump)

    p = sub.add_parser("decide", help="is the language a splicing language?")
    lang_args(p)
    p.add_argument("--variant", choices=["classic", "pixton"], required=True)
    p.add_argument(
        "--bounds", choices=[THEOREM, CUSTOM], help="default: theorem, or custom with length flags"
    )
    p.add_argument("--axiom-lt", type=int, help="custom: axiom length strict bound")
    p.add_argument("--inner-lt", type=int, help="custom: inner component strict bound")
    p.add_argument("--outer-lt", type=int, help="custom: outer component strict bound")
    p.add_argument("--prune", action="store_true", help="keep only extension-minimal rules")
    p.add_argument("--emit-system", help="write the canonical system JSON here")
    p.add_argument("--emit-closure", help="write the closure automaton JSON here")
    p.add_argument("--stats", action="store_true", help="print a stats JSON line")
    p.set_defaults(func=_cmd_decide)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"splicekit: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (SpliceKitError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"splicekit: {exc}", file=sys.stderr)
        return _ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
