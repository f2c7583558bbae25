"""Command-line surface: generate, profile, classify, rauzy, returns,
verify. Outputs are deterministic: repeated runs with identical
arguments produce byte-identical files and streams.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 certification
or resource limit (a length past stable_upto, no proof of a complete
prefix under the cap, a --length past the cap, or memory exhausted).
"""

import argparse
import sys
from fractions import Fraction

from wordlab import closure, complexity, rauzy, returns, verify, wordgen
from wordlab.errors import StabilizationError, UncertifiedLengthError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3


class UsageError(Exception):
    pass


def _add_source_options(parser):
    parser.add_argument("--source", help="preset name (see wordgen presets)")
    parser.add_argument("--morphism", help='inline morphism, e.g. "a=aba,b=bbb"')
    parser.add_argument("--seed", help="seed letter for --morphism (default: first rule)")
    parser.add_argument("--slope", help="rational slope p/q for a mechanical word")
    parser.add_argument(
        "--cf", help="comma-separated continued-fraction coefficients for the slope"
    )
    parser.add_argument("--intercept", help="rational intercept for a mechanical word")
    parser.add_argument(
        "--periodic", help='ultimately periodic word "u:v" (v repeated forever)'
    )


def _resolve_source(args):
    chosen = [
        opt
        for opt in ("source", "morphism", "slope", "cf", "periodic")
        if getattr(args, opt, None)
    ]
    if len(chosen) != 1:
        raise UsageError("specify exactly one of --source/--morphism/--slope/--cf/--periodic")
    if args.seed and not args.morphism:
        raise UsageError("--seed applies only to --morphism")
    if args.intercept and not (args.slope or args.cf):
        raise UsageError("--intercept applies only to --slope or --cf")
    if args.source:
        try:
            return wordgen.get_preset(args.source)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        if args.morphism:
            m = wordgen.Morphism.parse(args.morphism)
            seed = m.alphabet.code(args.seed) if args.seed else 0
            return wordgen.MorphicSource(name="custom", morphism=m, seed=seed)
        intercept = Fraction(args.intercept) if args.intercept else None
        if args.cf:
            coeffs = tuple(int(c) for c in args.cf.split(","))
            return wordgen.MechanicalSource(name="mechanical", slope=coeffs, intercept=intercept)
        if args.slope:
            return wordgen.MechanicalSource(
                name="mechanical", slope=Fraction(args.slope), intercept=intercept
            )
        u_text, _, v_text = args.periodic.partition(":")
        alphabet = wordgen.Alphabet("".join(sorted(set(u_text + v_text))))
        return wordgen.UltimatelyPeriodicSource(
            name="ultimately-periodic",
            alphabet=alphabet,
            preperiod=alphabet.encode(u_text),
            period=alphabet.encode(v_text),
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from None


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            n = int(text)
            return n, n
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad length range {text!r}; expected a..b") from None


def _write(path, content):
    if path:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _capped_prefix(source, length):
    """source.prefix(length), refused as a resource limit past the cap."""
    cap = wordgen._hard_cap()
    if length > cap:
        raise MemoryError(
            f"--length {length} exceeds the prefix cap {cap} ({wordgen.MAX_PREFIX_ENV})"
        )
    return source.prefix(length)


def _cmd_generate(args):
    source = _resolve_source(args)
    if args.length < 1:
        raise UsageError("--length must be >= 1")
    print(source.alphabet.decode(_capped_prefix(source, args.length)))
    return EXIT_OK


def _certified_buffer(source, n_max, force):
    try:
        return wordgen.stabilized_prefix(source, n_max)
    except StabilizationError:
        if not force:
            raise
        cap = wordgen._hard_cap()
        return wordgen.PrefixBuffer(source=source, data=source.prefix(cap), stable_upto=0)


def _cmd_profile(args):
    source = _resolve_source(args)
    n_from, n_to = _parse_range(args.n)
    if not 1 <= n_from <= n_to:
        raise UsageError("range must satisfy 1 <= a <= b")
    buf = _certified_buffer(source, n_to, args.force)
    rows = complexity.profile(buf, n_from, n_to, force=args.force)
    if args.syndetic:
        d_text, _, r_text = args.syndetic.partition(":")
        try:
            d, r = int(d_text), int(r_text)
        except ValueError:
            raise UsageError(f"bad --syndetic {args.syndetic!r}; expected d:r") from None
        sample, _ = complexity.syndetic_max_cl(rows, d, r)
        rows = [row for row in rows if row.n in sample.values]
    _write(args.csv, complexity.rows_to_csv(rows, force=args.force))
    return EXIT_OK


def _cmd_classify(args):
    verdict = closure.classify(args.word)
    if verdict.closed:
        print(f"closed frontier={verdict.frontier}")
    else:
        print("open")
    return EXIT_OK


def _cmd_rauzy(args):
    source = _resolve_source(args)
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    buf = _certified_buffer(source, args.n + 1, args.force)
    graph = rauzy.rauzy_graph(buf, args.n, force=args.force)
    specials = rauzy.special_factors(buf, args.n, force=args.force)
    _write(args.dot, rauzy.to_dot(graph, buf, specials))
    return EXIT_OK


def _cmd_returns(args):
    source = _resolve_source(args)
    buf = wordgen.PrefixBuffer(
        source=source, data=_capped_prefix(source, args.length), stable_upto=0
    )
    target = source.alphabet.encode(args.factor)
    rep = returns.report(buf, target)
    decode = source.alphabet.decode
    print(f"target {args.factor}")
    print(f"occurrences {len(rep.positions)} in prefix of length {rep.buffer_length}")
    print("complete_returns " + " ".join(decode(w) for w in rep.complete_returns))
    print("return_words " + " ".join(decode(w) for w in rep.return_words))
    print(f"max_gap {rep.max_gap if rep.max_gap is not None else '-'}")
    return EXIT_OK


def _cmd_verify(args):
    outcomes = verify.run_verify_suite(only=args.only or None)
    for outcome in outcomes:
        print(f"{outcome.status.upper()} {outcome.name}: {outcome.detail}")
    failed = sum(1 for o in outcomes if o.status == "fail")
    print(f"{len(outcomes)} checks, {failed} failed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wordlab",
        description="Open/closed factor complexity, Rauzy graphs and return words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print a prefix of a word source")
    _add_source_options(p)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("profile", help="p/op/cl complexity profile as CSV")
    _add_source_options(p)
    p.add_argument("--n", required=True, help="inclusive length range a..b")
    p.add_argument("--csv", help="output file (default: stdout)")
    p.add_argument("--force", action="store_true", help="allow uncertified lengths")
    p.add_argument("--syndetic", help="restrict to the progression d:r")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("classify", help="open/closed verdict for a word")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("rauzy", help="Rauzy graph of order n as DOT")
    _add_source_options(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", help="output file (default: stdout)")
    p.add_argument("--force", action="store_true", help="allow uncertified lengths")
    p.set_defaults(fn=_cmd_rauzy)

    p = sub.add_parser("returns", help="return words of a factor")
    _add_source_options(p)
    p.add_argument("--factor", required=True)
    p.add_argument("--length", type=int, default=2048, help="prefix length to scan")
    p.set_defaults(fn=_cmd_returns)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", nargs="*", help="restrict to the named checks")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StabilizationError, UncertifiedLengthError) as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except MemoryError as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
