"""Command-line front door.

Subcommands: eval, digits, integrate, tree, bench, float-demo.  All
rational output is exact ``p/q`` in lowest terms; ``--decimal`` adds a
correctly rounded decimal rendering, always annotated with the error
bound — never a silent approximation.

Exit codes: 0 success, 2 parse/domain error, 3 resource limit.
"""

import argparse
import sys
import time

from .ctree import digits_at, eval_at, expansion_count
from .ctree import render_ascii, render_dot
from .errors import DomainError, ParseError, ResourceLimitError
from .exprdsl import parse, to_tree
from .integrate import integral
from .rationals import decimal_str, parse_rat, rat_str
from .sdstream import digits_str


def _positive(limit=10000):
    def convert(text):
        n = int(text)
        if not 1 <= n <= limit:
            raise argparse.ArgumentTypeError(f"must be in 1..{limit}")
        return n

    return convert


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="sdreal",
        description="Exact real arithmetic via signed-digit streams "
        "and memoized continuity trees.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate an expression at a rational")
    ev.add_argument("expression")
    ev.add_argument("--at", required=True, metavar="RAT")
    ev.add_argument("--prec", required=True, type=_positive(), metavar="N")
    ev.add_argument("--decimal", type=_positive(), metavar="D")

    dg = sub.add_parser("digits", help="emit output digits as N/Z/P text")
    dg.add_argument("expression")
    dg.add_argument("--at", required=True, metavar="RAT")
    dg.add_argument("--count", required=True, type=_positive(), metavar="K")

    ig = sub.add_parser("integrate", help="definite integral over [-1,1]")
    ig.add_argument("expression")
    ig.add_argument("--prec", required=True, type=_positive(), metavar="K")
    ig.add_argument("--decimal", type=_positive(), metavar="D")
    ig.add_argument(
        "--max-nodes", type=_positive(50_000_000), default=50_000_000
    )

    tr = sub.add_parser("tree", help="render the continuity tree")
    tr.add_argument("expression")
    tr.add_argument("--depth", required=True, type=_positive(32), metavar="D")
    tr.add_argument("--dot", action="store_true")

    bn = sub.add_parser("bench", help="time repeated evaluation (memoization)")
    bn.add_argument("expression")
    bn.add_argument("--at", required=True, metavar="RAT")
    bn.add_argument("--prec", required=True, type=_positive(), metavar="N")
    bn.add_argument("--repeat", type=_positive(), default=2, metavar="R")

    sub.add_parser(
        "float-demo",
        help="iterated logistic map: exact engine vs 64-bit floats",
    )
    return ap


def _compile(args):
    expr = parse(args.expression)
    return to_tree(expr)


def _cmd_eval(args, out):
    t = _compile(args)
    value = eval_at(t, parse_rat(args.at), args.prec)
    text = rat_str(value) + "\n"
    if args.decimal:
        text += f"{decimal_str(value, args.decimal)} (+-2^-{args.prec})\n"
    out.write(text)


def _cmd_digits(args, out):
    t = _compile(args)
    print(digits_str(digits_at(t, parse_rat(args.at), args.count)), file=out)


def _cmd_integrate(args, out):
    t = _compile(args)
    res = integral(t, args.prec, max_nodes=args.max_nodes)
    text = f"{rat_str(res.value)} (error bound {rat_str(res.error_bound)})\n"
    if args.decimal:
        text += (
            f"{decimal_str(res.value, args.decimal)} (+-2^{1 - args.prec})\n"
        )
    out.write(text)


def _cmd_tree(args, out):
    t = _compile(args)
    render = render_dot if args.dot else render_ascii
    out.write(render(t, args.depth))


def _cmd_bench(args, out):
    t = _compile(args)
    q = parse_rat(args.at)
    before = expansion_count(t)
    for rep in range(1, args.repeat + 1):
        start = time.perf_counter()
        value = eval_at(t, q, args.prec)
        elapsed = time.perf_counter() - start
        count = expansion_count(t)
        print(
            f"run {rep}: {elapsed*1000:.3f} ms, "
            f"{count - before} new expansions -> {rat_str(value)}",
            file=out,
        )
        before = count


_FLOAT_ITERATIONS = 100
_FLOAT_POINT = 0.7


def float_iterate(a=2.0, x=_FLOAT_POINT, n=_FLOAT_ITERATIONS):
    """Unverified IEEE-754 binary64 iteration of the logistic map."""
    for _ in range(n):
        x = a * (1 - x * x) - 1
    return x


def _cmd_float_demo(args, out):
    expr = parse(f"pow(logistic(2), {_FLOAT_ITERATIONS})")
    exact = eval_at(to_tree(expr), parse_rat("7/10"), 100)
    print(
        f"exact   pow(logistic(2),{_FLOAT_ITERATIONS}) at 7/10: "
        f"{rat_str(exact)}",
        file=out,
    )
    print(f"        = {decimal_str(exact, 16)}... (+-2^-100)", file=out)
    print(
        f"float64 (unverified): {float_iterate()!r}",
        file=out,
    )


_COMMANDS = {
    "eval": _cmd_eval,
    "digits": _cmd_digits,
    "integrate": _cmd_integrate,
    "tree": _cmd_tree,
    "bench": _cmd_bench,
    "float-demo": _cmd_float_demo,
}


def _attach_negative_at(argv):
    # argparse takes a value such as -1/3 for an option; the documented
    # --at=-1/3 form keeps it a value
    joined = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        if negative and joined and joined[-1] == "--at":
            joined[-1] = "--at=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None, out=None):
    out = out or sys.stdout
    ap = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = ap.parse_args(_attach_negative_at(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _COMMANDS[args.command](args, out)
    except (ParseError, DomainError, ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        # the library's walks raise ResourceLimitError; to_tree recurses
        # once per `o` of a long chain, outside any walk
        print("resource limit: a tree walk exceeded the recursion limit "
              f"({sys.getrecursionlimit()} frames)", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 3
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
