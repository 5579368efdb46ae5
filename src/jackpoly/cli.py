"""Command-line interface: compute polynomials, print constants, expand
kernels, and run the verification suite.

Exit codes: 0 success (all checks pass), 1 verification failure, 2 bad
arguments or a MemoryError.  Each subcommand returns its text and its exit
code, and `main` prints the text; when the reader of a pipe closes it
early, the rest of the output is dropped and the exit code stays the one
the command decided.
The symbolic commands never take a parameter value; pass --alpha p/q to
specialize the output exactly at a rational point.  A negative value needs
the `=` form, --alpha=-1/2, since argparse reads -1/2 after a space as an
option; a pole at the given value exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import combinat, jack, scalars, verify
from .polyalg import MultiPoly, monomial_text, omega_truncated, pi_truncated, term_text
from .qalpha import alpha_shift, format_alpha, join_terms


def _parse_parts(text: str, parser, n=None):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parser.error(f"cannot parse index {text!r}: expected comma-separated integers")
    if any(p < 0 for p in parts):
        parser.error(f"negative parts in {text!r}")
    if max(parts) > sys.maxsize:
        parser.error(f"parts above {sys.maxsize} in {text!r}")
    if n is not None:
        if n < len(parts):
            parser.error(f"--N {n} is smaller than the given {len(parts)} parts")
        parts = parts + (0,) * (n - len(parts))
    return parts


def _parse_size(text: str) -> int:
    """argparse type for --N and --deg: an int no larger than sys.maxsize,
    the largest length the interpreter can index."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"{value} is above {sys.maxsize}")
    return value


def _parse_fraction(text: str) -> Fraction:
    """argparse type for an exact rational p/q."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}") from None


def _parse_fractions(text: str) -> tuple:
    """argparse type for comma-separated rationals."""
    return tuple(_parse_fraction(r) for r in text.split(","))


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _poly_json(f: MultiPoly, alpha0=None) -> str:
    if alpha0 is None:
        return _json_dumps(f.to_json())
    terms = [{"exp": list(e), "coeff": str(c)}
             for e, c in sorted(f.specialize(alpha0).items())]
    return _json_dumps({"N": f.nvars, "alpha": str(alpha0), "terms": terms})


def _poly_text(f: MultiPoly, symbol: str, alpha0=None) -> str:
    if alpha0 is None:
        return f.format(symbol)
    return join_terms([term_text(c, monomial_text(e, symbol))
                       for e, c in sorted(f.specialize(alpha0).items())])


def _m_basis_text(p: MultiPoly) -> str:
    chunks = []
    for kappa in sorted((e for e in p.terms if combinat.sort_to_partition(e) == e),
                        reverse=True):
        label = ",".join(str(v) for v in kappa if v)
        chunks.append(term_text(p.terms[kappa], f"m[{label}]" if label else "1"))
    return join_terms(chunks)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args, parser):
    index = _parse_parts(args.index, parser, args.N)
    try:
        poly = {"E": jack.build_E, "P": jack.build_P, "S": jack.build_S}[args.family](index)
    except ValueError as exc:  # a label the family does not take
        parser.error(str(exc))
    symbol = "x" if args.family == "S" else "z"
    try:
        if args.format == "json":
            text = _poly_json(poly, args.alpha)
        elif args.family == "P" and args.alpha is None:
            text = _m_basis_text(poly)
        else:
            text = _poly_text(poly, symbol, args.alpha)
    except ZeroDivisionError as exc:  # a pole at --alpha
        parser.error(str(exc))
    return text, 0


def cmd_constants(args, parser):
    eta = _parse_parts(args.eta, parser, args.N)
    kappa = combinat.sort_to_partition(eta)
    values = [
        ("eta", list(eta)),
        ("d", scalars.const_d(eta)),
        ("dp", scalars.const_dp(eta)),
        ("e", scalars.const_e(eta)),
        ("ep", scalars.const_ep(eta)),
        ("b", scalars.const_b(eta)),
        ("h(eta+)", scalars.const_h(kappa)),
        ("b(eta+)", scalars.const_b(kappa)),
        ("E(1^N)", scalars.eval_E_at_ones(eta)),
        ("P(1^N)", scalars.eval_P_at_ones(kappa)),
        ("norm_E/norm_0", scalars.norm_ratio_E(eta)),
        ("norm_P/norm_0", scalars.norm_ratio_P(kappa)),
        ("u", scalars.u_eta(eta)),
        ("v", scalars.v_kappa(kappa)),
    ]
    if args.alpha is not None:
        try:
            values = [(k, v if isinstance(v, list) else v.eval_at(args.alpha))
                      for k, v in values]
        except ZeroDivisionError as exc:  # a pole at --alpha
            parser.error(str(exc))
    if args.format == "json":
        out = {k: (v if isinstance(v, list) else
                   (str(v) if args.alpha is not None else v.to_json()))
               for k, v in values}
        return _json_dumps(out), 0
    return "\n".join(f"{k:>14} = {v}" for k, v in values if not isinstance(v, list)), 0


def cmd_verify(args, parser):
    if args.deg < 0 or args.N < 2 or args.jobs < 1:
        parser.error("--deg must be >= 0, --N >= 2 (no check sweeps fewer "
                     "than 2 variables) and --jobs >= 1")
    try:
        ks = tuple(int(k) for k in args.k.split(","))
    except ValueError:
        parser.error(f"cannot parse --k {args.k!r}: expected comma-separated integers")
    if any(k < 1 for k in ks):
        parser.error("--k entries must be positive integers")
    for flag, values in (("--k", ks), ("--r", args.r)):
        if len(set(values)) != len(values):
            parser.error(f"{flag} entries must be distinct; a repeated value would be swept twice")
    bounds = verify.Bounds(n_max=args.N, deg=args.deg, ks=ks, rs=args.r)
    report = verify.run_checks(bounds, name_filter=args.filter, jobs=args.jobs)
    if not report.results:
        parser.error(f"no checks match filter {args.filter!r}")
    text = json.dumps(report.to_json(), indent=2) if args.format == "json" else report.to_text()
    return text, 0 if report.ok else 1


def _kernel_text(split) -> str:
    chunks = []
    for xe, ye, c in split:
        mono = "*".join(m for m in (monomial_text(xe, "x"), monomial_text(ye, "y")) if m)
        cs = format_alpha(c)
        chunks.append(f"({cs})*{mono}" if mono else cs)
    return " + ".join(chunks) if chunks else "0"


def cmd_expand(args, parser):
    if args.deg < 0 or args.N < 1:
        parser.error("--deg must be >= 0 and --N >= 1")
    if args.shifted and args.kernel != "pi":
        parser.error("--shifted applies to the pi kernel only")
    if args.r is not None and args.kernel != "binomial":
        parser.error("--r applies to the binomial table only")
    if args.format == "json" and args.kernel == "binomial":
        parser.error("the binomial table is text only; drop --format json")
    if args.coeffs and args.kernel == "binomial":
        parser.error("the binomial table is its coefficients; drop --coeffs")
    if args.format == "json" and args.coeffs:
        parser.error("--coeffs prints text lines; it cannot be combined with --format json")
    n = args.N
    if args.kernel == "binomial":
        if args.r is None:
            parser.error("binomial expansion needs --r")
        lines = [f"# expansion coefficients of prod_j (1-x_j)^(-{args.r}), degree <= {args.deg}",
                 "# label -> alpha^|eta| [r](eta+) / (u d)"]
        lines += [f"{list(eta)} -> {scalars.binomial_coeff(args.r, eta)}"
                  for eta in combinat.compositions_upto(args.deg, n)]
        return "\n".join(lines), 0
    if args.kernel == "omega":
        kernel = omega_truncated(n, args.deg)
        head = "1/u"
        norms = ((eta, scalars.u_eta(eta))
                 for eta in combinat.compositions_upto(args.deg, n))
    else:
        sh = alpha_shift()
        at = (lambda c: c.substitute(sh)) if args.shifted else (lambda c: c)
        kernel = pi_truncated(n, args.deg).map_coeff(at)
        head = "1/v"
        norms = ((kappa, at(scalars.v_kappa(kappa)))
                 for kappa in combinat.partitions_upto(args.deg, n))
    split = [(e[:n], e[n:], c) for e, c in kernel.sorted_terms()]
    if args.format == "json":
        return _json_dumps({"Nx": n, "Ny": n, "D": args.deg, "terms": [
            {"xexp": list(xe), "yexp": list(ye), "coeff": c.to_json()}
            for xe, ye, c in split]}), 0
    lines = [_kernel_text(split)]
    if args.coeffs:
        lines.append(f"# label -> {head}")
        lines += [f"{list(label)} -> {norm.inverse()}" for label, norm in norms]
    return "\n".join(lines), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jackpoly",
        description="Exact construction and verification of non-symmetric, "
                    "symmetric, and anti-symmetric Jack polynomials over Q(alpha).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print one polynomial")
    p.add_argument("family", choices=["E", "P", "S"])
    p.add_argument("index", help="comma-separated parts, e.g. 1,0")
    p.add_argument("--N", type=_parse_size, default=None,
                   help="pad the index with zeros to N parts")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--alpha", type=_parse_fraction, default=None,
                   help="specialize the parameter at an exact rational p/q "
                        "(negative values as --alpha=-1/2)")
    p.set_defaults(run=cmd_compute, parser=p)

    p = sub.add_parser("constants", help="print the scalar constants for a composition")
    p.add_argument("eta", help="comma-separated parts")
    p.add_argument("--N", type=_parse_size, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--alpha", type=_parse_fraction, default=None,
                   help="evaluate at an exact rational p/q (negative values as --alpha=-1/2)")
    p.set_defaults(run=cmd_constants, parser=p)

    p = sub.add_parser(
        "verify", help="run the verification suite",
        epilog="Exit 0 when no check fails, 1 when one fails (its witness names "
               "the label and both values), 2 on invalid arguments.  A check "
               "whose fixed k values were not all requested (S.norm.ct under "
               "--k 1) is reported as SKIP with its reason and leaves the exit "
               "code at 0; the acceptance suite counts a skip as a failure, "
               "since no check skips at the default bounds.")
    p.add_argument("--N", type=_parse_size, default=4, help="largest variable count (default 4)")
    p.add_argument("--deg", type=_parse_size, default=5, help="largest sweep degree (default 5)")
    p.add_argument("--k", default="1,2",
                   help="distinct inverse parameter values for the torus oracle")
    p.add_argument("--r", type=_parse_fractions, default="1,2,3,5/2",
                   help="distinct exponents for the binomial checks")
    p.add_argument("--filter", default=None, help="run only checks whose name contains this")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=cmd_verify, parser=p)

    p = sub.add_parser("expand", help="print a truncated kernel or expansion table")
    p.add_argument("kernel", choices=["omega", "pi", "binomial"])
    p.add_argument("--N", type=_parse_size, required=True)
    p.add_argument("--deg", type=_parse_size, required=True)
    p.add_argument("--r", type=_parse_fraction, default=None,
                   help="binomial exponent (rational)")
    p.add_argument("--shifted", action="store_true",
                   help="use the substituted parameter alpha/(alpha+1) for pi")
    p.add_argument("--coeffs", action="store_true", help="also print decomposition norms")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=cmd_expand, parser=p)
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported against the subcommand, with its usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        text, status = args.run(args, args.parser)
    except MemoryError:
        args.parser.error("out of memory: the request is too large to serve")
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the unflushed rest to devnull, so that
        # the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
