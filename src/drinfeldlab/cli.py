"""Batch command-line surface: one subcommand per library operation.

Every run streams machine-readable records (JSON lines by default) and is
byte-identical across reruns with the same flags.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 internal inconsistency (two
computations that must agree disagreed: a bug in drinfeldlab, not in the
input), 141 stdout closed before the records were written (a reader such as
`head` exited; 141 is what a shell reports for SIGPIPE).

`COMMANDS` maps each subcommand to its handler and flags, and `_TABLES`
holds each command's option table, built from it once, at import.  A
plain call (an optional `--output`, a command, then its flags spelled in
full) is parsed straight from those tables and builds no parser.  Any
other argv, help and usage errors included, goes to the argparse parser
built from the same tables, which prints the help and error text.
"""

from __future__ import annotations

import argparse
import sys

from . import census, criteria, drinfeld, frobenius, groups, residues
from .errors import (
    BruteCapExceeded,
    DrinfeldLabError,
    InternalInconsistency,
    ParamsOutOfRange,
)
from .fields import enumerate_elements, is_square, make_field
from .polys import (
    COMPACT_JSON,
    Poly,
    PrimeIdeal,
    check_enumeration_cap,
    check_prime_degree,
    check_samples,
    index_texts,
    irreducible_indices,
    parse_poly,
    poly_to_text,
)

EXIT_CLOSED_PIPE = 141
# The largest q any command takes, checked before make_field, whose
# primality test is trial division: at 2^31 - 1, itself prime, it takes
# about 6 ms (in-process, 2 vCPUs).
Q_CAP = 2 ** 31 - 1
# Commands that iterate over F_q also take q <= FIELD_LIST_CAP: it keeps
# `field`'s one record, about 12 bytes per element, near 1 MB.
FIELD_LIST_CAP = 100_000
_LISTS_FQ = frozenset({"field", "omega", "lambda-scan", "thm1-search",
                       "thm2"})


def _element(ctx, value, flag):
    """The element of F_q a --c, --c1 or --c2 flag names; a value outside
    0..q-1 is a usage error, not reduced mod p."""
    if not 0 <= value < ctx.q:
        raise _Usage(f"{flag} {value} out of range 0..{ctx.q - 1}")
    return ctx.element(value)


def _check_q(command, q):
    """Reject a --q above Q_CAP, or above FIELD_LIST_CAP for a command that
    iterates over F_q, before any field is built."""
    if command in _LISTS_FQ and q > FIELD_LIST_CAP:
        raise _Usage(f"{command} lists every element: q must be at most "
                     f"{FIELD_LIST_CAP}")
    if q > Q_CAP:
        raise _Usage(f"q must be at most {Q_CAP}")


def _field(args):
    ctx = make_field(args.q)
    elems = enumerate_elements(ctx)
    rec = {
        "op": "field",
        "q": ctx.q,
        "p": ctx.p,
        "m": ctx.m,
        "elements": [e.val for e in elems],
        "squares": [e.val for e in elems if is_square(e)],
        "nonsquares": [e.val for e in elems if not is_square(e)],
    }
    return 0, [rec]


def _primes(args):
    ctx = make_field(args.q)
    if args.exact_deg is None and args.max_deg is None:
        raise _Usage("primes needs --max-deg or --exact-deg")
    if args.exact_deg is not None:
        degrees = [args.exact_deg]
    else:
        check_enumeration_cap(ctx, args.max_deg)
        degrees = range(1, args.max_deg + 1)
    # every degree is checked now; the records stream from the sieves
    sieves = [(d, irreducible_indices(ctx, d)) for d in degrees]
    return 0, _prime_records(ctx, sieves)


def _prime_records(ctx, sieves):
    """One record per sieve index, its text from `index_texts`."""
    q = ctx.q
    for d, indices in sieves:
        for _, text in index_texts(ctx, d, indices):
            yield {"op": "prime", "q": q, "degree": d, "prime": text}


def _omega(args):
    ctx = make_field(args.q)
    cert = criteria.in_omega_tilde(_capped_prime(ctx, args.prime))
    return (0 if cert.verified else 1), [cert.as_dict()]


def _lambda(args):
    ctx = make_field(args.q)
    c = _element(ctx, args.c, "--c")
    cert = criteria.in_lambda_set(_capped_prime(ctx, args.l),
                                  parse_poly(ctx, args.g1), c)
    return (0 if cert.verified else 1), [cert.as_dict()]


def _lambda_scan(args):
    ctx = make_field(args.q)
    if args.find_counterexample:
        if args.exact_deg is None:
            raise _Usage("--find-counterexample needs --exact-deg")
        report = criteria.lambda_scan(ctx, args.exact_deg,
                                      mode="find_counterexample")
        records = report.records + [report.as_dict()]
        return (0 if not report.all_pass else 1), records
    if args.max_deg is None:
        raise _Usage("lambda-scan needs --max-deg (or --exact-deg with "
                     "--find-counterexample)")
    report = criteria.lambda_scan(ctx, args.max_deg, mode="affirm")
    records = report.records + [report.as_dict()]
    return (0 if report.all_pass else 1), records


def _module_from_args(ctx, args):
    return drinfeld.DrinfeldModule(ctx, [parse_poly(ctx, args.g1),
                                         parse_poly(ctx, args.g2)])


def _capped_prime(ctx, text, *checks):
    """The prime a --prime or --l flag names, its degree bounded by
    PRIME_DEG_CAP, and by any further checks, before the irreducibility
    test."""
    f = parse_poly(ctx, text)
    check_prime_degree(f)
    for check in checks:
        check(f)
    return PrimeIdeal(f)


def _frob(args):
    ctx = make_field(args.q)
    phi = _module_from_args(ctx, args)
    lam = _capped_prime(ctx, args.prime)
    # frob_general raises InternalInconsistency unless the identity holds
    cp = frobenius.frob_general(phi, lam)
    rec = {
        "op": "frob",
        "q": ctx.q,
        "prime": poly_to_text(lam.gen),
        "g1": poly_to_text(phi.g1),
        "g2": poly_to_text(phi.g2),
        "a": poly_to_text(cp.a),
        "b": poly_to_text(cp.b),
        "unit": cp.unit.val,
        "identity_holds": True,
    }
    # frob_general reads phi through drinfeld.ReducedModule and its Horner
    # map; the oracle reduces phi_T by kernel.vmod itself and builds the
    # T-action by running products, a mulmod a term and column by the
    # factors T^(q^i) (from deg lam >= 2 only, each one powmod of the one
    # before), touching no Frobenius or Horner map, then takes its
    # charpoly by Hessenberg reduction: no step is shared, which keeps
    # the check independent.  Above its residue-field bound it is
    # skipped; any error it raises within the bound propagates, and so
    # does a disagreement.
    rec["oracle"] = rec["oracle_matches"] = None
    if ctx.q ** lam.degree <= frobenius.DEFAULT_BRUTE_CAP:
        oracle = frobenius.euler_poincare_oracle(phi, lam)
        if oracle != (Poly.one(ctx) - cp.a + cp.b).monic():
            raise InternalInconsistency(
                "oracle and frob_general disagree; this is a bug")
        rec["oracle"], rec["oracle_matches"] = poly_to_text(oracle), True
    return 0, [rec]


def _thm1_verify(args):
    ctx = make_field(args.q)
    c1 = _element(ctx, args.c1, "--c1")
    c2 = _element(ctx, args.c2, "--c2")
    cert = criteria.theorem1_verify(parse_poly(ctx, args.g1),
                                    parse_poly(ctx, args.g2),
                                    _capped_prime(ctx, args.prime), c1, c2)
    return (0 if cert.verified else 1), [cert.as_dict()]


def _thm1_search(args):
    check_samples(args.limit, "limit")
    ctx = make_field(args.q)
    certs = criteria.theorem1_search(_capped_prime(ctx, args.prime),
                                     args.max_deg, args.limit)
    records = [c.as_dict() for c in certs]
    records.append({"op": "thm1_search_summary", "q": ctx.q,
                    "requested": args.limit, "found": len(certs)})
    return (0 if len(certs) == args.limit else 1), records


def _thm2(args):
    ctx = make_field(args.q)
    c = _element(ctx, args.c, "--c")
    module, cert = criteria.theorem2_build(
        _capped_prime(ctx, args.l, criteria.check_theorem2_prime),
        parse_poly(ctx, args.g1), c)
    records = [{"op": "thm2_module", "q": ctx.q,
                **cert.witnesses["module"]},
               cert.as_dict()]
    return (0 if cert.verified else 1), records


def _newton(args):
    ctx = make_field(args.q)
    phi = _module_from_args(ctx, args)
    p = _capped_prime(ctx, args.prime)
    rep = drinfeld.newton_polygon(phi, p)
    rec = {
        "op": "newton",
        "q": ctx.q,
        "prime": poly_to_text(p.gen),
        "g1": poly_to_text(phi.g1),
        "g2": poly_to_text(phi.g2),
        "height": rep.height,
        "n_p": ctx.q ** (rep.height * p.degree),
        "segments": [[str(s), l] for s, l in rep.segments],
        "total_length": rep.total_length,
    }
    return 0, [rec]


def _obstruction(args):
    ctx = make_field(args.q)
    roots = [_element(ctx, args.c1, "--c1"), _element(ctx, args.c2, "--c2")]
    phi = _module_from_args(ctx, args)
    p = _capped_prime(ctx, args.prime)
    lams = [PrimeIdeal(Poly(ctx, (ctx.neg(c.val), 1)), _trusted=True)
            for c in roots]
    cert = criteria.reducibility_obstruction(phi, p, lams)
    return (0 if cert.verified else 1), [cert.as_dict()]


def _det_gen(args):
    ctx = make_field(args.q)
    f = parse_poly(ctx, args.prime)
    # N = #A/p, bounded before the irreducibility test
    field = frobenius.check_det_gen_field(ctx.q, len(f.coeffs) - 1)
    p = PrimeIdeal(f)
    generated = frobenius.det_generation_check(p, args.level, args.max_deg)
    rec = {
        "op": "det_gen",
        "q": ctx.q,
        "prime": poly_to_text(p.gen),
        "level": args.level,
        "max_deg": args.max_deg,
        "unit_group_order": field ** args.level - field ** (args.level - 1),
        "generated": generated,
    }
    return (0 if generated else 1), [rec]


def _lemma_a1(args):
    check_samples(args.samples)
    ctx = make_field(args.q)
    f = parse_poly(ctx, args.prime)
    groups.check_lemma_field(f)  # before the irreducibility test
    report = groups.verify_lemma_A1(residues.ResidueRing(f), args.samples,
                                    args.seed)
    return (0 if not report["violations"] else 1), [report]


def _pr_level2(args):
    check_samples(args.samples)
    ctx = make_field(args.q)
    f = parse_poly(ctx, args.prime)
    groups.check_level2_prime(f)  # before the irreducibility test
    report = groups.pink_rutsche_level2(PrimeIdeal(f), args.samples,
                                        args.seed)
    return (0 if not report["violations"] else 1), [report]


def _density(args):
    from fractions import Fraction

    census.check_box_size(args.x)
    ctx = make_field(args.q)
    census.check_weights(ctx.q, args.d1, args.d2, args.x)
    c1 = _element(ctx, 0 if args.c1 is None else args.c1, "--c1")
    c2 = _element(ctx, 1 if args.c2 is None else args.c2, "--c2")
    b1, b2 = census.default_congruence_class(ctx, c1, c2)
    records = []
    for x in range(1, args.x + 1):
        params = census.CensusParams(ctx, args.d1, args.d2, x, c1, c2, b1,
                                     b2)
        try:
            s = census.count_S(params, args.mode)
        except (ParamsOutOfRange, BruteCapExceeded):
            continue
        w_mode = args.mode
        if args.mode == "brute":
            try:
                w = census.count_W(params, "brute")
            except BruteCapExceeded:
                # the W box can dwarf the S box; fall back to the closed form
                w = census.count_W(params, "formula")
                w_mode = "formula"
        else:
            w = census.count_W(params, "formula")
        ratio = Fraction(s, w)
        records.append({"op": "density", "q": ctx.q, "d1": args.d1,
                        "d2": args.d2, "X": x, "count_S": s, "count_W": w,
                        "s_mode": args.mode, "w_mode": w_mode,
                        "ratio_num": ratio.numerator,
                        "ratio_den": ratio.denominator})
    if not records:
        raise _Usage("no X in 1..x satisfies the census preconditions")
    return 0, records


class _Usage(Exception):
    pass


_FORMATS = ("jsonl", "csv", "pretty")
# accepted after the subcommand too; overrides the top-level flag
_OUTPUT = ("--output", {"choices": _FORMATS, "dest": "output_override",
                        "default": None})
_DEGREES = (("--max-deg", {"type": int}), ("--exact-deg", {"type": int}))
_POLY_FLAGS = ("--prime", "--g1", "--g2", "--l")
_MODULE = ("--q", "--g1", "--g2", "--prime", _OUTPUT)
_TRIPLE = ("--q", "--l", "--g1", _OUTPUT, "--c")
_SAMPLED = ("--q", "--prime", _OUTPUT, "--samples", "--seed")

# subcommand -> (handler, flags in usage order).  A bare flag is required
# and takes an int, or a polynomial's text if it is in _POLY_FLAGS; any
# other flag is a (flag, add_argument options) pair.
COMMANDS = {
    "field": (_field, ("--q", _OUTPUT)),
    "primes": (_primes, ("--q", _OUTPUT, *_DEGREES)),
    "omega": (_omega, ("--q", "--prime", _OUTPUT)),
    "lambda": (_lambda, _TRIPLE),
    "lambda-scan": (_lambda_scan, ("--q", _OUTPUT, *_DEGREES, (
        "--find-counterexample", {"action": "store_true"}))),
    "frob": (_frob, _MODULE),
    "thm1-verify": (_thm1_verify, (*_MODULE, "--c1", "--c2")),
    "thm1-search": (_thm1_search, ("--q", "--prime", _OUTPUT, "--max-deg",
                                   "--limit")),
    "thm2": (_thm2, _TRIPLE),
    "newton": (_newton, _MODULE),
    "obstruction": (_obstruction, (*_MODULE, "--c1", "--c2")),
    "det-gen": (_det_gen, ("--q", "--prime", _OUTPUT, ("--level", {
        "type": int, "choices": (1, 2), "required": True}), "--max-deg")),
    "lemma-a1": (_lemma_a1, _SAMPLED),
    "pr-level2": (_pr_level2, _SAMPLED),
    "density": (_density, ("--q", _OUTPUT, "--d1", "--d2", "--x", (
        "--mode", {"choices": ("formula", "brute"), "default": "formula"}),
        ("--c1", {"type": int}), ("--c2", {"type": int}))),
}


def _options(flags):
    """(flag, add_argument options) for each entry of a COMMANDS flag tuple."""
    for flag in flags:
        if isinstance(flag, tuple):
            yield flag
        else:
            yield flag, {"required": True,
                         "type": None if flag in _POLY_FLAGS else int}


# subcommand -> (handler, {flag: (add_argument options, Namespace
# attribute, value when absent)}), in usage order; built once, at import,
# for every plain call and the parser to read
_TABLES = {
    name: (handler, {
        flag: (opts, opts.get("dest", flag[2:].replace("-", "_")),
               False if opts.get("action") == "store_true"
               else opts.get("default"))
        for flag, opts in _options(flags)})
    for name, (handler, flags) in COMMANDS.items()}


def _table_args(argv):
    """The Namespace argparse returns for a plain call, read off _TABLES:
    an optional `--output F`, a command, then its flags, each spelled in
    full and given once, with a value not starting with '-'.  None for any
    other argv (help, abbreviations, `--flag=value`, a repeated or missing
    flag, a bad value), which is left to argparse, the reference grammar."""
    output = "jsonl"
    if len(argv) > 1 and argv[0] == "--output" and argv[1] in _FORMATS:
        output, argv = argv[1], argv[2:]
    if not argv or argv[0] not in _TABLES:
        return None
    handler, table = _TABLES[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        entry = table.get(flag)
        if entry is None or flag in given:
            return None
        opts = entry[0]
        if opts.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "--")
        if value[:1] == "-":
            return None
        if opts.get("type"):
            try:
                value = opts["type"](value)
            except ValueError:
                return None
        if value not in opts.get("choices", (value,)):
            return None
        given[flag] = value
    args = argparse.Namespace(output=output, command=argv[0], handler=handler)
    for flag, (opts, dest, absent) in table.items():
        if flag in given:
            setattr(args, dest, given[flag])
        elif opts.get("required"):
            return None
        else:
            setattr(args, dest, absent)
    return args


def _join_dash_values(argv):
    """argv with each polynomial flag and a value after it that starts with
    a single '-' (`--g1 -T`) joined into one token (`--g1=-T`), which
    argparse reads as the value; `-h` and a flag name there (`--g1 --c 1`)
    are left for argparse, as help and a usage error."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in _POLY_FLAGS and value[:1] == "-" and value[:2] != "--"
                and value != "-h"):
            out.append(f"{tok}={value}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every command's subparser."""
    top = argparse.ArgumentParser(
        prog="drinfeldlab",
        description="Exact checks, scans and certificates for rank-2 "
                    "Drinfeld modules over F_q[T].")
    top.add_argument("--output", choices=_FORMATS, default="jsonl")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, table) in _TABLES.items():
        p = sub.add_parser(name)
        for flag, (opts, _, _) in table.items():
            p.add_argument(flag, **opts)
        p.set_defaults(handler=handler)
    return top


def _emit(records, output, out):
    """Write the records as jsonl, csv or pretty text.  Each record is
    formatted whole before any of it is written, and a csv table before
    its header, so a record that fails to encode writes nothing of
    itself."""
    encode = COMPACT_JSON.encode
    if output == "jsonl":
        for rec in records:
            out.write(encode(rec) + "\n")
    elif output == "csv":
        records = list(records)  # the header needs every record's keys
        if not records:
            return
        keys = list(dict.fromkeys(k for rec in records for k in rec))
        lines = [",".join(keys)]
        for rec in records:
            row = []
            for k in keys:
                v = rec.get(k)
                if isinstance(v, (dict, list)):
                    cell = encode(v)
                    row.append('"' + cell.replace('"', '""') + '"')
                elif isinstance(v, bool):
                    row.append("true" if v else "false")
                elif v is None:
                    row.append("")
                else:
                    row.append(str(v))
            lines.append(",".join(row))
        out.write("\n".join(lines) + "\n")
    else:  # pretty
        for rec in records:
            text = "".join(
                f"{k}: {encode(v) if isinstance(v, (dict, list)) else v}\n"
                for k, v in rec.items())
            out.write(text + "\n")


def main(argv=None) -> int:
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    args = _table_args(argv) or _build_parser().parse_args(argv)
    try:
        _check_q(args.command, args.q)
        code, records = args.handler(args)
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (_Usage, DrinfeldLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = args.output_override or args.output
    try:
        _emit(records, output, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
