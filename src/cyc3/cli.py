"""Command-line surface.

Subcommands: field-info, coset, minpoly, code, verify, family, mindist,
factor, identities, search.  Output formats: text (default, includes wall
time), json (byte-deterministic, no timing), and csv-row for verify and
family.  Exit codes: 0 all checks pass, 1 a verification came back
fail/not_optimal where the command asserts optimality, 2 usage error.

JSON determinism is a hard requirement (two identical invocations must be
byte-identical), which is why wall time appears only in text output and
every collection is emitted in a fixed order.  The verify subcommand emits
the bare report schema; every other command wraps its payload with the
command name and artifact version.

Each subcommand imports what it runs: `code` and `mindist` load
`cyc3.codes`, `identities` loads `cyc3.identities`, and only csv-row output
loads `csv`, each inside its handler, so `verify`, `family` and `search`
load just `conditions`, `cosets`, `field` and `gf3poly`.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from . import __version__, conditions
from .conditions import FAMILIES, ConditionReport, verify_family, verify_optimal
from .cosets import coset, minimal_polynomial
from .field import build_field
from .gf3poly import factor, parse_poly, prime_factors


def _csv_row(payload: dict) -> dict[str, str]:
    """A JSON object, as emitted, flattened into csv cells: a nested object
    spreads into its own keys (`parameters` into n, k, d, all empty when it
    is null), null becomes empty, booleans true/false, and lists are joined
    with |."""
    row = {}
    for key, value in payload.items():
        if key == "parameters":
            value = value or dict.fromkeys(conditions.PARAMETER_KEYS)
        if isinstance(value, dict):
            row.update(_csv_row(value))
        elif value is None:
            row[key] = ""
        elif isinstance(value, bool):
            row[key] = json.dumps(value)
        elif isinstance(value, list):
            row[key] = "|".join(value)
        else:
            row[key] = str(value)
    return row


def _report_text_lines(report: ConditionReport, field) -> list[str]:
    lines = [
        f"m = {report.m}, e = {report.e}"
        + (f", h = {report.h}" if report.h is not None else ""),
        f"modulus: {field.modulus.format()}",
        f"condition 1 (e even): {'pass' if report.c1 else 'FAIL'}",
        f"coset facts (e not conjugate to 1, full coset size): "
        f"{'pass' if report.coset_ok else 'FAIL'} (gcd(e, 3^m-1) = {report.gcd_value})",
    ]
    for number, codes in ((2, report.c2_solutions), (3, report.c3_solutions)):
        shown = ", ".join(map(field.format_element, codes[:8]))
        more = " ..." if len(codes) > 8 else ""
        lines.append(f"condition {number} solutions ({len(codes)}): {shown}{more}")
    lines.append(f"verdict: {report.verdict}")
    if report.parameters:
        n, k, d = report.parameters
        lines.append(f"parameters: [{n}, {k}, {d}]")
    return lines


# each handler returns (exit_code, json_payload, text_lines); _emit adds the
# command name and artifact version to the json payload, and csv-row output
# is the payload flattened.  verify builds only what its --format prints
# and leaves the other None


def _cmd_field_info(args):
    field = build_field(args.m)
    primes = prime_factors(field.order)
    # the text form from the generator's digits: format_element would build
    # the half-code table (tens of MiB at m = 20) for this one element
    generator = ",".join(map(str, field.gen))
    log_tables = field.has_tables
    payload = {
        "m": field.m,
        "order": field.order,
        "modulus": field.modulus.format(),
        "generator": generator,
        "orderPrimeFactors": list(primes),
        "logTables": log_tables,
    }
    text = [
        f"GF(3^{field.m}): order of multiplicative group = {field.order}",
        f"modulus: {field.modulus.format()}",
        f"generator: {generator}",
        f"prime factors of the order: {', '.join(map(str, primes))}",
        f"log/Zech tables available: {json.dumps(log_tables)}",
    ]
    return 0, payload, text


def _cmd_coset(args):
    c = coset(args.j, args.p, args.m)
    payload = {
        "p": c.p,
        "m": c.m,
        "j": args.j,
        "leader": c.leader,
        "size": c.size,
        "members": list(c.members),
    }
    text = [
        f"coset of {args.j} under multiplication by {args.p} mod {args.p}^{args.m}-1:",
        f"leader = {c.leader}, size = {c.size}",
        f"members: {', '.join(map(str, c.members))}",
    ]
    return 0, payload, text


def _cmd_minpoly(args):
    field = build_field(args.m)
    c = coset(args.i, 3, args.m)
    poly = minimal_polynomial(field, args.i)
    payload = {
        "m": args.m,
        "i": args.i,
        "cosetLeader": c.leader,
        "degree": poly.degree,
        "poly": poly.format(),
        "modulus": field.modulus.format(),
    }
    text = [
        f"minimal polynomial of generator^{args.i} over GF(3), m = {args.m}:",
        f"{poly.format()}",
        f"degree {poly.degree} = coset size of leader {c.leader}",
        f"modulus: {field.modulus.format()}",
    ]
    return 0, payload, text


def _cmd_code(args):
    from .codes import build_code

    field = build_field(args.m)
    spec = build_code(field, args.e)
    payload = {
        "m": spec.m,
        "e": spec.e,
        "n": spec.n,
        "k": spec.k,
        "generatorDegree": spec.generator.degree,
        "generator": spec.generator.format(),
        "modulus": field.modulus.format(),
    }
    text = [
        f"code with nonzeros alpha, alpha^{spec.e} over GF(3^{spec.m}):",
        f"length n = {spec.n}, dimension k = {spec.k}",
        f"generator polynomial (degree {spec.generator.degree}): {spec.generator.format()}",
        f"modulus: {field.modulus.format()}",
    ]
    return 0, payload, text


def _cmd_verify(args):
    field = build_field(args.m)
    report = verify_optimal(field, args.e)
    code = 0 if report.verdict == "optimal" else 1
    if args.format == "text":
        # the text lists 8 solutions of each equation; the payload would
        # format all of them, 531,441 at m = 12 for e in the coset of 1
        return code, None, _report_text_lines(report, field)
    return code, report.to_json_dict(field), None


def _family_reading_report(rows) -> tuple[list[dict], list[str]]:
    # one pass over the concl-C verdicts grouped by (m, reading): a reading
    # is fully optimal at m when every instance there came back optimal;
    # a partly or wholly failing reading, and an m where no reading is
    # fully optimal, each become a discrepancy line
    by_m: dict[int, dict[str, list[str]]] = {}
    for inst, rep in rows:
        by_m.setdefault(inst.m, {}).setdefault(inst.reading, []).append(rep.verdict)
    summary, discrepancies = [], []
    for m in sorted(by_m):
        readings = []
        for reading, verdicts in by_m[m].items():
            failed = sum(v != "optimal" for v in verdicts)
            readings.append({"reading": reading, "allOptimal": not failed})
            if failed == len(verdicts):
                discrepancies.append(
                    f"reading {reading} at m={m}: no instance optimal"
                )
            elif failed:
                discrepancies.append(
                    f"reading {reading} at m={m}: {failed} of "
                    f"{len(verdicts)} instances not optimal"
                )
        any_consistent = any(r["allOptimal"] for r in readings)
        if not any_consistent:
            discrepancies.append(
                f"m={m}: no reading of the constant term is optimal for "
                f"every qualifying h"
            )
        summary.append(
            {"m": m, "readings": readings, "anyConsistent": any_consistent}
        )
    return summary, discrepancies


def _cmd_family(args):
    ms = args.m_list
    rows = verify_family(args.name, ms)
    instances_json = [
        {
            "family": inst.family,
            "reading": inst.reading,
            "report": rep.to_json_dict(build_field(inst.m)),
        }
        for inst, rep in rows
    ]
    n_opt = sum(rep.verdict == "optimal" for _, rep in rows)
    payload = {
        "name": args.name,
        "mList": list(ms),
        "instances": instances_json,
        "summary": {"total": len(rows), "optimal": n_opt},
    }
    text = [f"family {args.name} over m in {{{', '.join(map(str, ms))}}}:"]
    for inst, rep in rows:
        tag = f" [{inst.reading}]" if inst.reading else ""
        params = (
            f" {list(rep.parameters)}" if rep.parameters else ""
        )
        text.append(
            f"  m={inst.m} h={inst.h} e={inst.e}{tag}: {rep.verdict}{params}"
        )
    if args.name == "concl-C":
        summary, discrepancies = _family_reading_report(rows)
        payload["readingSummary"] = summary
        payload["discrepancies"] = discrepancies
        for line in discrepancies:
            text.append(f"  FLAG: {line}")
        code = 0 if all(s["anyConsistent"] for s in summary) else 1
    else:
        code = 0 if n_opt == len(rows) else 1
    text.append(f"optimal: {n_opt} of {len(rows)}")
    return code, payload, text


def _cmd_mindist(args):
    from .codes import (
        build_code,
        hamming_ball,
        min_weight_leq3_search,
        sphere_packing_max_d,
    )

    field = build_field(args.m)
    spec = build_code(field, args.e)
    witness = min_weight_leq3_search(field, args.e)
    budget = 3 ** (spec.n - spec.k)
    ball1 = hamming_ball(spec.n, 1, 3)
    ball2 = hamming_ball(spec.n, 2, 3)
    max_d = sphere_packing_max_d(spec.n, spec.k, 3)
    payload = {
        "m": args.m,
        "e": args.e,
        "n": spec.n,
        "k": spec.k,
        "verdict": witness.verdict,
        "witness": None
        if witness.positions is None
        else {
            "positions": list(witness.positions),
            "values": list(witness.values),
            "weight": witness.weight,
        },
        "spherePacking": {
            "budget": budget,
            "ballRadius1": ball1,
            "ballRadius2": ball2,
            "maxDistance": max_d,
        },
        "modulus": field.modulus.format(),
    }
    text = [
        f"weight search for m={args.m}, e={args.e} (n={spec.n}, k={spec.k}):",
        f"verdict: {witness.verdict}",
    ]
    if witness.positions is not None:
        text.append(
            f"witness: positions {list(witness.positions)}, "
            f"values {list(witness.values)} (weight {witness.weight})"
        )
    text += [
        f"sphere packing: ball(1) = {ball1} vs budget 3^(n-k) = {budget} "
        f"-> {'fits' if ball1 <= budget else 'exceeds'}",
        f"                ball(2) = {ball2} -> "
        f"{'fits' if ball2 <= budget else 'exceeds'}",
        f"largest distance the bound allows: {max_d}",
    ]
    if witness.verdict == "no_word_below_4" and max_d == 4:
        text.append("distance is exactly 4: no word below 4, and the bound caps d at 4")
    return 0, payload, text


def _cmd_factor(args):
    # argparse 3.11 drops an option value of exactly "--" and stores []
    poly = parse_poly("--" if args.poly == [] else args.poly)
    fac = factor(poly)
    payload = {
        "input": poly.format(),
        "degree": poly.degree,
        "unit": fac.unit,
        "factors": [
            {"poly": p.format(), "degree": p.degree, "multiplicity": mult}
            for p, mult in fac.factors
        ],
        "irreducible": len(fac.factors) == 1
        and fac.factors[0][1] == 1
        and fac.factors[0][0].degree == poly.degree,
    }
    text = [f"{poly.format()} ="]
    parts = [] if fac.unit == 1 else [str(fac.unit)]
    for p, mult in fac.factors:
        parts.append(f"({p.format()})" + (f"^{mult}" if mult > 1 else ""))
    text.append("  " + (" * ".join(parts) if parts else "1"))
    return 0, payload, text


def _cmd_identities(args):
    from .identities import run_all

    checks = run_all()
    payload = {
        "checks": [
            {
                "id": c.check_id,
                "status": c.status,
                "lhsDegree": c.lhs.degree,
                "unit": c.unit,
                "detail": c.detail,
            }
            for c in checks
        ],
        "allPass": all(c.passed for c in checks),
    }
    width = max(len(c.check_id) for c in checks)
    text = [f"{'check':{width}}  status  deg  unit"]
    for c in checks:
        unit = "-" if c.unit is None else str(c.unit)
        line = f"{c.check_id:{width}}  {c.status:6}  {c.lhs.degree:3}  {unit}"
        if c.detail:
            line += f"  {c.detail}"
        text.append(line)
    n_pass = sum(c.passed for c in checks)
    text.append(f"{n_pass} of {len(checks)} checks pass")
    return (0 if n_pass == len(checks) else 1), payload, text


def _cmd_search(args):
    field = build_field(args.m)
    n = field.order
    # n - 1 = 1 at m = 1, so the default range is then 1..1, with no even e
    lo, hi = args.e_range if args.e_range else (min(2, n - 1), n - 1)
    if not 1 <= lo <= hi <= n - 1:
        raise ValueError(f"e-range A..B needs 1 <= A <= B <= {n - 1}, got {lo}..{hi}")
    # one report per class leader, ascending, so the optimal leaders come
    # sorted
    reports = conditions.verify_search(field, lo, hi)
    optimal = [rep for rep in reports if rep.verdict == "optimal"]
    payload = {
        "m": args.m,
        "eRange": [lo, hi],
        "evaluatedCosetLeaders": len(reports),
        "optimal": [
            {"e": r.e, "h": r.h, "parameters": r.parameters_json}
            for r in optimal
        ],
        "modulus": field.modulus.format(),
    }
    text = [
        f"search over even e in [{lo}, {hi}] at m={args.m} "
        f"({len(reports)} coset leaders evaluated):"
    ]
    for rep in optimal:
        h = f" (e = 3^{rep.h}+5)" if rep.h is not None else ""
        text.append(f"  e = {rep.e}{h}: optimal {list(rep.parameters)}")
    text.append(f"{len(optimal)} optimal coset leaders")
    return 0, payload, text


def _parse_m_list(text: str) -> list[int]:
    try:
        ms = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad m-list {text!r}")
    if not ms:
        raise argparse.ArgumentTypeError(f"m-list {text!r} names no m")
    seen = set()
    for m in ms:
        if m in seen:
            raise argparse.ArgumentTypeError(f"m-list repeats m={m}")
        seen.add(m)
    return ms


def _parse_e_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"e-range must look like A..B, got {text!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad e-range {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyc3",
        description="Construct ternary two-nonzero cyclic codes and certify "
        "their optimality by exact computation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument(
            "--format", choices=formats, default="text", help="output format"
        )
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        return p

    p = add("field-info", _cmd_field_info, "describe GF(3^m) and its modulus")
    p.add_argument("--m", type=int, required=True)

    p = add("coset", _cmd_coset, "cyclotomic coset of j mod p^m-1")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = add("minpoly", _cmd_minpoly, "minimal polynomial of generator^i")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i", type=int, required=True)

    p = add("code", _cmd_code, "build the code and report its parameters")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=int, required=True)

    p = add(
        "verify",
        _cmd_verify,
        "certify optimality of one (m, e)",
        formats=("text", "json", "csv-row"),
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=int, required=True)

    p = add(
        "family",
        _cmd_family,
        "verify a whole exponent family",
        formats=("text", "json", "csv-row"),
    )
    p.add_argument("--name", required=True, choices=FAMILIES)
    p.add_argument("--m-list", type=_parse_m_list, required=True)

    p = add("mindist", _cmd_mindist, "brute-force search for weight <= 3")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=int, required=True)

    p = add("factor", _cmd_factor, "factor a polynomial over GF(3)")
    p.add_argument(
        "--poly",
        required=True,
        help="polynomial, e.g. 'x^6-x^5+x^3+1' or '1,0,0,1,0,2,1'; give "
        "text with a leading minus as --poly=TEXT, e.g. --poly=-x^2-1",
    )

    add("identities", _cmd_identities, "run the symbolic identity suite")

    p = add("search", _cmd_search, "scan even exponents for optimal codes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--e-range",
        type=_parse_e_range,
        metavar="A..B",
        help="inclusive exponent range (default: the whole group)",
    )

    return parser


def _emit(args, payload, text_lines, elapsed: float) -> None:
    if args.format == "json":
        if args.command != "verify":  # verify prints the bare report schema
            payload = dict(command=args.command, artifactVersion=__version__, **payload)
        out = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv-row":
        import csv

        # a bare verify report is one row, a family payload one row per
        # instance; every row has the columns of the first
        rows = [_csv_row(obj) for obj in payload.get("instances", [payload])]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=rows[0], lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = "\n".join(text_lines + [f"elapsed: {elapsed:.2f}s"]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:  # an --out FILE that cannot be written is a usage error too
        code, payload, text_lines = args.func(args)
        _emit(args, payload, text_lines, time.perf_counter() - t0)
    except (ValueError, OSError) as exc:  # PolyParseError, ConjugateExponentError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code
