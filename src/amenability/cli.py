"""Command-line front door; all output is seeded, exact, and reproducible.

Numbers in reports are exact rationals serialized as "num/den" strings;
floats appear only in sampling metadata (stderr bounds, runtimes).  The
default seed is a fixed constant, so identical invocations produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import acceptance
from .errors import AmenabilityError
from .folner import set_report, subspace_report, subspace_to_function
from .groups import ball, base_point, family_generate, parse_group
from .linalg import RATIONALS, FieldSpec, _encode_label, subspace_from_json
from .matroid import SubspaceMatroid, enumerate_bases, initial_basis
from .profile import iso_family_upper, iso_set_exact, phi_from_table
from .steiner import angles_from_hits, estimate_steiner

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 4096


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(doc: dict, out_path) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _load_subspace_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return subspace_from_json(json.load(fh))


def _report_doc(report) -> dict:
    return {
        "subject": report.subject,
        "size": report.size,
        "per_generator": {k: RATIONALS.format_scalar(v) for k, v in report.per_generator.items()},
        "union_ratio": RATIONALS.format_scalar(report.union_ratio),
        "union_size": report.union_size,
        "epsilon": RATIONALS.format_scalar(report.epsilon),
    }


def _cmd_steiner(args) -> int:
    space = _load_subspace_file(args.input)
    M = SubspaceMatroid(space)
    est = estimate_steiner(M, args.samples, args.seed)
    doc = {
        "labels": [_encode_label(l) for l in est.labels],
        "vector": [RATIONALS.format_scalar(x) for x in est.vector],
        "l1": RATIONALS.format_scalar(est.l1()),
        "samples": est.samples,
        "seed": est.seed,
        "stderr_bound": est.stderr_bound,
    }
    if args.angles:
        angles = angles_from_hits(M, est.per_vertex_hits, est.samples)
        doc["angles"] = [
            {"basis": [_encode_label(l) for l in b], "weight": RATIONALS.format_scalar(w)}
            for b, w in angles.items()
        ]
    _dump_json(doc, args.out)
    return 0


def _cmd_matroid(args) -> int:
    space = _load_subspace_file(args.input)
    M = SubspaceMatroid(space)
    doc = {
        "rank": M.rank,
        "ambient": len(M.labels),
        "initial_basis": list(initial_basis(M)),
    }
    if args.bases:
        doc["bases"] = [list(b) for b in enumerate_bases(M, cap=args.cap)]
        doc["count"] = len(doc["bases"])
    _dump_json(doc, args.out)
    return 0


def _parse_gens(action, raw):
    if not raw:
        return list(action.generators)
    return [g.strip() for g in raw.split(",") if g.strip()]


def _cmd_folner(args) -> int:
    action = parse_group(args.group)
    gens = _parse_gens(action, args.gens)
    field = FieldSpec(args.field)
    obj = family_generate(args.family, args.n, field if args.family.endswith("span") else None)
    if args.family.endswith("span"):
        report = subspace_report(obj, gens, action)
        doc = {"kind": args.family, "n": args.n, "field": field.characteristic,
               "report": _report_doc(report)}
        if args.samples:
            witness = subspace_to_function(obj, gens, action, args.samples, args.seed)
            doc["certificates"] = {
                k: RATIONALS.format_scalar(v) for k, v in witness.certificates.items()
            }
            doc["sampled_ratios"] = {
                k: RATIONALS.format_scalar(v) for k, v in witness.sampled_ratios.items()
            }
            doc["tolerance"] = witness.tolerance
            doc["samples"] = args.samples
    else:
        report = set_report(obj, gens, action)
        doc = {"kind": args.family, "n": args.n, "report": _report_doc(report)}
    doc["seed"] = args.seed
    _dump_json(doc, args.out)
    return 0


def _cmd_profile(args) -> int:
    action = parse_group(args.group)
    gens = _parse_gens(action, args.gens)
    if args.mode == "exact":
        window = ball(action, base_point(action), args.window_radius)
        table = iso_set_exact(action, window, gens, args.vmax)
    else:
        field = FieldSpec(args.field) if args.family.endswith("span") else None
        table = iso_family_upper(args.family, range(1, args.nmax + 1), gens, action, field)
    if args.format == "json":
        doc = {
            "mode": table.mode,
            "window": table.window,
            "rows": [
                {"v": r.v, "ratio": RATIONALS.format_scalar(r.ratio),
                 "witness": _witness_str(r.witness)}
                for r in table.rows
            ],
        }
        if args.phi:
            doc["phi"] = {str(n): phi_from_table(table, n) for n in range(1, args.phi + 1)}
        _dump_json(doc, args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["v", "ratio_num", "ratio_den", "witness"])
        for r in table.rows:
            ratio = Fraction(r.ratio)
            writer.writerow([r.v, ratio.numerator, ratio.denominator, _witness_str(r.witness)])
        _emit(buf.getvalue(), args.out)
    return 0


def _witness_str(witness) -> str:
    if isinstance(witness, tuple) and len(witness) == 2 and isinstance(witness[0], str):
        return f"{witness[0]}:{witness[1]}"
    return ";".join(str(x) for x in witness)


def _cmd_verify(args) -> int:
    only = None
    if args.only:
        only = [int(x) for x in args.only.split(",")]
    results = acceptance.run_all(only=only)
    for res in results:
        print(acceptance.format_result(res))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amen",
        description="Folner sets, almost invariant subspaces, Steiner points, profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steiner", help="estimate the Steiner point of a subspace matroid")
    p.add_argument("--input", required=True, help="subspace JSON file")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--angles", action="store_true", help="include exterior angles")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_steiner)

    p = sub.add_parser("matroid", help="inspect the column matroid of a subspace")
    p.add_argument("--input", required=True)
    p.add_argument("--bases", action="store_true", help="enumerate all bases")
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_matroid)

    p = sub.add_parser("folner", help="boundary-ratio report for a built-in family")
    p.add_argument("--group", required=True, help="Z | Z^d | lamplighter | free:k | perm:file")
    p.add_argument("--family", required=True, help="lamp-box | lamp-span | z-interval | z-interval-span")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", default=None, help="comma-separated generator names")
    p.add_argument("--field", type=int, default=2, help="0 for the rationals, else a prime")
    p.add_argument("--samples", type=int, default=0, help="also sample a function witness")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_folner)

    p = sub.add_parser("profile", help="isoperimetric profile tables")
    p.add_argument("--group", required=True)
    p.add_argument("--gens", default=None)
    p.add_argument("--mode", choices=["exact", "family"], default="family")
    p.add_argument("--window-radius", type=int, default=5)
    p.add_argument("--vmax", type=int, default=8)
    p.add_argument("--family", default="z-interval")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--phi", type=int, default=0, help="also tabulate Phi(1..k) (json only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("verify", help="run the built-in acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_verify)

    return parser


def _fail(kind: str, exc: Exception) -> int:
    doc = {"error": {"type": kind, "message": str(exc)}}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AmenabilityError as exc:
        return _fail(exc.__class__.__name__, exc)
    except FileNotFoundError as exc:
        return _fail("FileNotFound", exc)
    except (json.JSONDecodeError, ValueError) as exc:
        return _fail("BadInput", exc)


if __name__ == "__main__":
    sys.exit(main())
