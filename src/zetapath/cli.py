"""Command-line entry point: verification suites, point evaluators, path
and trace runners.  Every subcommand emits JSON (or JSON lines); exit code
0 means all checks passed, 1 means a failure, 2 a usage error."""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import ZetaPathError
from .etaengine import (
    avatar_eval, dedekind_eta, identity_residuals, j_fricke, lambda_fn,
    sigma, tau, z_eval_from_seed,
)
from .exactquad import run_symbolic_suite
from .sl2z import SHIFT_AVATAR, SHIFT_WORD, load_table, mobius
from .tracer import MAX_M, run_experiment, trace
from .treepath import build_path, find_c
from .zetafn import find_zeros, load_zeros


def _complex_json(obj: object) -> dict:
    # json's hook for values it cannot encode: a complex becomes
    # {"re", "im"}, anything else is refused as json refuses it
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def _dumps(obj: dict) -> str:
    return json.dumps(obj, default=_complex_json)


def _point(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a point as re,im (got {text!r})") from exc


def _emit_json(obj: dict, emit: str | None) -> None:
    text = _dumps(obj)
    if emit:
        Path(emit).write_text(text + "\n")
    else:
        print(text)


def _fail(exc: Exception) -> int:
    print(_dumps({"error": type(exc).__name__, "message": str(exc)}))
    return 1


def _cmd_verify_symbolic(args: argparse.Namespace) -> int:
    report = run_symbolic_suite()
    _emit_json(report, args.emit)
    return 0 if report["ok"] else 1


def _cmd_verify_cosets(args: argparse.Namespace) -> int:
    report = load_table().verify()
    _emit_json(report, args.emit)
    return 0 if report["ok"] else 1


_PLAIN_FNS = {"eta": dedekind_eta, "tau": tau, "lambda": lambda_fn,
              "sigma": sigma, "j": j_fricke}


def _cmd_eval(args: argparse.Namespace) -> int:
    z = args.z
    out: dict = {"fn": args.fn, "z": z}
    if args.fn in _PLAIN_FNS:
        out["value"] = _PLAIN_FNS[args.fn](z)
        out["residuals"] = identity_residuals(z)
    else:
        if args.fn == "avatar":
            if args.n is None:
                raise ValueError("--n is required for fn=avatar")
            z = mobius(load_table().rep(args.n), z)
            out["n"] = args.n
        value = z_eval_from_seed(z)
        out["value"] = value
        out["residuals"] = identity_residuals(z, branch_value=value)
    _emit_json(out, args.emit)
    return 0


def _cmd_find_c(args: argparse.Namespace) -> int:
    c = find_c()
    _emit_json({"theta_c": cmath.phase(c), "c": c, "j_c": j_fricke(c),
                "abs_avatar41_at_c": abs(avatar_eval(SHIFT_AVATAR, c))},
               args.emit)
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    path = build_path(args.word, samples=args.samples)
    if args.emit:
        with open(args.emit, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re_z", "im_z"])
            for k in range(path.samples + 1):
                t = k / path.samples
                z = path.point(t)
                writer.writerow([f"{t:.9f}", repr(z.real), repr(z.imag)])
    print(_dumps({
        "word": path.word, "edges": len(path.edges), "theta_c": path.theta_c,
        "max_vertex_mismatch": path.max_vertex_mismatch,
        "start": path.start, "endpoint": path.endpoint,
        "samples": path.samples, "emitted": args.emit}))
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    zl = find_zeros(args.count)
    out: dict = {"count": len(zl), "source": zl.source,
                 "ordinates": list(zl.ordinates)}
    code = 0
    if args.check:
        ref = load_zeros(args.check)
        if not ref.ordinates:
            raise ValueError(f"{args.check} has no ordinates to compare")
        compared = min(len(zl), len(ref))
        worst = max(abs(a - b) for a, b in
                    zip(zl.ordinates[:compared], ref.ordinates[:compared]))
        ok = worst < 1e-6
        out["check"] = {"file": args.check, "compared": compared,
                        "max_delta": worst, "ok": ok}
        code = 0 if ok else 1
    _emit_json(out, args.emit)
    return code


def _cmd_trace(args: argparse.Namespace) -> int:
    rec = trace(args.m, path=build_path(SHIFT_WORD, samples=args.samples),
                zeros=load_zeros(args.zeros_file) if args.zeros_file else None)
    _emit_json(asdict(rec), args.emit)
    return 0 if rec.landed else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    summary = run_experiment(
        args.max_m, path=build_path(SHIFT_WORD, samples=args.samples),
        zeros=load_zeros(args.zeros_file) if args.zeros_file else None)
    lines = [_dumps(asdict(rec)) for rec in summary.records]
    if args.emit:
        Path(args.emit).write_text("".join(line + "\n" for line in lines))
    else:
        for line in lines:
            print(line)
    print(_dumps({"summary": {
        "max_m": args.max_m, "success_count": summary.success_count,
        "errors": [e._asdict() for e in summary.errors],
        "max_residual": summary.max_residual, **summary.totals,
        "wall_time": summary.wall_time, "emitted": args.emit}}))
    ok = summary.success_count == args.max_m and not summary.errors
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetapath",
        description="Exact and numerical toolkit for the level-15 avatar "
                    "orbit and the zero-to-zero continuation experiment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-symbolic", help="run the exact identity suite")
    p.add_argument("--emit", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_verify_symbolic)

    p = sub.add_parser("verify-cosets", help="run the exact coset-table suite")
    p.add_argument("--emit", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_verify_cosets)

    p = sub.add_parser("eval", help="evaluate a modular function at a point")
    p.add_argument("--fn", required=True,
                   choices=["eta", "tau", "lambda", "sigma", "j", "Z",
                            "avatar"])
    p.add_argument("--z", required=True, type=_point, metavar="RE,IM")
    p.add_argument("--n", type=int, help="avatar index (fn=avatar)")
    p.add_argument("--emit", help="write the JSON result to this file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("find-c", help="locate the marked point on the arc")
    p.add_argument("--emit", help="write the JSON result to this file")
    p.set_defaults(func=_cmd_find_c)

    p = sub.add_parser("path", help="build an edge path and sample it")
    p.add_argument("--word", default=SHIFT_WORD)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--emit", help="write t,re_z,im_z samples as CSV")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("zeros", help="compute critical-line zeros")
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--check", help="compare against an ordinate file")
    p.add_argument("--emit", help="write the JSON result to this file")
    p.set_defaults(func=_cmd_zeros)

    for name, help_text in (("trace", "continue one zero along the path"),
                            ("experiment", "run the m-sweep experiment")):
        p = sub.add_parser(name, help=help_text)
        if name == "trace":
            p.add_argument("--m", type=int, default=1)
        else:
            p.add_argument("--max-m", type=int, required=True)
        p.add_argument("--samples", type=int, default=2000)
        p.add_argument("--zeros-file", help="ordinate file instead of "
                                            "computed zeros")
        p.add_argument("--emit", help="write JSON-line records to this file")
        p.set_defaults(func=_cmd_trace if name == "trace"
                       else _cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "experiment" and not 0 <= args.max_m <= MAX_M:
        print(f"--max-m must be between 0 and {MAX_M}", file=sys.stderr)
        return 2
    if args.command == "trace" and not 1 <= args.m <= MAX_M:
        print(f"--m must be between 1 and {MAX_M}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader has gone: print nothing more, not even at exit's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ZetaPathError, ValueError, LookupError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
