"""Command-line surface.

Subcommands: ``trank`` (typical-rank set), ``bounds`` (m#n table),
``afcr`` (full-column-rank margin of a pencil tensor), ``certify``
(rank-p decision), ``experiment`` (Monte-Carlo run from a JSON config) and
``make-bilinear`` (construct maps / pencil tensors).

Exit codes: 0 success, 1 Inconclusive under --strict, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bilinear import (
    BilinearMap,
    as_tensor,
    convolve,
    hypercomplex_mult,
    restrict,
)
from .certify import Inconclusive, RankExceedsP, RankP, certify
from .classify import classify
from .hopf import build_bounds_table
from .pencil import TOL_MARGIN, Tensor3, _binary_scaled, is_afcr
from .experiments import ExperimentConfig, run_experiment


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_tensor(path: str) -> Tensor3:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        if "coeffs" in json.loads(text):
            return as_tensor(BilinearMap.from_json(text))
        return Tensor3.from_json(text)
    return Tensor3.from_text(text)


def _cmd_trank(args) -> int:
    result = classify(args.m, args.n, args.p)
    m, n, _ = sorted((args.m, args.n, args.p))
    if args.json:
        payload = {
            "m": args.m, "n": args.n, "p": args.p,
            "kind": result.kind,
            "ranks": result.ranks,
            "condition": result.condition,
            "ranks_if_true": result.ranks_if_true,
            "ranks_if_false": result.ranks_if_false,
            "floor": result.floor,
            "cap": result.cap,
            "provenance": result.provenance,
            "hash_bounds": result.hash_bounds,
        }
        print(json.dumps(payload))
    else:
        print(f"trank({args.m}, {args.n}, {args.p}) = {result.describe()}")
        if result.hash_bounds is not None:
            lo, hi = result.hash_bounds
            print(f"  using {m}#{n} in [{lo}, {hi}]")
    return 0


def _cmd_bounds(args) -> int:
    table = build_bounds_table(args.max)
    if args.json:
        sys.stdout.writelines(table.json_chunks())
        print()
    else:
        print(f"# m n lower upper lower_rule upper_rule (max_dim={table.max_dim})")
        for (m, n), e in sorted(table.entries.items()):
            print(f"{m} {n} {e.lower} {e.upper} {e.lower_rule} {e.upper_rule}")
    return 0


def _cmd_afcr(args) -> int:
    Y = _read_tensor(args.file)
    ok, margin_norm = is_afcr(Y, seed=args.seed)
    scaled, e = _binary_scaled(Y)  # the tensor's own scale, no overflow
    margin = float(np.ldexp(margin_norm * scaled.norm(), e))
    if args.json:
        print(json.dumps({"afcr": ok, "margin": margin,
                          "normalized_margin": margin_norm,
                          "tol": TOL_MARGIN}))
    else:
        label = "AFCR" if ok else "not AFCR"
        print(f"{label}, margin {margin:.6f}")
    return 0


def _verdict_payload(verdict) -> dict:
    if isinstance(verdict, RankP):
        cert = verdict.certificate
        return {
            "verdict": "RankP",
            "p": cert.dims.p,
            "residual": cert.residual,
            "pencil_residual": cert.pencil_residual,
            "points": [[d.tolist(), b.tolist()]
                       for d, b in zip(cert.D, cert.A.T)],
            "A": cert.A.tolist(),
            "D": cert.D.tolist(),
            "N": cert.N.tolist(),
            "Q": cert.Q.tolist(),
            "search": verdict.diagnostics,
        }
    if isinstance(verdict, RankExceedsP):
        roots = verdict.roots
        return {"verdict": "RankExceedsP", "margin": verdict.margin,
                "roots": None if roots is None else {
                    "degree": roots.degree, "real": int(roots.real.sum()),
                    "max_radius": float(roots.radii.max())}}
    return {"verdict": "Inconclusive", "diagnostics": verdict.diagnostics}


def _cmd_certify(args) -> int:
    T = _read_tensor(args.file)
    verdict = certify(T, seed=args.seed)
    payload = _verdict_payload(verdict)
    if args.json:
        print(json.dumps(payload))
    else:
        if isinstance(verdict, RankP):
            print(f"RankP: rank = {verdict.certificate.dims.p}, "
                  f"residual {verdict.certificate.residual:.3e}")
        elif isinstance(verdict, RankExceedsP) and verdict.roots is not None:
            roots = verdict.roots
            print(f"RankExceedsP: {roots.real.sum()} of {roots.degree} "
                  f"rank-drop roots real (p = {T.d2})")
        elif isinstance(verdict, RankExceedsP):
            print(f"RankExceedsP: margin {verdict.margin:.6f}")
        else:
            print(f"Inconclusive: {verdict.diagnostics}")
    if args.strict and isinstance(verdict, Inconclusive):
        return 1
    return 0


def _cmd_experiment(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    except (OSError, ValueError, TypeError, KeyError) as exc:
        return _fail(f"bad config {args.config}: {exc}")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_experiment(cfg)
    print(report.to_json())
    return 0


def _cmd_make_bilinear(args) -> int:
    if args.kind == "cd":
        if args.dim is None:
            return _fail("--kind cd requires --dim")
        f = hypercomplex_mult(args.dim)
    elif args.kind == "convolve":
        if args.base is None or args.m is None or args.n is None:
            return _fail("--kind convolve requires --base, --m and --n")
        with open(args.base) as fh:
            f = convolve(BilinearMap.from_json(fh.read()), args.m, args.n)
    else:  # restrict
        if args.base is None or args.a is None or args.b is None:
            return _fail("--kind restrict requires --base, --a and --b")
        with open(args.base) as fh:
            f = restrict(BilinearMap.from_json(fh.read()), args.a, args.b)
    text = as_tensor(f).to_json() if args.tensor else f.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankatlas",
        description="typical ranks, nonsingular bilinear maps and rank-p "
                    "certification for real 3-tensors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trank = sub.add_parser("trank", help="typical-rank set of m x n x p")
    p_trank.add_argument("m", type=int)
    p_trank.add_argument("n", type=int)
    p_trank.add_argument("p", type=int)
    p_trank.add_argument("--json", action="store_true")
    p_trank.set_defaults(func=_cmd_trank)

    p_bounds = sub.add_parser("bounds", help="dump the m#n bound table")
    p_bounds.add_argument("--max", type=int, required=True)
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_afcr = sub.add_parser("afcr",
                            help="full-column-rank margin of a pencil tensor")
    p_afcr.add_argument("file")
    p_afcr.add_argument("--seed", type=int, default=0)
    p_afcr.add_argument("--json", action="store_true")
    p_afcr.set_defaults(func=_cmd_afcr)

    p_cert = sub.add_parser("certify", help="rank-p decision for a tensor")
    p_cert.add_argument("file")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--strict", action="store_true",
                        help="exit 1 on Inconclusive")
    p_cert.add_argument("--json", action="store_true")
    p_cert.set_defaults(func=_cmd_certify)

    p_exp = sub.add_parser("experiment", help="Monte-Carlo run from a config")
    p_exp.add_argument("config")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_mk = sub.add_parser("make-bilinear",
                          help="construct a bilinear map or pencil tensor")
    p_mk.add_argument("--kind", choices=("cd", "convolve", "restrict"),
                      required=True)
    p_mk.add_argument("--dim", type=int, default=None,
                      help="dimension for --kind cd (1, 2, 4 or 8)")
    p_mk.add_argument("--base", type=str, default=None,
                      help="input map JSON for convolve/restrict")
    p_mk.add_argument("--m", type=int, default=None)
    p_mk.add_argument("--n", type=int, default=None)
    p_mk.add_argument("--a", type=int, default=None)
    p_mk.add_argument("--b", type=int, default=None)
    p_mk.add_argument("--tensor", action="store_true",
                      help="emit the pencil tensor instead of the map")
    p_mk.add_argument("--out", type=str, default=None)
    p_mk.set_defaults(func=_cmd_make_bilinear)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
