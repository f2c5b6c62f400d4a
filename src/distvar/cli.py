"""Command-line front end: variety extraction, certification runs, demo.

Exit codes: 0 all pass, 1 some check failed, 2 invalid input,
3 inconclusive-only differences.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .certify import VarietySamples
from .dilation import construct_psi
from .errors import DistvarError, malformed
from .inner import distinguished_certificate, variety_polynomial
from .instances import (
    Instance,
    InstanceSpec,
    make_instance,
    random_recipe,
    run_certification,
)
from .report import FAIL, INCONCLUSIVE
from .serialize import (
    bundle_to_json,
    complex_from_json,
    dump_json,
    load_json,
    multiplicity_from_json,
    pair_from_json,
    psi_from_json,
    psi_to_json,
    variety_to_json,
    write_samples_csv,
    write_variety_svg,
)
from .tolerances import DEFAULT


def _count(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"needs N >= 0, got {n}")
    return n


def _tolerances(items):
    overrides = {}
    for item in items or []:
        key, _, val = item.partition("=")
        if key not in DEFAULT.as_dict():
            raise ValueError(f"unknown tolerance {key!r}")
        overrides[key] = float(val)
        if not 0.0 <= overrides[key] < np.inf:
            raise ValueError(f"tolerance {key} must be finite and nonnegative")
    if overrides.get("rank_guard") == 0.0:
        raise ValueError("tolerance rank_guard divides a threshold and must be positive")
    return DEFAULT.override(**overrides)


def _fail_invalid(message):
    print(json.dumps({"error": message}, sort_keys=True))
    return 2


def _write_report(report, out_dir, fmt):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report.instance_id}-report.json")
    dump_json(report.to_dict(), path)
    if fmt == "csv":
        lines = ["name,anchor,status,margin"]
        for e in report.entries:
            lines.append(f"{e.name},{e.anchor},{e.status},{e.margin!r}")
        with open(os.path.join(out_dir, f"{report.instance_id}-entries.csv"), "w") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    return path


def cmd_variety(args, tol):
    psi = psi_from_json(load_json(args.psi), tol=tol)
    variety = variety_polynomial(psi)
    cert = distinguished_certificate(psi, tol=tol)
    os.makedirs(args.out, exist_ok=True)
    payload = variety_to_json(variety)
    payload["distinguished"] = cert.to_dict()
    payload["psi"] = psi_to_json(psi)
    dump_json(payload, os.path.join(args.out, "variety.json"))
    samples = VarietySamples(variety, min(args.boundary_samples, 512))
    write_samples_csv(os.path.join(args.out, "variety-samples.csv"), samples, variety.p)
    write_variety_svg(os.path.join(args.out, "variety.svg"), samples)
    print(json.dumps({
        "p_coeffs_shape": list(variety.p.coeffs.shape),
        "distinguished": cert.status,
        "out": args.out,
    }, sort_keys=True))
    return 0 if cert.status == "pass" else 1


def _recipe_spec(obj, args):
    with malformed("recipe"):
        theta_zeros = obj["theta_zeros"]
        psi_spec, seed = {**obj["psi"]}, int(obj.get("seed", args.seed))
    with malformed("recipe theta_zeros"):
        zeros = tuple(
            (complex_from_json(z["point"]), multiplicity_from_json(z)) for z in theta_zeros
        )
    return InstanceSpec(
        theta_zeros=zeros,
        psi_spec=psi_spec,
        seed=seed,
        boundary_n=args.boundary_samples,
    )


def _instances(args, tol):
    """The instances of one certify run, built one at a time in run order."""
    if args.batch:
        for k in range(args.batch):
            spec = replace(random_recipe(args.seed + k), boundary_n=args.boundary_samples)
            yield make_instance(spec, tol)
    elif args.recipe:
        yield make_instance(_recipe_spec(load_json(args.recipe), args), tol)
    elif args.pair:
        pair = pair_from_json(load_json(args.pair), tol=tol)
        if args.psi:
            psi = psi_from_json(load_json(args.psi), tol=tol)
        else:
            psi = construct_psi(pair, tol=tol)
        name = os.path.splitext(os.path.basename(args.pair))[0]
        spec = InstanceSpec(
            theta_zeros=(), psi_spec={"kind": "supplied"}, seed=args.seed,
            boundary_n=args.boundary_samples, label=f"pair[{name}]",
        )
        yield Instance(spec=spec, theta=None, psi=psi, pair=pair)
    else:
        raise ValueError("one of --pair, --recipe, --batch is required")


def cmd_certify(args, tol):
    reports = []
    for inst in _instances(args, tol):
        artifacts = {}
        reports.append(run_certification(inst, tol=tol, artifacts=artifacts))
        # a batch writes reports only; a single instance also its bundle
        if "bundle" in artifacts and not args.batch:
            os.makedirs(args.out, exist_ok=True)
            dump_json(
                bundle_to_json(artifacts["bundle"]),
                os.path.join(args.out, f"{inst.spec.instance_id}-bundle.json"),
            )

    paths = [_write_report(r, args.out, args.format) for r in reports]
    summary = {
        "instances": len(reports),
        "pass": sum(1 for r in reports if r.overall == "pass"),
        "fail": sum(1 for r in reports if r.overall == FAIL),
        "inconclusive": sum(1 for r in reports if r.overall == INCONCLUSIVE),
        "reports": [os.path.basename(p) for p in paths],
    }
    dump_json(summary, os.path.join(args.out, "summary.json"))
    print(json.dumps(summary, sort_keys=True))
    if summary["fail"]:
        return 1
    if summary["inconclusive"]:
        return 3
    return 0


def cmd_demo(args, tol):
    """End-to-end walkthrough on the curve w^2 = z."""
    spec = InstanceSpec(
        theta_zeros=((0j, 2),),
        psi_spec={"kind": "companion", "d": 2},
        seed=args.seed,
        boundary_n=args.boundary_samples,
    )
    inst = make_instance(spec, tol)
    artifacts = {}
    report = run_certification(inst, tol=tol, artifacts=artifacts)
    os.makedirs(args.out, exist_ok=True)
    variety = artifacts["variety"]
    payload = variety_to_json(variety)
    payload["psi"] = psi_to_json(inst.psi)
    dump_json(payload, os.path.join(args.out, "demo-variety.json"))
    samples = VarietySamples(variety, 256)
    write_samples_csv(os.path.join(args.out, "demo-samples.csv"), samples, variety.p)
    write_variety_svg(os.path.join(args.out, "demo-variety.svg"), samples)
    path = _write_report(report, args.out, args.format)
    print(json.dumps({
        "instance": report.instance_id,
        "seed": report.seed,
        "overall": report.overall,
        "report": os.path.basename(path),
    }, sort_keys=True))
    return report.exit_code()


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print usage and exit, so that
    main reports a rejected flag as a JSON error; subcommands use it too."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    ap = _Parser(
        prog="distvar",
        description="distinguished-variety certificates for commuting matrix pairs",
    )
    ap.add_argument("--tol", action="append", metavar="NAME=VALUE",
                    help="tolerance override (repeatable); it applies to every "
                         "check, among them symbol files, the variety fit and "
                         "the co-extension's defect cut")
    ap.add_argument("--boundary-samples", type=int, default=2048,
                    help="points of the boundary grids")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out")
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("variety", help="variety polynomial and certificate from a symbol file")
    v.add_argument("psi", help="symbol JSON file")
    v.set_defaults(func=cmd_variety)

    c = sub.add_parser("certify", help="full certification pipeline")
    c.add_argument("--pair", help="pair JSON file")
    c.add_argument("--psi", help="symbol JSON file to accept (otherwise constructed)")
    c.add_argument("--recipe", help="instance recipe JSON file")
    c.add_argument("--batch", type=_count, default=0, help="run N seeded random recipes")
    c.set_defaults(func=cmd_certify)

    d = sub.add_parser("demo", help="worked walkthrough on the curve w^2 = z")
    d.set_defaults(func=cmd_demo)
    return ap


def main(argv=None):
    """Run one command.  Invalid input, including a file or value that a
    library check rejects, prints a JSON error and returns 2."""
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:
        return _fail_invalid(str(exc))
    try:
        tol = _tolerances(args.tol)
    except ValueError as exc:
        return _fail_invalid(f"invalid --tol: {exc}")
    if args.boundary_samples < 64:
        return _fail_invalid(
            f"invalid --boundary-samples {args.boundary_samples}: needs N >= 64")
    try:
        return args.func(args, tol)
    except (OSError, ValueError, KeyError) as exc:
        return _fail_invalid(str(exc))
    except DistvarError as exc:
        return _fail_invalid(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
