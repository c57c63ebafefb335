"""Command-line front end.

Subcommands map onto the library modules; outputs are deterministic JSON
and CSV (same seed, same bytes, any worker count). Exit codes: 0 success,
1 a verified inequality or property was violated, 2 configuration errors.

A flat key=value config file can seed any subcommand's flags; explicit
flags win. FPPLAB_WORKERS caps the worker pool from the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from . import averaging, experiments, funcineq, neargamma, reporting
from .distributions import parse_spec, truncate
from .errors import FppLabError, ResourceGuardError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="flat key=value file supplying flag defaults")
    sub.add_argument("--out", help="output file or directory (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpplab",
        description="First passage percolation concentration laboratory",
    )
    parser.add_argument("--version", action="version", version=f"fpplab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser(
        "simulate", help="variance-scaling Monte Carlo run with model comparison"
    )
    sim.add_argument("--dist", required=True, help="edge-time law, e.g. exp:rate=1")
    sim.add_argument("--dim", type=int, default=2, help="lattice dimension (2 or 3)")
    sim.add_argument(
        "--n", default="25,50,100,200", help="comma-separated distances along e1"
    )
    sim.add_argument("--replicas", type=int, default=2000, help="replicas per n")
    sim.add_argument("--seed", type=int, default=0, help="master seed")
    sim.add_argument(
        "--m-policy",
        default="none",
        help="offset bound m that widens the box's transverse margin: none, auto "
        "(ceil(n^(1/4))), or an integer; simulate itself solves at m=0",
    )
    sim.add_argument(
        "--margin", type=float, default=0.5, help="box margin factor per side"
    )
    sim.add_argument("--workers", type=int, default=None, help="worker processes")
    sim.add_argument(
        "--format", default="csv,json", help="outputs to write: csv, json or both"
    )
    sim.add_argument("--svg", action="store_true", help="also render an SVG chart")
    _add_common(sim)

    ver = subs.add_parser(
        "verify-ineq", help="exact product-space inequality suite on random tables"
    )
    ver.add_argument("--n", type=int, required=True, help="coordinate count (<= 20)")
    ver.add_argument(
        "--p", default="0.5", help="Bernoulli parameter(s), comma separated"
    )
    ver.add_argument("--tables", type=int, default=100, help="number of tables")
    ver.add_argument("--seed", type=int, default=0, help="master seed")
    _add_common(ver)

    cls = subs.add_parser("classify", help="nearly-gamma verdict for a law")
    cls.add_argument("--dist", required=True, help="edge-time law spec")
    _add_common(cls)

    gm = subs.add_parser("gm-check", help="exhaustive level-function property report")
    gm.add_argument("--m", type=int, required=True, help="side parameter (m <= 4)")
    _add_common(gm)

    tr = subs.add_parser(
        "truncate-check", help="verify the bounded-support modification of a law"
    )
    tr.add_argument("--dist", required=True, help="continuous base law spec")
    tr.add_argument("--k", type=int, required=True, help="truncation index (>= 2)")
    tr.add_argument("--c5", type=float, required=True, help="truncation scale constant")
    tr.add_argument("--grid", type=int, default=10000, help="CDF comparison grid size")
    _add_common(tr)

    rep = subs.add_parser(
        "report", help="re-run the config embedded in a JSON report"
    )
    rep.add_argument("--from", dest="source", required=True, help="existing report.json")
    rep.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the regenerated report matches byte for byte",
    )
    _add_common(rep)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config as flags so real flags override."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = Path(argv[idx + 1])
    if not path.is_file():
        raise FppLabError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FppLabError(f"cannot read config file {path}: {exc}") from exc
    extra: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FppLabError(f"malformed config line: {line!r}")
        key, val = line.split("=", 1)
        extra.extend([f"--{key.strip()}", val.strip()])
    # insert right after the subcommand so explicit flags still win
    return argv[:1] + extra + argv[1:]


def _numbers(text: str, kind, flag: str) -> list:
    """A comma-separated list of numbers from a flag value."""
    try:
        return [kind(x) for x in str(text).split(",") if x]
    except ValueError:
        raise FppLabError(
            f"{flag} takes comma-separated {kind.__name__} values, got {text!r}"
        ) from None


def _emit(doc: dict, out: str | None, default_name: str) -> None:
    text = reporting.dumps(doc)
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    if path.is_dir() or out.endswith("/"):
        path.mkdir(parents=True, exist_ok=True)
        path = path / default_name
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _cmd_simulate(args) -> int:
    formats = {f.strip() for f in args.format.split(",") if f.strip()}
    unknown = formats - {"csv", "json"}
    if unknown:
        raise FppLabError(f"unknown output format(s): {sorted(unknown)}")
    if not formats:
        raise FppLabError(
            f"--format names no output, got {args.format!r}: use csv, json or both"
        )
    cfg = experiments.ExperimentConfig(
        dist_spec=args.dist,
        dim=args.dim,
        n_list=tuple(_numbers(args.n, int, "--n")),
        replicas=args.replicas,
        master_seed=args.seed,
        m_policy=args.m_policy,
        margin_factor=args.margin,
        workers=args.workers,
    )
    doc = experiments.full_report(cfg)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = doc["rows"]
    if "csv" in formats:
        reporting.write_csv(
            experiments.SCALING_CSV_HEADER,
            [[r[k] for k in experiments.SCALING_CSV_HEADER] for r in rows],
            out_dir / "scaling.csv",
        )
    if "json" in formats:
        reporting.write_json(doc, out_dir / "report.json")
    if args.svg:
        ns = [r["n"] for r in rows]
        reporting.write_svg_lines(
            out_dir / "scaling.svg",
            ns,
            {
                "var/n": [r["var"] / r["n"] for r in rows],
                "mean/n": [r["mean"] / r["n"] for r in rows],
            },
            title="passage time scaling",
            x_label="n",
            y_label="value",
        )
    return EXIT_OK


def _cmd_verify_ineq(args) -> int:
    ps = _numbers(args.p, float, "--p")
    report = funcineq.run_random_suite(
        n_tables=args.tables,
        ns=(args.n,),
        ps=ps,
        seed=args.seed,
    )
    doc = {
        "version": __version__,
        "config": {"n": args.n, "p": ps, "tables": args.tables, "seed": args.seed},
        "result": report,
    }
    _emit(doc, args.out, "verify-ineq.json")
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_classify(args) -> int:
    verdict = neargamma.classify_nearly_gamma(parse_spec(args.dist))
    doc = {
        "version": __version__,
        "config": {"dist": args.dist},
        "verdict": verdict.summary(),
    }
    # bound can be rendered infinite on failure; encode as null plus flag
    if not verdict.direct_pass:
        doc["verdict"]["bound_a"] = None
    _emit(doc, args.out, "classify.json")
    return EXIT_OK


def _cmd_gm_check(args) -> int:
    report = averaging.verify_averaging_properties(args.m)
    doc = {
        "version": __version__,
        "config": {"m": args.m},
        "report": report,
    }
    _emit(doc, args.out, "gm-check.json")
    ok = report.gradient_ok and report.level_bound_ok and report.bijection_ok
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_truncate_check(args) -> int:
    nu_k = truncate(parse_spec(args.dist), args.k, args.c5)
    check = nu_k.domination_check(args.grid)
    doc = {
        "version": __version__,
        "config": {"dist": args.dist, "k": args.k, "c5": args.c5, "grid": args.grid},
        "report": {
            "cut": nu_k.cut,
            "top": nu_k.top,
            "tail_mass": nu_k.tail_mass,
            "dominates": check.dominates,
            **check._asdict(),
        },
    }
    _emit(doc, args.out, "truncate-check.json")
    return EXIT_OK if check.dominates else EXIT_VIOLATION


def _first_difference(a, b, path: str = ""):
    """The JSON path of the first place two parsed documents differ, with
    the value at that path in each; None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return sub, a.get(key, "<missing>"), b.get(key, "<missing>")
            diff = _first_difference(a[key], b[key], sub)
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        if len(a) != len(b):
            return f"{path}.length", len(a), len(b)
        return None
    if type(a) is not type(b) or a != b:
        return path or "<root>", a, b
    return None


def _mismatch_message(regenerated: str, original: str) -> str:
    import numpy
    import scipy

    doc, file_doc = json.loads(regenerated), json.loads(original)
    fmt = file_doc.get("format", 1)  # format 1 reports carry no key
    diff = _first_difference(doc, file_doc)
    if fmt != doc["format"]:
        where = f"format {fmt} report; regenerate it"
    elif diff is None:
        where = "the documents parse equal; only their formatting differs"
    else:
        path, new, old = diff
        where = f"first difference at {path}: regenerated {new!r}, file {old!r}"
    return (
        f"report mismatch: {where} "
        f"(fpplab {__version__}, numpy {numpy.__version__}, scipy {scipy.__version__})"
    )


def _cmd_report(args) -> int:
    source = Path(args.source)
    if not source.is_file():
        raise FppLabError(f"report not found: {source}")
    try:
        original = source.read_text(encoding="utf-8")
        c = json.loads(original)["config"]
        cfg = experiments.ExperimentConfig(
            dist_spec=c["dist_spec"],
            dim=c["dim"],
            n_list=tuple(c["n_list"]),
            replicas=c["replicas"],
            master_seed=c["master_seed"],
            m_policy=c["m_policy"],
            margin_factor=c["margin_factor"],
        )
    # bad UTF-8 and JSON are ValueErrors; FppLabError is a config that fails its checks
    except (KeyError, TypeError, ValueError, FppLabError) as exc:
        raise FppLabError(
            f"{source} is not a report with a readable embedded config: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    regenerated = reporting.dumps(experiments.full_report(cfg))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(regenerated, encoding="utf-8")
    else:
        sys.stdout.write(regenerated)
    if args.check and regenerated != original:
        print(_mismatch_message(regenerated, original), file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "verify-ineq": _cmd_verify_ineq,
    "classify": _cmd_classify,
    "gm-check": _cmd_gm_check,
    "truncate-check": _cmd_truncate_check,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except ResourceGuardError as exc:
        print(f"fpplab: refusing oversized computation: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FppLabError as exc:
        print(f"fpplab: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
