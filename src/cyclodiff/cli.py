"""Command line front end.

    tower build                      describe the tower
    tower constants                  measure the numerical constants
    tower verify SUITE|all           run verification suites, exit 0 iff green
    tower decompose                  split an element into its perp series
    tower w2                         secondary valuation of an element
    tower series --op OP             invert or reconstruct a stored series

Tower parameters come from --p/--s/--levels/--prec, or from a JSON config
file via --config (flags override the file).  All commands are deterministic
given the tower description and --seed, and write canonical JSON to --out or
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .completion import (
    perp_series_decompose,
    perp_series_from_json,
    series_invert,
    series_reconstruct,
    w2_valuation,
)
from .constants import cell_rng, estimate_constants
from .errors import DomainError, PadicError, brief
from .harness import (
    CONSTANTS_SAMPLES,
    SUITE_NAMES,
    check_sample_count,
    run_all,
    run_suite,
)
from .reportio import constants_to_report, emit_report, envelope
from .tower import CyclotomicTower, TowerParams

# command-line flag -> the config-file key it overrides
FLAG_KEYS = {"p": "p", "s": "s", "levels": "max_level", "prec": "prec"}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file with p/s/max_level/prec")
    shared.add_argument("--p", type=int, help="the prime (default 3)")
    shared.add_argument("--s", type=int, help="base depth (default: 1 for odd p, 2 for p=2)")
    shared.add_argument("--levels", type=int, help="number of tower levels (default 4)")
    shared.add_argument("--prec", type=int, help="working precision in p-exponents (default 60)")
    shared.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    shared.add_argument("--out", help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="tower", description="exact arithmetic lab for cyclotomic towers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[shared], help="emit the tower description")

    cons = sub.add_parser(
        "constants", parents=[shared], help="measure the numerical constants"
    )
    cons.add_argument("--samples", type=int, default=1000, help="random units per cell")

    ver = sub.add_parser("verify", parents=[shared], help="run verification suites")
    ver.add_argument("suite", choices=SUITE_NAMES + ("all",))
    ver.add_argument("--samples", type=int, help="override the suite sample count")
    ver.add_argument(
        "--constants-samples",
        type=int,
        default=CONSTANTS_SAMPLES,
        help="random units per cell for the shared constants pass",
    )

    dec = sub.add_parser("decompose", parents=[shared], help="perp series of an element")
    _element_input(dec)

    w2p = sub.add_parser("w2", parents=[shared], help="secondary valuation of an element")
    _element_input(w2p)

    ser = sub.add_parser("series", parents=[shared], help="operate on a stored perp series")
    ser.add_argument("--op", choices=("invert", "reconstruct"), required=True)
    ser.add_argument("--series-file", required=True, help="JSON perp series")
    return parser


def _element_input(cmd: argparse.ArgumentParser):
    cmd.add_argument("--element-file", help="JSON element {level, coeffs}")
    cmd.add_argument("--level", type=int, help="level for --random elements (default: top)")
    cmd.add_argument(
        "--random",
        action="store_true",
        help="use a random integral element drawn from --seed instead of a file",
    )


def read_json(path: str):
    """The JSON value in the file at ``path``; text the parser refuses (not
    JSON, nested too deep, an int literal too long) raises DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as err:
            raise DomainError(f"{err} in {path}") from None


def make_tower(args) -> CyclotomicTower:
    conf = {}
    if args.config:
        raw = read_json(args.config)
        if not isinstance(raw, dict):
            raise PadicError("config file must hold a JSON object")
        unknown = set(raw) - set(FLAG_KEYS.values())
        if unknown:
            raise PadicError(f"unknown config keys: {brief(sorted(unknown))}")
        conf.update(raw)
    for flag, key in FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is not None:
            conf[key] = value
    p = conf.get("p", 3)
    s = conf.get("s", 2 if p == 2 else 1)
    params = TowerParams(
        p=p, s=s, max_level=conf.get("max_level", 4), prec=conf.get("prec", 60)
    )
    return CyclotomicTower(params)


def load_element(tower: CyclotomicTower, args):
    if args.element_file and args.random:
        raise PadicError("pass either --element-file or --random, not both")
    if args.level is not None and not args.random:
        raise PadicError("--level applies only to --random elements")
    if args.element_file:
        return tower.element_from_json(read_json(args.element_file))
    if args.random:
        level = args.level if args.level is not None else tower.max_level
        rng = cell_rng(args.seed, "cli-element", level, 0)
        return tower.random_integral(level, rng)
    raise PadicError("an element is required: --element-file FILE or --random")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tower = make_tower(args)
        if args.command == "build":
            payload = {
                "degrees": {str(n): tower.phi(n) for n in range(tower.max_level + 1)},
                "ramification": {
                    str(n): tower.phi(n) // tower.phi(0)
                    for n in range(tower.max_level + 1)
                },
            }
            report = envelope(tower, "tower", args.seed, payload)
        elif args.command == "constants":
            report = constants_to_report(
                tower, estimate_constants(tower, seed=args.seed, samples=args.samples)
            )
        elif args.command == "verify":
            check_sample_count(args.samples)  # before the constants are spent
            constants = estimate_constants(
                tower, seed=args.seed, samples=args.constants_samples
            )
            if args.suite == "all":
                report = run_all(
                    tower, seed=args.seed, samples=args.samples, constants=constants
                )
            else:
                report = run_suite(
                    tower,
                    args.suite,
                    seed=args.seed,
                    constants=constants,
                    samples=args.samples,
                )
        elif args.command == "decompose":
            x = load_element(tower, args)
            series = perp_series_decompose(tower, x)
            try:
                w2 = w2_valuation(tower, x)
            except PadicError:
                w2 = None
            payload = {"series": series.to_json(), "w2": w2}
            report = envelope(tower, "perp-series", args.seed, payload)
        elif args.command == "w2":
            x = load_element(tower, args)
            payload = {"w2": w2_valuation(tower, x), "level": x.level}
            report = envelope(tower, "w2", args.seed, payload)
        elif args.command == "series":
            series = perp_series_from_json(tower, read_json(args.series_file))
            if args.op == "invert":
                kind, key, value = "perp-series", "series", series_invert(tower, series)
            else:
                kind, key, value = "element", "element", series_reconstruct(tower, series)
            report = envelope(tower, kind, args.seed, {key: value.to_json(), "op": args.op})
        else:
            raise PadicError(f"unhandled command {args.command!r}")
        emit_report(report, args.out)
    except (PadicError, OSError) as err:
        print(f"tower: {err}", file=sys.stderr)
        return 2
    # only suite reports carry a verdict: exit 1 means "a suite failed"
    return 0 if report.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
