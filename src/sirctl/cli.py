"""Command-line experiment runner.

Subcommands:

* ``simulate``  — run one scenario (all configured policies), emit CSVs.
* ``estimate``  — run the sample-step sweep, emit estimates.csv.
* ``gap``       — cost-gap table over a grid of inflation multipliers.
* ``reproduce`` — named presets: fig1, sir-wave, param-est, bound-sweep,
  policy-compare.

Configs are single JSON documents; ``--set path.to.field=value`` overrides
individual fields. Exit codes: 0 success, 2 config error, 3 the robust run
was infeasible.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .csvio import emit_csv, write_costs_csv, write_estimates_csv
from .scenarios import (
    ConfigError,
    ScenarioConfig,
    bound_sweep_noisy_config,
    gap_table,
    preset,
    run_scenario,
    sweep_h,
    sweep_trajectory,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _apply_override(raw: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"--set expects path=value, got {spec!r}")
    path, text = spec.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object field {key!r}")
    node[keys[-1]] = value


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is None and args.preset is None:
        raise ConfigError("provide --config FILE or --preset NAME")
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    else:
        raw = preset(args.preset).to_dict()
    for spec in args.set or []:
        _apply_override(raw, spec)
    if args.seed is not None:
        raw["seed"] = args.seed
    return ScenarioConfig.from_dict(raw)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    artifacts = run_scenario(config)
    paths = emit_csv(artifacts, args.out)
    for p in paths:
        print(p)
    for name, run in artifacts.runs.items():
        rep = run.result.report
        print(f"{name}: feasible={rep.feasible} "
              f"max_I={rep.max_infection_attained:.6g} "
              f"clamps={rep.clamp_events}")
    if artifacts.robust_feasible is False:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rows = sweep_h(config)
    out = Path(args.out) / "estimates.csv"
    write_estimates_csv(out, rows)
    print(out)
    return EXIT_OK


def _parse_inflations(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(","):
        try:
            bm, gm = chunk.split(":")
            pairs.append((float(bm), float(gm)))
        except ValueError as exc:
            raise ConfigError(
                f"bad inflation pair {chunk!r}; expected beta_mult:gamma_mult"
            ) from exc
    return pairs


def _cmd_gap(args: argparse.Namespace) -> int:
    if args.config is None and args.preset is None:
        args.preset = "fig1"
    config = _load_config(args)
    rows = gap_table(config, _parse_inflations(args.inflations))
    out = Path(args.out) / "costs.csv"
    write_costs_csv(out, rows)
    print(out)
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    name = args.name
    out = Path(args.out) / name
    if name in ("param-est", "bound-sweep"):
        config = preset(name, args.seed)
        epidemic = sweep_trajectory(config)
        write_estimates_csv(out / "estimates.csv", sweep_h(config, epidemic))
        if name == "bound-sweep":
            # the 100 dB table samples the same epidemic under other noise
            noisy = bound_sweep_noisy_config()
            if args.seed is not None:
                noisy = replace(noisy, seed=args.seed)
            write_estimates_csv(out / "estimates_snr100.csv", sweep_h(noisy, epidemic))
        print(out)
        return EXIT_OK
    config = preset(name, args.seed)
    artifacts = run_scenario(config)
    emit_csv(artifacts, out)
    print(out)
    if artifacts.robust_feasible is False:
        return EXIT_INFEASIBLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirctl",
        description="SIR epidemic isolation control under uncertainty: "
                    "estimation with error bounds, robust policies, and "
                    "optimality-gap accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="scenario config JSON file")
        p.add_argument("--preset", help="named preset instead of a config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override one config field (JSON value)")

    p = sub.add_parser("simulate", help="run one scenario, all policies")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="sample-step estimation sweep")
    common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("gap", help="cost-gap table over inflation multipliers")
    common(p)
    p.add_argument("--inflations", default="1.02:0.98,1.05:0.95,1.1:0.9",
                   help="comma list of beta_mult:gamma_mult pairs")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("reproduce", help="run a named preset")
    p.add_argument("name", choices=["fig1", "sir-wave", "param-est",
                                    "bound-sweep", "policy-compare"])
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
