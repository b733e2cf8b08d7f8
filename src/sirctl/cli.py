"""Command-line experiment runner.

Subcommands:

* ``simulate``  — run one scenario (all configured policies), emit CSVs.
* ``estimate``  — run the sample-step sweep, emit estimates.csv.
* ``gap``       — cost-gap table over a grid of inflation multipliers.
* ``reproduce`` — named presets: fig1, sir-wave, param-est, bound-sweep,
  policy-compare.

Configs are single JSON documents; ``--set path.to.field=value`` overrides
individual fields. Exit codes: 0 success, 2 config error (an ``--out`` that
names an existing file or lies below one, ``--config`` with ``--preset``, or
a key repeated in a JSON object among them, each refused before any run; a
plan that is out of range, refused before the first policy loop; and a state
that became non-finite, e.g. under ``params.beta=1e200``, reported with its
first non-finite node's time), 3 the robust run was infeasible. ``simulate``
and ``reproduce`` stream ``policy_runs`` through ``csvio.emit_csv``, which
writes each run as its loop ends and lets it go, and moves the files into
``--out`` only after the last loop: a plan or loop that fails writes or
overwrites no CSV and leaves no ``--out`` behind. The parser is built once
per process for each set of preset names.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .core import NonFiniteDynamicsError
from .csvio import emit_csv, write_costs_csv, write_estimates_csv
from .scenarios import (
    PRESETS,
    ConfigError,
    ScenarioConfig,
    bound_sweep_noisy_config,
    gap_table,
    policy_runs,
    preset,
    sweep_h,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key given twice is a ConfigError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key {key!r} in a config object")
        out[key] = value
    return out


def _apply_override(raw: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"--set expects path=value, got {spec!r}")
    path, text = spec.split("=", 1)
    try:
        value = json.loads(text, object_pairs_hook=_unique_keys)
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
    if args.config is not None and args.preset is not None:
        raise ConfigError("give --config FILE or --preset NAME, not both")
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(), object_pairs_hook=_unique_keys)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    else:
        raw = preset(args.preset).to_dict()
    for spec in args.set or []:
        _apply_override(raw, spec)
    if args.seed is not None:
        raw["seed"] = args.seed
    return ScenarioConfig.from_dict(raw)


def _write_scenario(config: ScenarioConfig,
                    out: Path) -> tuple[list[Path], list[str], Optional[bool]]:
    """Write ``config``'s runs in ``out`` as their loops end (``emit_csv``);
    returns the paths, one summary line per run and the robust run's
    feasibility (None without one)."""
    lines, feasible = [], {}

    def noted():
        for name, run, row, noise in policy_runs(config):
            lines.append(f"{name}: feasible={row.feasible} "
                         f"max_I={run.report.max_infection_attained:.6g} "
                         f"clamps={run.trace.clamp_events}")
            feasible[name] = row.feasible
            yield name, run, row, noise
            del run  # else this frame holds the run through the next loop

    return emit_csv(noted(), out), lines, feasible.get("robust")


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    paths, lines, robust_feasible = _write_scenario(config, Path(args.out))
    for line in (*paths, *lines):
        print(line)
    return EXIT_INFEASIBLE if robust_feasible is False else EXIT_OK


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
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {args.out} holds a file {name}, where reproduce writes "
                          "its directory")
    if name in ("param-est", "bound-sweep"):
        config = preset(name, args.seed)
        write_estimates_csv(out / "estimates.csv", sweep_h(config))
        if name == "bound-sweep":
            # the 100 dB table samples the same epidemic under other noise
            noisy = bound_sweep_noisy_config()
            if args.seed is not None:
                noisy = replace(noisy, seed=args.seed)
            write_estimates_csv(out / "estimates_snr100.csv", sweep_h(noisy))
        print(out)
        return EXIT_OK
    _, _, robust_feasible = _write_scenario(preset(name, args.seed), out)
    print(out)
    return EXIT_INFEASIBLE if robust_feasible is False else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process for the current preset names;
    every caller shares it, so none may change it."""
    return _parser(tuple(sorted(PRESETS)))


@functools.lru_cache(maxsize=1)
def _parser(names: tuple[str, ...]) -> argparse.ArgumentParser:
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
    p.add_argument("name", choices=names)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every subcommand writes under --out: refuse a file at or above it before any run
        out = Path(args.out)
        base = next(p for p in (out, *out.parents) if p.exists())
        if not base.is_dir():
            raise ConfigError(f"--out {args.out}: {base} exists and is not a directory")
        return args.func(args)
    except (ConfigError, NonFiniteDynamicsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
