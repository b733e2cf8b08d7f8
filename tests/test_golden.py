"""Golden CSV digests: refactors must leave the emitted bytes unchanged.

Each case runs one CLI command into a fresh directory and compares the
SHA-256 of every CSV it writes against digests recorded from a known-good
build. A change that alters any emitted number, its formatting, or the set
of files fails here; a deliberate output change must update the digests
and say why.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from sirctl.cli import main

CASES = {
    "fig1": ["reproduce", "fig1"],
    "policy-compare-250": ["simulate", "--preset", "policy-compare",
                           "--set", "integrator.horizon=250"],
    # the 1.1:0.9 robust run never reaches its herd condition
    "gap-fig1": ["gap", "--preset", "fig1", "--inflations", "1.02:0.98,1.1:0.9"],
    "param-est-1-10": ["estimate", "--preset", "param-est",
                       "--set", "estimation.alphas=[1,10]"],
}

EXPECTED = {
    "fig1": {
        "fig1/costs.csv":
            "07e1900616e35465f4382dc4f9bfa66343939f5e84e1aedb853d6f5edc47e8eb",
        "fig1/policy_trace_optimal.csv":
            "2b1027ad02d11b0ba1e814606bb76ac2d3bba569e66a00ee3a20f330ce1df40c",
        "fig1/policy_trace_robust.csv":
            "e398db0b7fdccd72b9e3fc4fec6230e362ac73ee3ed6aecf86f0eb76692c3937",
        "fig1/trajectory_optimal.csv":
            "ad0469c563eada2f414f88b7df28a3461aaf4a4b0ae231cbf2ac1e106ee9125f",
        "fig1/trajectory_robust.csv":
            "eea70552887361b4b1c574e29930ca8c50c655d2ae3a2b25616a0c0958e306b8",
    },
    "gap-fig1": {
        "costs.csv":
            "185f41cdcdf93323c8878df9a2eb1f5bd6fc9c919aa7c226a881ee94e3576ece",
    },
    "param-est-1-10": {
        "estimates.csv":
            "3593a78c3f05aeb156046b17cfb3a8a78ebaa2a1e21522d969e0bb3d1f4e435e",
    },
    "policy-compare-250": {
        "costs.csv":
            "d93d4e63a89b1d3de4eb80e13bf0609773316900508ef9b2de84e93f6f8b05a6",
        "policy_trace_misestimated.csv":
            "34fe10c28813983237d402b0f0fa639c5887aa1c2aa50e48f600bf524c9f9038",
        "policy_trace_optimal.csv":
            "fafd557f2156320547065ff3d31623f2d8777e72e5852737e6f780e22c6bb7cb",
        "policy_trace_robust.csv":
            "d3dbdfde49275488b12f0fd601f5bb16b15a7f8d6ea1717c93cb0e8244b6d3d1",
        "trajectory_misestimated.csv":
            "d1059c48d87ad98c360b04979ddffb66104b9ed1bb69ccc2eb62fb110a7adbef",
        "trajectory_optimal.csv":
            "2b088e895ae067cfd6db2d535fd65b8428674879f000624cba0fdad67fc0a16a",
        "trajectory_robust.csv":
            "d2d5ef95d9a5f50eae820432d233c676a9bec943facf12cccac6f0dbff2738bc",
    },
}


def csv_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every CSV below ``out``, keyed by its relative path."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden_digests(name, tmp_path):
    assert main([*CASES[name], "--out", str(tmp_path)]) == 0
    assert csv_digests(tmp_path) == EXPECTED[name]
