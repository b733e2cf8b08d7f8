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
    # the seven-pair gap grid of the benchmark: one optimal run, seven robust
    "gap-grid-fig1": ["gap", "--preset", "fig1", "--inflations",
                      "1.01:0.99,1.015:0.985,1.02:0.98,1.03:0.97,1.04:0.96,"
                      "1.05:0.95,1.1:0.9"],
    "param-est-1-10": ["estimate", "--preset", "param-est",
                       "--set", "estimation.alphas=[1,10]"],
    # both 200-row sweep tables, clean and 100 dB
    "bound-sweep": ["reproduce", "bound-sweep"],
    # the robust run's bounds come from one alpha of the estimator
    "estimated-policy-compare-250": ["simulate", "--preset", "policy-compare",
                                     "--set", "integrator.horizon=250",
                                     "--set", "inflation.mode=estimated",
                                     "--set", "estimation.alphas=[10]"],
    # the misestimated threshold fires at t = 54.67, after the optimal run
    # has left stage 1 (t_b = 54.6616992188)
    "late-threshold-policy-compare": ["simulate", "--preset", "policy-compare",
                                      "--set", "seed=12", "--set", "noise.snr_db=40",
                                      "--set", "integrator.horizon=120",
                                      "--set", 'policies=["optimal","robust","misestimated"]'],
    # closed-loop branches, all under measurement noise: every run stops
    # early in stage 3 ...
    "early-stop-fig1": ["simulate", "--preset", "fig1", "--set", "early_stop=true",
                        "--set", "params.beta=0.5", "--set", "params.gamma=0.2",
                        "--set", "u_max=0.5", "--set", "integrator.step=0.1",
                        "--set", "integrator.horizon=400",
                        "--set", 'policies=["optimal","robust","misestimated"]'],
    # ... the stage-2 rate saturates at u_max (clamp events, infeasible) ...
    "saturated-policy-compare": ["simulate", "--preset", "policy-compare",
                                 "--set", "u_max=0.05",
                                 "--set", "integrator.horizon=150"],
    # ... and the threshold has fired at node 0
    "threshold-at-start-fig1": ["simulate", "--preset", "fig1", "--set", "init.s=0.8",
                                "--set", "init.i=0.2", "--set", "integrator.horizon=100",
                                "--set", 'policies=["optimal","robust","misestimated"]'],
}

# cases whose robust run is infeasible exit 3 after writing their CSVs
EXIT_CODES = {"saturated-policy-compare": 3, "threshold-at-start-fig1": 3}

EXPECTED = {
    "bound-sweep": {
        "bound-sweep/estimates.csv":
            "75136a5354280d516d1f165406b7efb1fb5a78128cdccd654a06ce8467d62ab2",
        "bound-sweep/estimates_snr100.csv":
            "5ee60eae2bea6b934e6b542750b9d19f9f22b1cf76f529a15e0ae59f16a5b1bf",
    },
    "early-stop-fig1": {
        "costs.csv":
            "a1f8948c00aa831abc4d40e339c8b3d7eb53963ec2345e765361ebc79bcfcc04",
        "policy_trace_misestimated.csv":
            "e4c81c5487025d96d4107a7610046e3fba91792d7603f11afc8ec6967c88d309",
        "policy_trace_optimal.csv":
            "b0fb3d2d26f4c63b50586510c4fe282103d8dccd47dd8cc3d175e21e5c98ae8b",
        "policy_trace_robust.csv":
            "406e14babde7a2964a5fa1ae0bf9a87019f94ba55278b23a274352b4c0667fbe",
        "trajectory_misestimated.csv":
            "32b297326ea1c051fbe4dd2cc6c78260af9e75a9d89cc776662cdb09bf0bd1a3",
        "trajectory_optimal.csv":
            "617c0cb719f63a5830df846afbd3d429ea3f805c4860b3bbfd5b7513bf4749a3",
        "trajectory_robust.csv":
            "03257e1ad32eab6be8656b9984caad9821dee18d467f39cde67132c5ce4c1fd4",
    },
    "estimated-policy-compare-250": {
        "costs.csv":
            "8d0f6058d4270cd9fee98b42929814e5314946133ee40bea4580032fda1d0163",
        "policy_trace_misestimated.csv":
            "34fe10c28813983237d402b0f0fa639c5887aa1c2aa50e48f600bf524c9f9038",
        "policy_trace_optimal.csv":
            "fafd557f2156320547065ff3d31623f2d8777e72e5852737e6f780e22c6bb7cb",
        "policy_trace_robust.csv":
            "eecb36afe6348e00b6c137b8a3a732df1ea951d78cdae59b595705db3c636ab2",
        "trajectory_misestimated.csv":
            "d1059c48d87ad98c360b04979ddffb66104b9ed1bb69ccc2eb62fb110a7adbef",
        "trajectory_optimal.csv":
            "2b088e895ae067cfd6db2d535fd65b8428674879f000624cba0fdad67fc0a16a",
        "trajectory_robust.csv":
            "373c1d06108a5c794c8c4dae1bcea528962c7a824076e8331b978fe199510460",
    },
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
    "gap-grid-fig1": {
        "costs.csv":
            "82f9c6ef339ebf24210efb0a5e40c2eeb4801304f928e22784184027251aca0c",
    },
    "late-threshold-policy-compare": {
        "costs.csv":
            "66b20734662c41b0ff49d0a6d3ac6bcbc35f98f011da42e31917d48593c09ad9",
        "policy_trace_misestimated.csv":
            "f371bf6017a7a445095ceb4734519021d24df7eabdb3ce7e05fb76d372eb2702",
        "policy_trace_optimal.csv":
            "45b10ee0171840c7093dae8eea0ebc34f3b8b79ca5fe2b12d7460d0783a7c234",
        "policy_trace_robust.csv":
            "88a2d33c03d6d404f7693641aceb8fe0b5faaa53ca9d2441b32b1125d2c14083",
        "trajectory_misestimated.csv":
            "688c9b7d3abde296d2a3d21f59a45bf13cc301dc801f387568572f7c57c683d1",
        "trajectory_optimal.csv":
            "60d744abe83a3d66735acd5a873945204b0a5e96359762f9698827e678b34c59",
        "trajectory_robust.csv":
            "bffc99e024244980bf108ba4f26f6cf0bfacc0e193fbd8e3b02ee2db43b1bfb8",
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
    "saturated-policy-compare": {
        "costs.csv":
            "cf5b998b33bac5a835837290190811269d0138a2648a53262d3a46d71b76ebe6",
        "policy_trace_misestimated.csv":
            "9ad6f2d1db882f0942626761965735b70253dda10539451fc09465db683fed4b",
        "policy_trace_optimal.csv":
            "6aab0341d3ad459877193d377dcafe2c01eb21d9d83bbaeb3b6e5e3ec3a8c07e",
        "policy_trace_robust.csv":
            "b8e2a9d4403400652c71093315178440f730e2ce84ce17d63bca618d77a5c506",
        "trajectory_misestimated.csv":
            "dab2e7ca3f2e48d9d1e5965278a002f5a1cab0f771162bdfce66094e89567627",
        "trajectory_optimal.csv":
            "361334e250e7a9fa46b43a48f5a166ab0a3611e0f8887d0314db21fb30a6a4e1",
        "trajectory_robust.csv":
            "6a34ba1233b39944cf44d3dd511fc969db5b3fe7ab9fabf1aed0076f91057800",
    },
    "threshold-at-start-fig1": {
        "costs.csv":
            "6cd5aa8cbc92de36edcc9dda6fed976cf27010fa3e55b85e4431907ccd5ebbaf",
        "policy_trace_misestimated.csv":
            "537142d93a07e88c6f9eb9576cd8a597620141a4f0b21a2e13c6b54aaf3edbe4",
        "policy_trace_optimal.csv":
            "15f51f2e8773f6b2af03a4ff8780b90318f1a628f5fcae8c80f46169f65f88dc",
        "policy_trace_robust.csv":
            "f80c303d6eecff00ae072578a328bef45ec9eeb9e9a891bcb6691a1ca6e9f91a",
        "trajectory_misestimated.csv":
            "bb20f7aa092f7b93fcf1b557f74584d93658e789a653a52ea584f3ab43fd99a3",
        "trajectory_optimal.csv":
            "6e44c3f4dd6417bf737cbf517c982f9e6e78ec1c8700c1e15289425939912f34",
        "trajectory_robust.csv":
            "a573e4b55aa7bda4bb861340e52ba2d3b7c5900b9e63225235c7565fe2abc75b",
    },
}


def csv_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every CSV below ``out``, keyed by its relative path."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden_digests(name, tmp_path):
    assert main([*CASES[name], "--out", str(tmp_path)]) == EXIT_CODES.get(name, 0)
    assert csv_digests(tmp_path) == EXPECTED[name]
