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
            "15ff46f64ab3c026d622b90cd083d82b86eb50986558415525df606c05abdaf4",
        "policy_trace_optimal.csv":
            "3327ea686d7c6fbf21b9d92d8b1d6c7c8efe0052e8ef7918eeb4356d1bff8f4a",
        "policy_trace_robust.csv":
            "a9b979adc86417392706027b90388c097bbf7a0845cd468e55d07625973620bc",
        "trajectory_misestimated.csv":
            "37b4a71375508d067fd5adcd29a9e810eb406b7d7cb867980bf691a9de24aa54",
        "trajectory_optimal.csv":
            "617c0cb719f63a5830df846afbd3d429ea3f805c4860b3bbfd5b7513bf4749a3",
        "trajectory_robust.csv":
            "c1c01c80dde98729e5670c72cd9ecafdb9262b1c90f3c4d102a4d2079194f7b7",
    },
    "estimated-policy-compare-250": {
        "costs.csv":
            "8d0f6058d4270cd9fee98b42929814e5314946133ee40bea4580032fda1d0163",
        "policy_trace_misestimated.csv":
            "90cee37ba62a6519d2df95123fde53588c6d5d7534e973020f022d94c843ab34",
        "policy_trace_optimal.csv":
            "b1542161aa5d3a23d7d9f464a55eb84d60c831c6ff92a789ec7cb25539a1911e",
        "policy_trace_robust.csv":
            "c07b26583f4a8a22d87ec58a5bcb3a4e0ccb1885e2dc4c11dd134ce9b48dd147",
        "trajectory_misestimated.csv":
            "4fb8d287001c2a1a1981280df12c93866d204103962a40a9218d787db6780e41",
        "trajectory_optimal.csv":
            "2b088e895ae067cfd6db2d535fd65b8428674879f000624cba0fdad67fc0a16a",
        "trajectory_robust.csv":
            "852b00be8b112a2f17e89c251e2dbc5e431cf639d30cc591ed25e28aca7e8df9",
    },
    "fig1": {
        "fig1/costs.csv":
            "07e1900616e35465f4382dc4f9bfa66343939f5e84e1aedb853d6f5edc47e8eb",
        "fig1/policy_trace_optimal.csv":
            "f0633470f353d9ed315192100e652a657215472ae118658b48ddcf252812c056",
        "fig1/policy_trace_robust.csv":
            "ef7e204deec0300c0f473ccff893354138d814382727011db4d9177b4e7b93a2",
        "fig1/trajectory_optimal.csv":
            "ad0469c563eada2f414f88b7df28a3461aaf4a4b0ae231cbf2ac1e106ee9125f",
        "fig1/trajectory_robust.csv":
            "d5d1d3116abcc25fdb312df2c8d14d8f2023c33b62d085f72136349410c9e28a",
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
            "feef32731fb7fff65dff542faff17e540980bb60a38ff34a8bd4a645c5451815",
        "policy_trace_optimal.csv":
            "b1542161aa5d3a23d7d9f464a55eb84d60c831c6ff92a789ec7cb25539a1911e",
        "policy_trace_robust.csv":
            "079dcc17869c2af98334c0908be56040c9a255af0c1d91ce98420b03738974cb",
        "trajectory_misestimated.csv":
            "9bd753d677e53b2d7fa8790e94bf8cacf05f5ac9fa301ab1d92f85118489a495",
        "trajectory_optimal.csv":
            "60d744abe83a3d66735acd5a873945204b0a5e96359762f9698827e678b34c59",
        "trajectory_robust.csv":
            "cba0c2f0de88af9e5bf5302b8afa809cd61ccc7c8c360358e57dfc4969005f7b",
    },
    "param-est-1-10": {
        "estimates.csv":
            "3593a78c3f05aeb156046b17cfb3a8a78ebaa2a1e21522d969e0bb3d1f4e435e",
    },
    "policy-compare-250": {
        "costs.csv":
            "d93d4e63a89b1d3de4eb80e13bf0609773316900508ef9b2de84e93f6f8b05a6",
        "policy_trace_misestimated.csv":
            "90cee37ba62a6519d2df95123fde53588c6d5d7534e973020f022d94c843ab34",
        "policy_trace_optimal.csv":
            "b1542161aa5d3a23d7d9f464a55eb84d60c831c6ff92a789ec7cb25539a1911e",
        "policy_trace_robust.csv":
            "99294ade134298bf6ac647c62040c4dc7ba43812b10435ebf3eb04ece4c55dfd",
        "trajectory_misestimated.csv":
            "4fb8d287001c2a1a1981280df12c93866d204103962a40a9218d787db6780e41",
        "trajectory_optimal.csv":
            "2b088e895ae067cfd6db2d535fd65b8428674879f000624cba0fdad67fc0a16a",
        "trajectory_robust.csv":
            "c31108cd27d6877b099dcd85d991f2472a38c0db90ef0c81f921cf499b200233",
    },
    "saturated-policy-compare": {
        "costs.csv":
            "cf5b998b33bac5a835837290190811269d0138a2648a53262d3a46d71b76ebe6",
        "policy_trace_misestimated.csv":
            "91983a17f7cbf660d3d335f907557115425c5666a0eb2a0fa55c637bd25c8960",
        "policy_trace_optimal.csv":
            "34881a06bf63e1a97f38c5a0970101ba11c34b0a812bf39d3f2453416e5a1d8d",
        "policy_trace_robust.csv":
            "ab796e76f92e1fe1f855cba9a5cd428166079fa5ee613011c0d43e0c65bf343d",
        "trajectory_misestimated.csv":
            "508d84f85ff82e564cf5bc7a6a2ed644684cdb30a4ec9e5585b0c51b5d791021",
        "trajectory_optimal.csv":
            "361334e250e7a9fa46b43a48f5a166ab0a3611e0f8887d0314db21fb30a6a4e1",
        "trajectory_robust.csv":
            "b43221a6768d9fa66a202c76377ca0feebf4498efe00bb8afb4d139a71d591d9",
    },
    "threshold-at-start-fig1": {
        "costs.csv":
            "6cd5aa8cbc92de36edcc9dda6fed976cf27010fa3e55b85e4431907ccd5ebbaf",
        "policy_trace_misestimated.csv":
            "d848d79d478f7dad8d964567a0f5086fc6d5628ce4b09ca4af2f0057cde00e85",
        "policy_trace_optimal.csv":
            "de260d77687bd36ae5fc8f97d69285efb878d471426e14764ba641826cdbd654",
        "policy_trace_robust.csv":
            "1da5fd156a5039f3beab49ad7c917fbc43a29dc0de51b16284a129c50f75a89c",
        "trajectory_misestimated.csv":
            "e0f27a1a480154e046efba86e572a6f85c745b95125c50162c9d230ddc3df501",
        "trajectory_optimal.csv":
            "6e44c3f4dd6417bf737cbf517c982f9e6e78ec1c8700c1e15289425939912f34",
        "trajectory_robust.csv":
            "4a46ce741e61bbf24553cb22de98c4c7dd384cddb1c82fb95e3cfc301d275e6b",
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
