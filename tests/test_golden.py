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
    # the benchmark's large run: 120,001 rows per trajectory, I down to 7e-9
    # and long zero-rate stretches, a mix of cells the short cases never hit
    "policy-compare": ["reproduce", "policy-compare", "--seed", "1"],
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
    # the robust run's bounds come from one alpha of the estimator: here they
    # give gamma_min < 0, a config error that writes nothing ...
    "estimated-policy-compare-250": ["simulate", "--preset", "policy-compare",
                                     "--set", "integrator.horizon=250",
                                     "--set", "inflation.mode=estimated",
                                     "--set", "estimation.alphas=[10]"],
    # ... and here (0.1733, 0.0501), which bracket the true (0.16, 0.063)
    "estimated-fig1": ["simulate", "--preset", "fig1", "--set", "inflation.mode=estimated",
                       "--set", "noise.kind=none", "--set", "estimation.alphas=[1]"],
    # the misestimated threshold fires at t = 54.67, after the optimal run
    # has left stage 1 (t_b = 54.6616992188)
    "late-threshold-policy-compare": ["simulate", "--preset", "policy-compare",
                                      "--set", "seed=12", "--set", "noise.snr_db=40",
                                      "--set", "integrator.horizon=120",
                                      "--set", 'policies=["optimal","robust","misestimated"]'],
    # closed-loop branches, all under measurement noise: every run reaches
    # stage 3 long before the horizon ...
    "stage-three-fig1": ["simulate", "--preset", "fig1",
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

# cases whose robust run is infeasible exit 3 after writing their CSVs; a
# config error exits 2 before writing any
EXIT_CODES = {"saturated-policy-compare": 3, "threshold-at-start-fig1": 3,
              "estimated-policy-compare-250": 2}

EXPECTED = {
    "bound-sweep": {
        "bound-sweep/estimates.csv":
            "75136a5354280d516d1f165406b7efb1fb5a78128cdccd654a06ce8467d62ab2",
        "bound-sweep/estimates_snr100.csv":
            "5ee60eae2bea6b934e6b542750b9d19f9f22b1cf76f529a15e0ae59f16a5b1bf",
    },
    "estimated-fig1": {
        "costs.csv":
            "42163422f9ce8a666eca79b1e72469a3570be4f365186ba1d9c48109766b98cb",
        "policy_trace_optimal.csv":
            "21f630193893564aa60d7bfbb46d8097f1f159704b5d953d9793979822df4120",
        "policy_trace_robust.csv":
            "52d15fa036804dedacca648ad1cbfe0046312fccf64bf4c81a97bceecd48f597",
        "trajectory_optimal.csv":
            "51c029a24a9744fe44b305aa97330e97b83fcc73e627da6d031b046287bcf58d",
        "trajectory_robust.csv":
            "8cdcc574cced0760693f8b0a2a3bf491d80592c47fc4d5adb811a8975760fe58",
    },
    "estimated-policy-compare-250": {},
    "fig1": {
        "fig1/costs.csv":
            "fefdc66bb8677cf80334446c6c9ad195a974b268d437797e49e609699199f2f9",
        "fig1/policy_trace_optimal.csv":
            "21f630193893564aa60d7bfbb46d8097f1f159704b5d953d9793979822df4120",
        "fig1/policy_trace_robust.csv":
            "ef7e204deec0300c0f473ccff893354138d814382727011db4d9177b4e7b93a2",
        "fig1/trajectory_optimal.csv":
            "0ab46b96c367bd72f5a9caed6d3e37fd57d8996a3ced8da11c2f506e034dec1d",
        "fig1/trajectory_robust.csv":
            "c332c15e52b94fc44e1492374a5e8019c001ca5c2add55b0f7172e345cb931b0",
    },
    "gap-fig1": {
        "costs.csv":
            "185f41cdcdf93323c8878df9a2eb1f5bd6fc9c919aa7c226a881ee94e3576ece",
    },
    "gap-grid-fig1": {
        "costs.csv":
            "a0a7bc22434cc026e6b807155712541bb4ef14d819ac4ae738ca34fa313c8f3e",
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
            "59bb878192ab60eea9be567457c0c1656221e480c5191e408dae3dcf03789007",
        "trajectory_optimal.csv":
            "8a446a1609b1964143938a6bdef43f8c14399cc29fb060cef88d7264286bd681",
        "trajectory_robust.csv":
            "6bb79a44a27492fc540be86dc0e86aa1fd27eb15c0fe2f0473896994e661a362",
    },
    "param-est-1-10": {
        "estimates.csv":
            "3593a78c3f05aeb156046b17cfb3a8a78ebaa2a1e21522d969e0bb3d1f4e435e",
    },
    "policy-compare": {
        "policy-compare/costs.csv":
            "0fdeae0df5f5ce024b580da48a5891ad3e8b2642cd4c8a8180f8da6831a3db90",
        "policy-compare/policy_trace_misestimated.csv":
            "7c52f9535963a910df0bf51e45fb7b1d99120802cb1d655e95bfc2415da152f9",
        "policy-compare/policy_trace_optimal.csv":
            "05ec789b40fe6b6210c721cad06be579a8bbb9b0ea9d376b0a46b1069012d8c3",
        "policy-compare/policy_trace_robust.csv":
            "b5a08497ca4f682284f6e9a81436911e198b4d123e93c17868011abb7814e800",
        "policy-compare/trajectory_misestimated.csv":
            "ab0f8efc150c6bb184d029ccc7465c01db2af775990c2a71b0d9848fb7e002ff",
        "policy-compare/trajectory_optimal.csv":
            "ef2a4169ba37afda4a9e4144c86f55e0970b4c80464ebf2e90dc92fdf4c3e5f9",
        "policy-compare/trajectory_robust.csv":
            "cb4146e902de2ca59291a53ce79937e254f4fc8cec6868d7b4937bf62f666de7",
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
            "ba4ac9dd17945c6395562c92075f20bcd1534a5130ea53e83473f1773fe51bcc",
        "trajectory_optimal.csv":
            "c7d512bdd7ef5e38776212030ac3611efc34e12da9717a53ed18b9e352fe8e50",
        "trajectory_robust.csv":
            "8ffc70bb9bea7e21677dad4df8b90f3c36877f9144ef27576852e5941f802439",
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
            "c6f4b0cbf8ab8e1499bd0cd1f6a0b28dee78bd7a2500a5c1d9e104e339a7595f",
        "trajectory_optimal.csv":
            "d463711ee05e6ee87084b121ebc25c032832c85ba7cfc870167442ba1f7b82b2",
        "trajectory_robust.csv":
            "ac32750aa53ece5ae6d2992d53c8e59f52d1865b0b66900402d368eed1e62cbc",
    },
    "stage-three-fig1": {
        "costs.csv":
            "a1f8948c00aa831abc4d40e339c8b3d7eb53963ec2345e765361ebc79bcfcc04",
        "policy_trace_misestimated.csv":
            "15ff46f64ab3c026d622b90cd083d82b86eb50986558415525df606c05abdaf4",
        "policy_trace_optimal.csv":
            "76b50cb5fce5b73199114fb77c677aa7fd92667026f338ece3fa5083426945b1",
        "policy_trace_robust.csv":
            "a9b979adc86417392706027b90388c097bbf7a0845cd468e55d07625973620bc",
        "trajectory_misestimated.csv":
            "b02b06661183aa4880ce3accc838be9fb486566df8429ae092e21abe46c1d132",
        "trajectory_optimal.csv":
            "bb451b7ff27d9a62bbb3bbb3cc9eaf0acc3ba398041c943f4aefc06c54e43cc4",
        "trajectory_robust.csv":
            "de6274f2c265f9ea6b4c9380533d789e4a192f2bf4679304a7b933069ead1c40",
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
            "e9f58a4e0724f7af9313a9001a0cf8531e405a9634109322f1bb1b68edae3382",
        "trajectory_optimal.csv":
            "d6b69e8b8fb0255c4d6ed44b72e029e428f500811656e3a49d3d7b04dc6d8944",
        "trajectory_robust.csv":
            "df494537face792f51f27f3ead40aefefe1be96d7be25e5ed727d1e9c80a2cb0",
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
