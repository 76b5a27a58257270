"""Byte-level pins of the pipeline reports at small, fixed sizes.

Each case renders a runner's ``TableReport`` with ``to_json`` and ``to_csv``
and compares the sha256 of both texts against a recorded value. Refactors of
the tomography, resampling and metric code must leave every report byte for
byte unchanged, so these hashes are never edited to follow a code change; a
change that moves a number is a change of results and must say so.

The hashes were recorded with CPython 3.11, numpy 2.4.6 and scipy 1.17.1,
both linked against scipy-openblas 0.3.31 (64-bit ints, DYNAMIC_ARCH), on an
x86_64 CPU with AVX-512, with one and with two BLAS threads alike. Another
BLAS build or CPU kernel may round differently and then fail these pins
without any code change.
"""

import hashlib

import pytest

from convgate import pipeline
from convgate.pipeline import ExperimentConfig, calibrated_channel_noise


def _ghz_calibrated():
    spec = calibrated_channel_noise(targets={"ghz": 0.875})["ghz"]
    return pipeline.run_tomography_suite(ExperimentConfig(
        preset="ghz", noise=spec, mean_counts=1e3, seed=12, monte_carlo_samples=2))


CASES = {
    "table2-ideal": (
        lambda: pipeline.run_tomography_suite(
            ExperimentConfig(mean_counts=1e3, seed=11, monte_carlo_samples=2)),
        "f5054cccaa0a867ca4a541bec9b6f3872e5a445ed135d007a90762ecae4a8226",
        "8821c1b464df0c82686e953b6f4bf0df40309b579a947f07d9cdcada98c7e7c0",
    ),
    "table2-ghz-calibrated": (
        _ghz_calibrated,
        "ea1652621e5a996b5c69bb6146e00ec85ed4e66eeba1ba271a424dd9903ab0fd",
        "ee3b3afcff7df9825bed5c7612295fc20f917b42d5b608723a2ca70a85d47f0d",
    ),
    "entangler": (
        lambda: pipeline.run_entangler_demo(
            ExperimentConfig(mean_counts=1e3, seed=13, monte_carlo_samples=3)),
        "2718475fa2fdb217b7ec491d05c7e08bb4539b94ddc6bdb2c9fb8e2adeeb4450",
        "201ef1f3bb3a45446218a1a5cd08dc6170d7b8061459483f8b58001f5030c9e5",
    ),
    "discord": (
        lambda: pipeline.run_discord_demo(
            ExperimentConfig(mean_counts=1e3, seed=14, monte_carlo_samples=2)),
        "2ef08982aafaea5368ac5bcdf4fac07af71085acf71b2d8a1449afef544e3801",
        "bb46a786ba82c40f9130066f7501d8388a82d3d9a4068dacc3d310980b94db1b",
    ),
    "table3-deterministic": (
        lambda: pipeline.run_table3(
            ExperimentConfig(mean_counts=1e3, seed=15, monte_carlo_samples=2)),
        "09d6f8f4ecb8f37c85d1ab3277634314f34adc571617efb21067c23af976b7fe",
        "f437446a8d61e4fd24d72fcc9f049e915b8d326048ffe870bc3529b0bb7fba3b",
    ),
    "table3-monte-carlo": (
        lambda: pipeline.run_table3(
            ExperimentConfig(mean_counts=1e3, seed=15, monte_carlo_samples=2),
            mode="monte-carlo"),
        "977e5ae8b5a61bcd0fb277cafb4c0b7a236a167a2faf1a570e2bb7fefe6b1c89",
        "3f1264cdc500c2064b413999a568d4a9757623a5015d613793a293f42809c5af",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_report_bytes_pinned(case):
    run, json_hash, csv_hash = CASES[case]
    report = run()
    assert _sha256(report.to_json()) == json_hash
    assert _sha256(report.to_csv()) == csv_hash
