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

Declared changes of results: ``table2-ideal``, ``table2-ghz-calibrated`` and
``table3-monte-carlo`` were re-recorded when the R-rho-R fit began
contracting the preparation and projector stacks instead of a dense table of
setting operators; ``test_report_values.py`` bounds how far their values
moved. ``table2-ideal`` was re-recorded again when the phase search replaced
its coordinate-wise golden-section refinement with one Nelder-Mead
refinement: only its ``fidelity-optimized`` rows moved, by at most 5.5e-16.
``table3-deterministic`` and ``table3-monte-carlo`` were re-recorded when the
channel on the cluster's middle qubit pair became one contraction of the Choi
matrix instead of a sum over its Kraus operators: values moved by at most
8.9e-9 and stds by at most 3.8e-9, the Uhlmann square root amplifying the
dropped Kraus weights and the new rounding; ``test_report_values.py`` bounds
both cases. ``table2-ideal`` was re-recorded a third time when the phase
search began screening the 16^4 grid with one inverse FFT and seeding from
the lowest grid index within 1e-12 of the maximum: no value moved, and one
std (``bell-pair/fidelity-optimized``) moved by 7.9e-17. ``discord`` was
re-recorded when the discord search replaced its Nelder-Mead refinement with
stencil-Newton rounds on the same evaluator: only its discord rows moved, by
at most 1.7e-15 in a value and 2.4e-15 in a std; ``test_report_values.py``
bounds the case.
"""

import hashlib

import pytest

from convgate import pipeline
from convgate.pipeline import ExperimentConfig, calibrated_channel_noise


def _ghz_calibrated():
    spec = calibrated_channel_noise()["ghz"]
    return pipeline.run_tomography_suite(ExperimentConfig(
        preset="ghz", noise=spec, mean_counts=1e3, seed=12, monte_carlo_samples=2))


CASES = {
    "table2-ideal": (
        lambda: pipeline.run_tomography_suite(
            ExperimentConfig(mean_counts=1e3, seed=11, monte_carlo_samples=2)),
        "87e821fd00542220f41c196d2ee95b3b2446b62ea9fa7d5a9a6cc96a640ac801",
        "d8f3bba245dbc75e2078807db3cd9106e8d463ab59b7b1faa52f6123a0abca37",
    ),
    "table2-ghz-calibrated": (
        _ghz_calibrated,
        "07f20fb6bb48ae441bef7e82fcb7ce5c59dd5cbf5d69fbf3da762c7faf1fcf5b",
        "b64c40783a1cbcec9b5de5e45a24d486587cde36ac3a323e9b30b0d7e8270712",
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
        "3468d3dee926f17e595c2faabec6adfba659b70288abf79096bf5cd71861ebdd",
        "1b50b64963e4561d21e80f52c46c61b313c4cba955974a2e0af83c391cafe6b2",
    ),
    "table3-deterministic": (
        lambda: pipeline.run_table3(
            ExperimentConfig(mean_counts=1e3, seed=15, monte_carlo_samples=2)),
        "9e294b0ba2f2d3b26daf87ef4d8fdd3a8a6e1c18e560d3668eff479172c0e15e",
        "45dfed2311b57f3a4806c642834fcc060313aeb7fc7309502a69fa942a9cfb69",
    ),
    "table3-monte-carlo": (
        lambda: pipeline.run_table3(
            ExperimentConfig(mean_counts=1e3, seed=15, monte_carlo_samples=2),
            mode="monte-carlo"),
        "aa7081faf7b299ca51cb9f8436492c663bf5fad9fadd431f955dddd16a6c5303",
        "4961c0f14a9923fc6968eb2fdc7ae0821e31f7448fad97f84c259235c9fcdbd4",
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
