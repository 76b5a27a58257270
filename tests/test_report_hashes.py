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
at most 1.7e-15 in a value and 2.4e-15 in a std. Every case that
reconstructs (all but ``table3-deterministic``) was re-recorded when an
accelerated projected-gradient fit that stops on a certified likelihood gap
of 1 nat replaced R-rho-R: values moved by at most 6.4e-4 and stds by at
most 1.5e-4 (``discord``, ``sampled/log-negativity``), 0.43 of a row's std
at most. ``test_report_values.py`` bounds every moved case.
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
        "53e91d0745258efc08b3d3fd3dcd5ed77d1c280d1ff6d0e82a58ceaa2d765461",
        "b00ebb1334a63d48b5d90510c5b5a205d5bae6a382e5dec7e0a30a1d76b6348c",
    ),
    "table2-ghz-calibrated": (
        _ghz_calibrated,
        "28a3b31aa71a0bd65f7508aca67d37c370cc233b1584d26011922d72267b0b0e",
        "10c6f5d796c1143140d2444db2e69574f21f47c0cce3e69bc8812debed69b533",
    ),
    "entangler": (
        lambda: pipeline.run_entangler_demo(
            ExperimentConfig(mean_counts=1e3, seed=13, monte_carlo_samples=3)),
        "2c5b957e0031eb45d1da59dcb49f1238b06af4bf006dad8688bfd19db29666ef",
        "623a1ce45da79215462ba05b2198b4bd7a1e7a805ba48fbc64d5df14589499cc",
    ),
    "discord": (
        lambda: pipeline.run_discord_demo(
            ExperimentConfig(mean_counts=1e3, seed=14, monte_carlo_samples=2)),
        "9c351d38ead89ccd31147e161c7cc193ff9e39ad779a6a0aab7a0e2c40ee79bb",
        "5bb8f660122b1e05ea85c65132788a9810da6b7ad707ff7d17addc1f4cdc3409",
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
        "7c72cc6d750b8a1575f7900e843210619d85671b5358e17a34f636fca5443763",
        "470975c84c2d240156c6ef2f03dfda166cc180506094a20acf38ead744fb3cbd",
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
