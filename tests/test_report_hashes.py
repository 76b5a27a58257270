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
at most. ``test_report_values.py`` bounds every moved case. The
``table3-monte-carlo`` case was deleted with the Monte Carlo mode of
``run_table3``, which no command reached. Every JSON hash was then
re-recorded for metadata alone: the report config lost its ``settings`` key,
which no caller set, and with it the config hash changed; ``table3`` also
lost its ``mode`` key. The CSVs of ``table2-ideal``, ``table2-ghz-calibrated``
and ``table3-deterministic`` did not move. In the same change the
``entangler`` and ``discord`` CSVs moved in one row each: the std of
``sampled/success-probability`` is now taken over the resamples the metric
rows are fitted on, not over a second stream (0.005127 -> 0.009167 and
0.004400 -> 0.011628 at 3 and 2 resamples). ``table2-ideal`` and
``entangler`` were re-recorded when the simulation began computing its
Poisson means by the fit's contraction and setting every mean within
``PROBABILITY_WINDOW`` x ``mean_counts`` of zero to exactly zero: the formed
setting products had left some zero means at 1e-33, each of which advanced
the generator, so these ideal channels drew new counts. The largest value
shift is 1.36 times the larger of the old and new std; ``test_report_values.py``
bounds the re-drawn values. ``table2-ghz-calibrated``, ``discord`` and
``table3-deterministic`` did not move. ``table2-ideal`` was re-recorded again
when the phase search replaced its Nelder-Mead refinement with Newton steps
on the 81-term fidelity polynomial, seeded from a separable screen of that
polynomial: only its ``fidelity-optimized`` rows moved, values by at most
1.1e-16 and stds by at most 7.9e-17; ``test_report_values.py`` bounds them.
``table2-ghz-calibrated``, ``entangler``, ``discord`` and
``table3-deterministic`` did not move.
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
        "7124dea6880ea27b247838c00819d300369d1848bd35efbbaf1fc737b29759ba",
        "403e2a86d298ef754d7d2e6b4e11549b8c11c63f93b2ec7f8a7795b585195190",
    ),
    "table2-ghz-calibrated": (
        _ghz_calibrated,
        "1b40780e83c31cdf010059ddc2fa1a309bd945f45f70d5c67a771b318f1e6eb4",
        "10c6f5d796c1143140d2444db2e69574f21f47c0cce3e69bc8812debed69b533",
    ),
    "entangler": (
        lambda: pipeline.run_entangler_demo(
            ExperimentConfig(mean_counts=1e3, seed=13, monte_carlo_samples=3)),
        "e6d3c112b198c392aab3c3b069da0cafe1399cdd67626aa4dab37a9b24897b78",
        "8a490ed82d8389b86d9e530fccffe5abbd642c23b6984010718a6be3e7b35d80",
    ),
    "discord": (
        lambda: pipeline.run_discord_demo(
            ExperimentConfig(mean_counts=1e3, seed=14, monte_carlo_samples=2)),
        "10c4d70a1e182bcb7219486ce458c4bbaf3edac6976ecd48d35ed16b100a177f",
        "af8dbf8f412715e1f05e071e95384ca515c43e554de62b48e9ac620058163691",
    ),
    "table3-deterministic": (
        lambda: pipeline.run_table3(
            ExperimentConfig(mean_counts=1e3, seed=15, monte_carlo_samples=2)),
        "5bed3e830813a647526b3d5b41609fbe6a945b38f427200beff526b8c418168d",
        "45dfed2311b57f3a4806c642834fcc060313aeb7fc7309502a69fa942a9cfb69",
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
