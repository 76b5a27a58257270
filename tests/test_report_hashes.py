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
``table3-deterministic`` did not move. ``table2-ideal``,
``table2-ghz-calibrated`` and ``table3-deterministic`` were re-recorded when
both fidelities took one purity rule (Tr[M^2] within 1e-12 of 1) and one
mixed-pair formula, the squared sum of the singular values of
sqrt(a) sqrt(b), and the phase search took its pure-pair polynomial from the
overlap Tr[D chi D^dag chi_th] instead of the pure argument's eigenvector:
the ``fidelity-optimized`` rows moved by at most 2.2e-16 in a value and
7.9e-17 in a std, and the ``operation-fidelity`` rows by at most 2.1e-8
(``bell-pair``), where square roots of the eigenvalues of
sqrt(a) b sqrt(a) had lifted its zero ones to ~1e-8 (against a 40-digit
value of the same inputs its error fell from 2.15e-8 to 8.9e-10).
``test_report_values.py`` bounds them. ``entangler``, ``discord`` and every
``total-fidelity`` row did not move. ``table2-ideal``,
``table2-ghz-calibrated``, ``entangler`` and ``discord`` were re-recorded
when every fit given no start (each base fit and each state fit) began at its
projected least-squares estimate instead of the maximally mixed state: both
fits are certified within 1 nat of the maximum, and values moved by at most
0.35 of their row's std (``table2-ideal`` ``ghz/fidelity-raw``, 1.1e-5), stds
by at most 0.46 of it (``ghz/fidelity-optimized``, 1.5e-5) and rank-one
purities by at most 1.7e-15. ``test_report_values.py`` bounds them in
``START_MOVED``, which supersedes the rounding-level pins of
``NEWTON_MOVED`` and the ``fidelity-optimized`` rows of ``KERNEL_MOVED``.
``table3-deterministic`` reconstructs nothing and did not move.
``table2-ghz-calibrated`` was re-recorded when a fit with every outcome
counted began to stop on a second certificate, a Lagrangian self-concordant
bound, whichever of it and (lambda_max(R) - 1) x N first reaches 1 nat: its
fits now stop earlier, both certified within 1 nat of the maximum. Values
moved by at most 0.39 of their row's std (``ghz/fidelity-raw``, 1.5e-4) and
stds by at most 0.48 of it (the same row, 1.9e-4, an std of 2 resamples);
``test_report_values.py`` bounded them then. No fit of
another case tries the new bound, and none moved. ``table2-ghz-calibrated``
was re-recorded again when each fit with every outcome counted began to stop
on the Lagrangian bound alone, with the self-concordance of its smallest
count rather than of a single count, tried at every step once the
likelihood has stopped rising: its fits stop at other points, still
certified within 1 nat. Values moved by at most 2.10 of the old std
(``ghz/fidelity-raw``, 4.2e-4, an std of 2 resamples) and stds by at most
0.17 of it; ``test_report_values.py`` bounds them in ``RECERTIFIED``, whose
rows supersede the earlier records of the case. Every fit of another case has
an uncounted outcome, stops on (lambda_max(R) - 1) x N as before, and did not
move. ``discord`` was re-recorded when the discord search began screening
each distinct projective measurement of its grid once (n and -n are one
measurement) and its refinement began doubling its stencil half-width, up to
the screen spacing, on each move to a better stencil point: only its sampled
discord rows moved, by at most 1.9e-15 in a value and 4.7e-16 in a std;
``test_report_values.py`` bounds them in ``SCREEN_MOVED``. No other case
computes discord, and none moved. ``table2-ghz-calibrated`` was re-recorded
when each fit with every outcome counted began with one damped Newton step
of its log-likelihood before the ascent: its fits stop at other points, still
certified within 1 nat. Values moved by at most 1.49 of their row's std
(``ghz/fidelity-raw``, 2.4e-4, an std of 2 resamples) and stds by at most 1.10
of it (the same row, 1.8e-4); ``test_report_values.py`` bounds them in
``RECERTIFIED``. Every fit of another case has an uncounted outcome, takes no
such step, and did not move.
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
        "22aa10c0db85e275f6574beb9cb5d894c4374abe818d9e6667212e7b8e6186c3",
        "c1008a6e04531a77859899f771fc0b00d46c003a04cccf087db1a7d99341e92b",
    ),
    "table2-ghz-calibrated": (
        _ghz_calibrated,
        "2850d6c8dd341664aed84267083f7f50f4de8ccf292d6ae356a31b6846ff0264",
        "5c2ed3dd014710e0fdea3b1654dd4d0722a0c5c0da333e637cffb7ee82445040",
    ),
    "entangler": (
        lambda: pipeline.run_entangler_demo(
            ExperimentConfig(mean_counts=1e3, seed=13, monte_carlo_samples=3)),
        "9921f64063c94b40e52ff0b98564af9a78bd7d5652140b544a95155452119045",
        "e6acf5bcc093687fee8211995b986420b3ab312f5afa9a1cf649f0433f95f7eb",
    ),
    "discord": (
        lambda: pipeline.run_discord_demo(
            ExperimentConfig(mean_counts=1e3, seed=14, monte_carlo_samples=2)),
        "08abdc45a7ede4411ade93aa321dcfd5a796d4316b6a2548bd38f150ce06c580",
        "f5b4760254f982b9fe615322a6cd0fc87a5fc6051e8377ee3a303b7277277bc4",
    ),
    "table3-deterministic": (
        lambda: pipeline.run_table3(
            ExperimentConfig(mean_counts=1e3, seed=15, monte_carlo_samples=2)),
        "0a1491720bc79b9d1d934002c802f6925b8187fc551785c0c14b3803a0112116",
        "ca63d6d07ff5a247dc118138e021bfc7ac0e69bf2c177472cf0f1af2af4437e4",
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
