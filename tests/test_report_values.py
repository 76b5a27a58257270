"""Report values of the pinned cases whose bytes moved with a declared change
of results.

``table3-deterministic`` reconstructs nothing. Its values below are those of
the Kraus-sum channel action that one contraction of the Choi matrix
replaced, and its rows must stay within an absolute 1e-7 of them: the
largest measured shift is 8.5e-9, because the Uhlmann fidelity takes square
roots of eigenvalues near zero and turns rounding of eps ~ 1e-16 into
sqrt(eps) ~ 1e-8.

Every other case reconstructs. Its values below are those of the R-rho-R
fit that the accelerated projected-gradient fit replaced, which stops once
its certified likelihood gap is at most ``MLEOptions.tol`` = 1 nat. A fit
within g nats of the maximum of the total log-likelihood lies within about
sqrt(2 g) Monte Carlo stds of the exact estimate along any one metric, so a
1-nat certificate allows 1.4 stds; the old fit stopped on a small step at
no certified gap. The largest measured shift is 0.43 of its row's std, in
``entangler`` ``sampled/fidelity`` (2.5e-4): that fit ends 0.04 nats below
the maximum, where the R-rho-R fit ended 2e-10 from it. Every row value and
std must stay within half its recorded std, plus ``RANK_ONE_SLACK``.
Rank-one estimates need that slack: their stds are ~1e-12, and the new fit
sets to zero the eigenvalues of up to 1.6e-8 that R-rho-R only shrank, so
purities moved to 1 by at most 1.6e-8.

The ``sampled/success-probability`` stds of ``entangler`` and ``discord``
below are those of the resamples shared with the metric rows, re-recorded
when the separate success-probability stream was folded onto them; the
values of these rows are total counts and did not move.
"""

import json

import pytest
from test_cli import process_monte_carlo_argv, state_monte_carlo_argv
from test_report_hashes import CASES

from convgate.cli import main

#: Tolerance of the rows of ``table3-deterministic``.
DETERMINISTIC_TOLERANCE = 1e-7
#: Absolute slack on top of half a recorded std for the reconstructing cases.
RANK_ONE_SLACK = 5e-8

#: (label, value, std) of every row, as reported before the change.
RECORDED = {
    "table2-ideal": [
        ("cluster-identity/purity", 0.999999998614136, 6.158687719221921e-13),
        ("cluster-identity/fidelity-raw", 0.999971205468132, 9.827305434025229e-06),
        ("cluster-identity/fidelity-optimized", 0.9999727951080649, 1.2437964142247967e-05),
        ("ghz/purity", 0.9999999919314658, 2.9962545416800085e-11),
        ("ghz/fidelity-raw", 0.9999493816085889, 2.1851561036135844e-05),
        ("ghz/fidelity-optimized", 0.9999511428143355, 2.4958734464853215e-05),
        ("dicke/purity", 0.9999999839970749, 1.071575542312007e-10),
        ("dicke/fidelity-raw", 0.9998422701771881, 1.860263323676474e-05),
        ("dicke/fidelity-optimized", 0.9998630914721038, 3.16735933097713e-05),
        ("bell-pair/purity", 0.9999999989574773, 1.6674381911221692e-13),
        ("bell-pair/fidelity-raw", 0.9999410854755468, 1.789597896122875e-05),
        ("bell-pair/fidelity-optimized", 0.9999420354956254, 1.0608248807503547e-05),
    ],
    "table2-ghz-calibrated": [
        ("ghz/purity", 0.7735557602421244, 0.0008449813385326593),
        ("ghz/fidelity-raw", 0.8710198512014458, 0.00038439032373144765),
        ("ghz/fidelity-optimized", 0.8778419940954211, 0.00044222813670336144),
    ],
    "entangler": [
        ("ideal/success-probability", 0.4999999999999998, None),
        ("ideal/concurrence", 0.9999999999999998, None),
        ("ideal/fidelity", 1.0, None),
        ("sampled/purity", 0.9999999990245555, 3.792064355600526e-12),
        ("sampled/fidelity", 0.998372303512329, 0.000570881717667075),
        ("sampled/concurrence", 0.9997904914569016, 0.0006780545842151627),
        ("sampled/success-probability", 0.4746666666666667, 0.009166722783217665),
    ],
    "discord": [
        ("ideal/success-probability", 0.4374999999999999, None),
        ("ideal/log-negativity", 0.0, None),
        ("ideal/concurrence", 0.0, None),
        ("ideal/discord-q1", 1.1102230246251565e-16, None),
        ("ideal/discord-q2", 0.08213333971336195, None),
        ("sampled/log-negativity", 0.06828378034810628, 0.02430238472436721),
        ("sampled/concurrence", 0.05141688813783801, 0.021836131559063655),
        ("sampled/discord-q1", 0.0035691546804874656, 0.00956948247269503),
        ("sampled/discord-q2", 0.09939213736402783, 0.007732828871707797),
        ("sampled/success-probability", 0.4461111111111111, 0.011627978179512104),
    ],
    "table3-deterministic": [
        ("cluster-identity/operation-fidelity", 0.9910175544991463, None),
        ("cluster-identity/total-fidelity", 0.8660735044993518, None),
        ("ghz/operation-fidelity", 0.9344017576885433, None),
        ("ghz/total-fidelity", 0.8042238533881687, None),
        ("dicke/operation-fidelity", 0.9661888996867455, None),
        ("dicke/total-fidelity", 0.8512642594334238, None),
        ("bell-pair/operation-fidelity", 0.955584194540039, None),
        ("bell-pair/total-fidelity", 0.8816782507999052, None),
    ],
    "cli-process": [
        ("process-fidelity", 1.0, 4.609170912097229e-05),
        ("purity", 1.0, 6.446485616863843e-12),
        ("process-fidelity-optimized", 1.0, 3.5453994646733846e-05),
    ],
    "cli-state": [
        ("concurrence", 1.0, 4.856629705822963e-05),
        ("purity", 1.0000000000000004, 1.549558130014836e-12),
        ("fidelity", 1.0, 4.323693587060447e-05),
    ],
}


def _assert_close(case, rows):
    recorded = RECORDED[case]
    assert [label for label, _, _ in rows] == [label for label, _, _ in recorded]
    for (label, value, std), (_, value0, std0) in zip(rows, recorded):
        tolerance = (DETERMINISTIC_TOLERANCE if case == "table3-deterministic"
                     else RANK_ONE_SLACK + 0.5 * (std0 or 0.0))
        assert abs(value - value0) <= tolerance, label
        if std0 is None:
            assert std is None, label
        else:
            assert abs(std - std0) <= tolerance, label


@pytest.mark.parametrize("case", ["table2-ideal", "table2-ghz-calibrated", "table3-deterministic",
                                  "discord", "entangler"])
def test_report_values_near_recorded(case):
    report = CASES[case][0]()
    _assert_close(case, [(r.label, r.value, r.std) for r in report.rows])


def _cli_metrics(tmp_path, argv):
    out = tmp_path / "m.json"
    assert main(["metrics", *argv, "--out", str(out)]) == 0
    return [(m["name"], m["value"], m["std"]) for m in json.loads(out.read_text())["metrics"]]


def test_cli_process_metrics_near_recorded(tmp_path):
    _assert_close("cli-process", _cli_metrics(tmp_path, process_monte_carlo_argv(tmp_path)))


def test_cli_state_metrics_near_recorded(tmp_path):
    _assert_close("cli-state", _cli_metrics(tmp_path, state_monte_carlo_argv(tmp_path)))
