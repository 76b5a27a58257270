"""Report values of the pinned cases whose bytes moved with a declared change
of results.

The R-rho-R fit once formed a dense table of the 1296 setting operators
rho_prep^T (x) Pi_out; it now contracts the preparation and projector stacks
directly. That rounds the fit differently in the last bits: every estimate
behind these reports moved by at most 9e-16, with identical iteration counts.
The values below are those of the dense fit, written as ``repr`` floats.

The table3 channels once acted on the cluster's middle qubit pair through a
Kraus decomposition of the Choi matrix that dropped weights at or below
1e-12; they are now one contraction of the Choi matrix itself. The
``table3-deterministic`` values below are those of the Kraus sum.

Every row value and std must stay within an absolute 1e-7 of them. The
largest measured shifts are 8.2e-9 from the fit and 8.9e-9 from the channel
contraction, both in ``table3-monte-carlo`` (8.5e-9 in
``table3-deterministic``). They arise downstream: the Uhlmann fidelity takes
square roots of eigenvalues near zero, so a change of eps ~ 1e-16 in an
operand can move a fidelity by sqrt(eps) ~ 1e-8. The bound 1e-7 leaves a
factor of ten over that, and stays far below the smallest printed Monte
Carlo std of a fidelity (about 1e-5).
"""

import json

import pytest
from test_cli import process_monte_carlo_argv
from test_report_hashes import CASES

from convgate.cli import main

TOLERANCE = 1e-7

#: (label, value, std) of every row, as reported before the change.
RECORDED = {
    "table2-ideal": [
        ("cluster-identity/purity", 0.9999999986141361, 6.157117626775997e-13),
        ("cluster-identity/fidelity-raw", 0.999971205468132, 9.827305433946724e-06),
        ("cluster-identity/fidelity-optimized", 0.999972795108065, 1.2437964142247967e-05),
        ("ghz/purity", 0.9999999919314658, 2.9962859435291824e-11),
        ("ghz/fidelity-raw", 0.9999493816085889, 2.1851561035900332e-05),
        ("ghz/fidelity-optimized", 0.9999511428143355, 2.4958734464853215e-05),
        ("dicke/purity", 0.999999983997075, 1.0715763273585239e-10),
        ("dicke/fidelity-raw", 0.9998422701771881, 1.860263323676474e-05),
        ("dicke/fidelity-optimized", 0.9998630914721038, 3.1673593310242326e-05),
        ("bell-pair/purity", 0.9999999989574767, 1.669793514353257e-13),
        ("bell-pair/fidelity-raw", 0.9999410854755466, 1.7895978961150243e-05),
        ("bell-pair/fidelity-optimized", 0.9999420354956252, 1.0608248807111025e-05),
    ],
    "table2-ghz-calibrated": [
        ("ghz/purity", 0.7735557602421244, 0.0008449813385327378),
        ("ghz/fidelity-raw", 0.8710198512014458, 0.00038439032373144765),
        ("ghz/fidelity-optimized", 0.877841994095421, 0.00044222813670328294),
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
    "table3-monte-carlo": [
        ("cluster-identity/operation-fidelity", 0.9877848428078578, 0.0003636722658380391),
        ("cluster-identity/total-fidelity", 0.8658270590702563, 0.000580405444261222),
        ("ghz/operation-fidelity", 0.9280880802789615, 0.0006386740587137292),
        ("ghz/total-fidelity", 0.7978300404807365, 0.0005803000360661691),
        ("dicke/operation-fidelity", 0.9623741593111388, 0.0010536192008967166),
        ("dicke/total-fidelity", 0.8499981096606586, 0.0031430553988358294),
        ("bell-pair/operation-fidelity", 0.9558641318144527, 0.0019380555354462075),
        ("bell-pair/total-fidelity", 0.8821687316580817, 0.0013153924850091722),
    ],
    "cli-process": [
        ("process-fidelity", 1.0, 4.6091709120815287e-05),
        ("purity", 1.0, 6.446328607617975e-12),
        ("process-fidelity-optimized", 1.0, 3.5453994646655343e-05),
    ],
}


def _assert_close(rows, recorded):
    assert [label for label, _, _ in rows] == [label for label, _, _ in recorded]
    for (label, value, std), (_, value0, std0) in zip(rows, recorded):
        assert abs(value - value0) <= TOLERANCE, label
        if std0 is None:
            assert std is None, label
        else:
            assert abs(std - std0) <= TOLERANCE, label


@pytest.mark.parametrize("case", ["table2-ideal", "table2-ghz-calibrated", "table3-deterministic",
                                  "table3-monte-carlo"])
def test_report_values_near_recorded(case):
    report = CASES[case][0]()
    _assert_close([(r.label, r.value, r.std) for r in report.rows], RECORDED[case])


def test_cli_process_metrics_near_recorded(tmp_path):
    out = tmp_path / "m.json"
    assert main(["metrics", *process_monte_carlo_argv(tmp_path), "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    _assert_close([(m["name"], m["value"], m["std"]) for m in metrics],
                  RECORDED["cli-process"])
