"""Print the rows of every pinned case, as Python literals.

Step 1 of the results-change protocol: run ``python tests/pinned_rows.py``
at the parent commit of a change that moves numbers, and paste the rows
that moved into ``test_report_values.py`` (``RECORDED`` and its kin) and
``TestFitPins.PINS``. It prints (label, value, std) for every report of
``test_report_hashes.CASES`` and ``_fit_pin(...)`` for every entry of
``test_tomography.FIT_CASES``. The file name does not match ``test_*.py``,
so pytest does not collect it.
"""

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent),
                str(Path(__file__).resolve().parents[1] / "src")]

from test_report_hashes import CASES  # noqa: E402
from test_tomography import FIT_CASES, _fit_pin  # noqa: E402


def main():
    print("ROWS = {")
    for case, (run, _, _) in CASES.items():
        print(f"    {case!r}: [")
        for row in run().rows:
            print(f"        {(row.label, row.value, row.std)!r},")
        print("    ],")
    print("}")
    print("PINS = {")
    for name, case in FIT_CASES.items():
        print(f"    {name!r}: {_fit_pin(*case())!r},")
    print("}")


if __name__ == "__main__":
    main()
