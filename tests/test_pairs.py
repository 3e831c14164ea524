"""The claim rule of tools/pairs.py, on fixed values of ten pairs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

BASE = [17.27, 17.26, 17.39, 17.27, 17.26, 17.39, 17.27, 17.28, 17.30, 17.27]


def test_claim_needs_nine_tenths_of_ten_pairs_and_a_gap_beyond_the_base_spread():
    """A claim holds when the change is better in at least 9 of 10 pairs
    (a tie counts for neither side) and its median is better than the
    base's by more than the base's interquartile distance."""
    met = pairs.summarize(BASE, [16.89] * 10)
    assert met["claim_met"] and met["change_better_pairs"] == 10
    assert met["base_quartiles"] == [17.27, 17.27, 17.295]
    # a tie and a loss leave 8 of 10 pairs
    assert not pairs.summarize(BASE, [16.89] * 8 + [17.30, 17.40])["claim_met"]
    # better in every pair, but by less than the base's spread
    wide = [17.0, 18.0] * 5
    assert not pairs.summarize(wide, [v - 0.1 for v in wide])["claim_met"]
    # nine pairs are too few
    assert not pairs.summarize(BASE[:9], [16.89] * 9)["claim_met"]
    # for a metric where higher is better the sides swap roles
    assert pairs.summarize([16.89] * 10, BASE, lower_is_better=False)["claim_met"]
    assert not pairs.summarize(BASE, [16.89] * 10, lower_is_better=False)["claim_met"]
