"""Rate-region dict tests: the two readers agree on every region the library builds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secembed import fm, gauss, regions

unit = st.floats(0.0, 1.0)
rate = st.floats(0.0, 10.0)


@st.composite
def built_regions(draw):
    """(region, its largest R1) from fm instantiation, a corner or a naive hull."""
    kind = draw(st.sampled_from(["instantiate", "corner", "naive"]))
    if kind == "instantiate":
        ixy, ixz1, ixz2 = draw(rate), draw(rate), draw(rate)
        region = fm.derive_nested_binning_region().instantiate(
            {"I_XY": ixy, "I_XZ1": ixz1, "I_XZ2": ixz2})
        return region, max(min(ixy - ixz1, ixy - ixz2), 0.0)
    if kind == "corner":
        r1_max, sum_max = draw(rate), draw(rate)
        return regions.corner_region(r1_max, sum_max), min(r1_max, sum_max)
    b1, b2 = sorted((draw(rate), draw(rate)), reverse=True)
    naive = gauss.naive_region(gauss.ScalarGaussChannel(draw(rate), draw(rate), b1, b2))
    return naive["region"], naive["cap_high"]


@settings(max_examples=200)
@given(case=built_regions(), frac=unit)
def test_contains_agrees_with_max_r2_at(case, frac):
    region, largest_r1 = case
    r1 = frac * largest_r1
    m = regions.max_r2_at(region, r1)
    if m is None:
        assert not regions.contains(region, (r1, 0.0))
    else:
        assert regions.contains(region, (r1, 0.0))
        assert regions.contains(region, (r1, m))
        assert not regions.contains(region, (r1, m + 1e-6))


def test_max_r2_at_needs_two_variables():
    three = regions.region(("R1", "R2", "T"), [((1.0, 1.0, 1.0), 1.0, False)])
    with pytest.raises(ValueError, match="^max_r2_at applies to two-variable regions$"):
        regions.max_r2_at(three, 0.5)
