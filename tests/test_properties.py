"""The property-suite runner."""

from partialmetric.properties import property_run


def test_property_run_counts_an_iterator():
    result = property_run(iter(range(12)), max_n=4)
    assert result.ok
    assert result.spaces_checked == 12
    assert result.to_dict()["spaces_checked"] == 12

