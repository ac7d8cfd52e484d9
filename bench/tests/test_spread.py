import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spread import quartile_spread  # noqa: E402


def test_quartile_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert quartile_spread(values) == pytest.approx(5.5 / 5.5)
    assert quartile_spread([2.0] * 10) == 0.0
