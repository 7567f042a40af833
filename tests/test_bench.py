import numpy as np
import pytest

from roughlq import bench

#: one classical full-state run of 100 steps
SMALL = {"run": {"observer": "fullstate"}, "simulate": {"horizon": "0.1"}}


def _raising(exc):
    def integrate(*args, **kwargs):
        raise exc

    return integrate


def test_programming_error_in_a_run_propagates(monkeypatch):
    monkeypatch.setattr(bench, "integrate", _raising(TypeError("shape bug")))
    with pytest.raises(TypeError, match="shape bug"):
        bench.run_comparison("fbm035", controllers=["classical"], seeds=[0], overrides=SMALL)


@pytest.mark.parametrize(
    "exc", [np.linalg.LinAlgError("singular matrix"), FloatingPointError("overflow")]
)
def test_numeric_failure_in_a_run_is_booked_as_divergence(monkeypatch, exc):
    monkeypatch.setattr(bench, "integrate", _raising(exc))
    report = bench.run_comparison("fbm035", controllers=["classical"], seeds=[0], overrides=SMALL)
    (record,) = report.records
    assert record.diverged
    assert record.t_diverge == 0.0
    assert record.mean_cost == float("inf")
