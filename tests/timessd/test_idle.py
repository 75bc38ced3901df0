import pytest

from repro.common.idle import IdlePredictor


def test_starts_pessimistic():
    predictor = IdlePredictor(threshold_us=10_000)
    assert not predictor.would_compress


def test_exponential_smoothing_formula():
    predictor = IdlePredictor(alpha=0.5)
    predictor.observe_gap(1000)
    assert predictor.predicted_us == pytest.approx(500)
    predictor.observe_gap(1000)
    assert predictor.predicted_us == pytest.approx(750)


def test_converges_to_steady_gap():
    predictor = IdlePredictor(alpha=0.5)
    for _ in range(30):
        predictor.observe_gap(20_000)
    assert predictor.predicted_us == pytest.approx(20_000, rel=1e-3)


def test_long_gaps_enable_compression():
    predictor = IdlePredictor(alpha=0.5, threshold_us=10_000)
    for _ in range(10):
        predictor.observe_gap(50_000)
    assert predictor.would_compress


def test_bursty_traffic_disables_compression():
    predictor = IdlePredictor(alpha=0.5, threshold_us=10_000)
    for _ in range(10):
        predictor.observe_gap(50_000)
    for _ in range(12):
        predictor.observe_gap(10)
    assert not predictor.would_compress


def test_alpha_bounds():
    with pytest.raises(ValueError):
        IdlePredictor(alpha=0)
    with pytest.raises(ValueError):
        IdlePredictor(alpha=1.5)


def test_negative_gap_rejected():
    with pytest.raises(ValueError):
        IdlePredictor().observe_gap(-1)


def test_gap_count_tracked():
    predictor = IdlePredictor()
    predictor.observe_gap(10)
    predictor.observe_gap(20)
    assert predictor.observed_gaps == 2
