import pytest

from perfbench import speed


def _probe(samples):
    probe = speed.SpeedProbe()
    probe.times = [t for t, _ in samples]
    probe.cpu_s = [c for _, c in samples]
    return probe


def test_short_interval_averages_the_window_around_its_middle():
    probe = _probe([(0.0, 1.0), (9.5, 2.0), (10.5, 4.0), (12.0, 8.0)])
    assert probe.local_cpu_s(10.0, 10.01) == pytest.approx(3.0)


def test_long_interval_averages_the_samples_inside_it():
    probe = _probe([(0.0, 1.0), (5.0, 2.0), (15.0, 4.0), (30.0, 8.0)])
    assert probe.local_cpu_s(4.0, 16.0) == pytest.approx(3.0)


def test_factor_is_reference_over_local_probe_time():
    slow = speed.REFERENCE_CPU_S * 1.25
    probe = _probe([(1.0, slow), (2.0, slow)])
    assert probe.factor(1.0, 2.0) == pytest.approx(0.8)


def test_interval_without_samples_is_refused():
    with pytest.raises(RuntimeError):
        _probe([(0.0, 1.0)]).local_cpu_s(10.0, 11.0)


def test_probe_samples_while_running():
    with speed.SpeedProbe() as probe:
        while len(probe.cpu_s) < 3:
            speed.reference_work()
    assert probe.times == sorted(probe.times)
    assert all(c > 0 for c in probe.cpu_s)
