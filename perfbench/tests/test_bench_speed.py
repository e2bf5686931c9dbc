import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def probes_at(clock, schedule):
    """Probes taken at the given (start, duration) times."""
    durations = iter([d for _, d in schedule])

    def run(c):
        d = next(durations)
        clock.now += d
        return d

    probes = speed.Probes(clock, run)
    for start, _ in schedule:
        clock.now = start
        probes.record()
    return probes


def test_probe_time_is_taken_out_of_the_work_it_interrupted():
    clock = FakeClock()
    nominal = speed.NOMINAL_PROBE_S
    probes = probes_at(clock, [(0.0, nominal), (1.0, nominal), (2.0, nominal)])
    assert probes.busy(0.5, 2.5) == pytest.approx(2 * nominal)
    raw, norm = probes.normalise(0.5, 2.5)
    assert raw == pytest.approx(2.0 - 2 * nominal)
    assert norm == pytest.approx(raw)


def test_a_slow_machine_is_scaled_down_by_the_probe_median():
    clock = FakeClock()
    nominal = speed.NOMINAL_PROBE_S
    # probes at twice, twice and ten times the nominal time: median 2x
    probes = probes_at(clock, [(1.0, 2 * nominal), (1.05, 10 * nominal),
                               (1.1, 2 * nominal)])
    assert probes.factor(1.0, 1.2) == pytest.approx(0.5)
    # a probe far from the work does not count
    assert probes.factor(5.0, 5.1) == pytest.approx(0.5)


def test_without_a_nearby_probe_the_nearest_ones_count():
    clock = FakeClock()
    nominal = speed.NOMINAL_PROBE_S
    probes = probes_at(clock, [(0.0, nominal), (3.0, 4 * nominal)])
    # work in between: the probes before and after, median of the two
    assert probes.factor(1.0, 1.5) == pytest.approx(1 / 2.5)
    assert probes.factor(9.0, 9.5) == pytest.approx(0.25)


def test_the_real_probe_runs_and_returns_its_duration():
    assert 0 < speed.probe() < 1
