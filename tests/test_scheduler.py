"""The weighted sweep is the figures' scheduler: a serial fallback or an
empty schedule must behave exactly like the serial loop.  The pooled and
fleet cases live in ``tests/test_parallel_sweep.py``.
"""

import os

from repro.experiments.runner import sweep, sweep_session


def _tagged_square(point):
    return (os.getpid(), point * point)


class TestScheduleEqualsSerial:
    def test_repro_serial_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        with sweep_session() as session:
            tags = sweep(_tagged_square, list(range(4)), processes=4,
                         weights=[0, 3, 1, 2])
            assert session.pool is None
            assert session.pooled_sweeps == 0
        assert [square for _pid, square in tags] == [0, 1, 4, 9]
        assert all(pid == os.getpid() for pid, _square in tags)

    def test_empty_schedule(self):
        assert sweep(_tagged_square, [], processes=4, weights=[]) == []
        with sweep_session() as session:
            assert sweep(_tagged_square, [], processes=4) == []
            assert session.pool is None
