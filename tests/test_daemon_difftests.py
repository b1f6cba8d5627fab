"""The read service's schedule is a difftest ``ArraySchedule``."""

from repro.codes import xorbas_lrc
from repro.difftest import assert_bit_identical


class TestReadScheduleIsArraySchedule:
    def test_read_schedule_uses_framework(self):
        from repro.cluster.degraded import DegradedReadConfig
        from repro.cluster.readservice import ReadSchedule
        from repro.difftest import ArraySchedule

        config = DegradedReadConfig(
            num_nodes=20, num_stripes=50, duration=500.0, read_rate=0.5
        )
        schedule = ReadSchedule.draw(config, xorbas_lrc(), seed=3)
        assert isinstance(schedule, ArraySchedule)
        assert set(schedule.arrays()) == {
            "outage_node",
            "outage_start",
            "outage_duration",
            "read_time",
            "read_stripe",
            "read_position",
        }
        assert schedule.same_as(ReadSchedule.draw(config, xorbas_lrc(), seed=3))
        assert not schedule.same_as(
            ReadSchedule.draw(config, xorbas_lrc(), seed=4)
        )
        assert_bit_identical(schedule.read_time, schedule.read_time.copy())
