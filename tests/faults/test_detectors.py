from repro.faults import TimingCheck


class TestTimingCheck:
    def test_flags_deadline_violation(self):
        check = TimingCheck("scp", deadline=0.25)
        record = check.check(10.0, 0.4)
        assert record is not None
        assert record.component == "scp"
        assert record.detected
        assert record.message_id == 910
        assert record.message == "deadline exceeded: 0.4000 > 0.2500"

    def test_passes_fast_response(self):
        check = TimingCheck("scp", deadline=0.25)
        assert check.check(10.0, 0.1) is None

    def test_counters(self):
        check = TimingCheck("scp", deadline=1.0)
        check.check(0.0, 0.5)
        check.check(1.0, 2.0)
        assert check.checks_run == 2
        assert check.errors_found == 1

