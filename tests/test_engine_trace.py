"""The engine's record of dispatched events: the flight recorder.

Every workload manager installs one :class:`FlightRecorder`, and the
simulator feeds it each event it dispatches; these tests pin what a
record holds (order, label), its default bound and its text dump.
"""

from repro.diagnostics.recorder import RING_SIZE, FlightRecorder
from repro.engine.events import Event, EventKind


def ev(time: float, kind: EventKind = EventKind.JOB_SUBMIT, payload=None) -> Event:
    event = Event(time=time, kind=kind, payload=payload)
    event.seq = int(time * 10)
    return event


class Payload:
    def __init__(self, job_id):
        self.job_id = job_id


class TestEventTrace:
    def test_records_in_order(self):
        recorder = FlightRecorder()
        recorder.record(ev(1.0))
        recorder.record(ev(2.0, EventKind.JOB_FINISH))
        assert [(r["time"], r["kind"], r["seq"]) for r in recorder.tail()] == [
            (1.0, "JOB_SUBMIT", 10),
            (2.0, "JOB_FINISH", 20),
        ]

    def test_label_from_payload_job_id(self):
        recorder = FlightRecorder()
        recorder.record(ev(1.0, payload=Payload(42)))
        assert recorder.last()["label"] == "42"

    def test_label_empty_without_payload(self):
        recorder = FlightRecorder()
        recorder.record(ev(1.0))
        assert recorder.last()["label"] == ""

    def test_limit_drops_oldest(self):
        recorder = FlightRecorder()
        assert recorder.limit == RING_SIZE
        for t in range(RING_SIZE + 5):
            recorder.record(ev(float(t)))
        assert len(recorder) == RING_SIZE
        assert recorder.dropped == 5
        assert recorder.tail()[0]["time"] == 5.0

    def test_format_tail(self):
        recorder = FlightRecorder()
        for t in range(5):
            recorder.record(ev(float(t)))
        text = recorder.format(last=2)
        assert text.count("\n") == 1
        assert "JOB_SUBMIT" in text
        assert "#40" in text
