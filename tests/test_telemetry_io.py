"""Shared JSONL archive loading and malformed-line reporting."""

import pytest

from repro.telemetry.events import Event, JsonlSink
from repro.telemetry.io import (
    MalformedLineError,
    load_attribution_runs,
    read_events,
)

GOOD = ('{"kind":"run.started","cycle":0,"benchmark":"x"}\n'
        '{"kind":"segment.built","cycle":7,"start_pc":64}\n')


def test_read_events_roundtrip(tmp_path):
    path = tmp_path / "events.jsonl"
    with JsonlSink(path) as sink:
        sink.handle(Event("run.started", 0, {"benchmark": "x"}))
        sink.handle(Event("segment.built", 7, {"start_pc": 64}))
    events = read_events(path)
    assert [e.kind for e in events] == ["run.started", "segment.built"]
    assert events[1].cycle == 7 and events[1].data == {"start_pc": 64}


def test_blank_lines_are_not_malformed(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(GOOD.replace("\n", "\n\n"))
    assert len(read_events(path)) == 2


@pytest.mark.parametrize("bad_line,reason_part", [
    ('{"kind": truncated', "invalid JSON"),
    ('[1, 2, 3]', "not a JSON object"),
    ('{"cycle": 5}', "missing 'kind'"),
])
def test_malformed_line_raises_with_location(tmp_path, bad_line,
                                             reason_part):
    path = tmp_path / "events.jsonl"
    path.write_text(GOOD + bad_line + "\n")
    with pytest.raises(MalformedLineError) as excinfo:
        read_events(path)
    error = excinfo.value
    assert error.line_no == 3
    assert error.path == str(path)
    assert reason_part in error.reason
    assert str(path) in str(error) and ":3:" in str(error)


def test_long_snippet_is_truncated(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("x" * 200 + "\n")
    with pytest.raises(MalformedLineError) as excinfo:
        read_events(path)
    assert len(excinfo.value.snippet) == 60
    assert excinfo.value.snippet.endswith("...")


def test_warn_mode_keeps_good_lines(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text(GOOD + "not json\n" + GOOD)
    events = read_events(path, on_error="warn")
    assert len(events) == 4
    assert "malformed event line" in capsys.readouterr().err


def test_skip_mode_is_silent(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text("not json\n" + GOOD)
    assert len(read_events(path, on_error="skip")) == 2
    assert capsys.readouterr().err == ""


def test_unknown_mode_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(GOOD)
    with pytest.raises(ValueError, match="on_error"):
        read_events(path, on_error="ignore")


def test_load_attribution_runs(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text(
        '{"kind":"run.started","cycle":0}\n'
        '{"kind":"run.finished","cycle":90,"benchmark":"compress",'
        '"label":"all","cycles":90,"attribution":{"base":90}}\n'
        '{"kind":"run.finished","cycle":50,"benchmark":"li",'
        '"label":"none","cycles":50}\n')
    runs = load_attribution_runs(path)
    assert runs == [("compress/all", 90, {"base": 90}),
                    ("li/none", 50, {})]
