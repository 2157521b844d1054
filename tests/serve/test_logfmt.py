"""logfmt formatting, parsing round-trips, and the thread-safe AccessLog."""

from __future__ import annotations

import threading

from repro.serve.logfmt import MEMORY_LINES, AccessLog, logfmt, parse_logfmt


class TestLogfmt:
    def test_plain_values_unquoted(self):
        assert logfmt({"a": 1, "b": "x", "c": "path/to/thing"}) == "a=1 b=x c=path/to/thing"

    def test_booleans_lowercase(self):
        assert logfmt({"ok": True, "bad": False}) == "ok=true bad=false"

    def test_floats_three_decimals(self):
        assert logfmt({"ms": 12.34567}) == "ms=12.346"

    def test_none_is_dash(self):
        assert logfmt({"x": None}) == "x=-"

    def test_space_forces_quotes(self):
        assert logfmt({"msg": "two words"}) == 'msg="two words"'

    def test_empty_string_quoted(self):
        assert logfmt({"x": ""}) == 'x=""'

    def test_quotes_and_equals_escaped(self):
        line = logfmt({"m": 'say "hi" a=b'})
        assert parse_logfmt(line)["m"] == 'say "hi" a=b'

    def test_newline_and_tab_escaped(self):
        line = logfmt({"m": "a\nb\tc"})
        assert "\n" not in line
        assert parse_logfmt(line)["m"] == "a\nb\tc"

    def test_key_order_preserved(self):
        line = logfmt({"z": 1, "a": 2})
        assert line.startswith("z=")


class TestParseLogfmt:
    def test_round_trip(self):
        fields = {
            "event": "request",
            "path": "/v1/experiments/fig1",
            "status": 200,
            "ms": 1.5,
            "note": 'has "quotes" and = signs',
            "blank": "",
        }
        parsed = parse_logfmt(logfmt(fields))
        assert parsed == {
            "event": "request",
            "path": "/v1/experiments/fig1",
            "status": "200",
            "ms": "1.500",
            "note": 'has "quotes" and = signs',
            "blank": "",
        }

    def test_tolerates_extra_spaces(self):
        assert parse_logfmt("a=1   b=2") == {"a": "1", "b": "2"}

    def test_empty_line(self):
        assert parse_logfmt("") == {}


class TestAccessLog:
    def test_memory_buffer_and_events(self):
        log = AccessLog()
        log.write("request", path="/healthz", status=200)
        log.write("breaker.open", reason="corrupt")
        assert len(log.lines()) == 2
        events = log.events("breaker.open")
        assert len(events) == 1
        assert events[0]["reason"] == "corrupt"

    def test_every_record_has_timestamp_and_event_first(self):
        log = AccessLog()
        log.write("x", a=1)
        line = log.lines()[0]
        assert line.startswith("ts=")
        assert "event=x" in line

    def test_writes_to_file(self, tmp_path):
        target = tmp_path / "logs" / "access.log"
        log = AccessLog(target)
        log.write("request", status=200)
        log.close()
        content = target.read_text().strip().splitlines()
        assert len(content) == 1
        assert parse_logfmt(content[0])["status"] == "200"

    def test_appends_across_instances(self, tmp_path):
        target = tmp_path / "access.log"
        first = AccessLog(target)
        first.write("a")
        first.close()
        second = AccessLog(target)
        second.write("b")
        second.close()
        assert len(target.read_text().strip().splitlines()) == 2

    def test_concurrent_writers_never_interleave(self, tmp_path):
        target = tmp_path / "access.log"
        log = AccessLog(target)
        per_thread = 50

        def writer(index: int) -> None:
            for i in range(per_thread):
                log.write("request", thread=index, i=i, msg="two words here")

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 8 * per_thread
        for line in lines:
            parsed = parse_logfmt(line)
            assert parsed["event"] == "request"
            assert parsed["msg"] == "two words here"

    def test_memory_copy_is_a_ring_of_the_newest_lines(self, tmp_path):
        target = tmp_path / "access.log"
        log = AccessLog(target)
        total = MEMORY_LINES + 500
        for i in range(total):
            if i == total - 10:
                log.write("breaker.open", reason="corrupt")
            else:
                log.write("request", i=i)
        log.close()
        lines = log.lines()
        assert len(lines) == MEMORY_LINES
        indices = [int(parse_logfmt(line).get("i", -1)) for line in lines]
        assert indices[0] == total - MEMORY_LINES
        assert [i for i in indices if i >= 0] == sorted(i for i in indices if i >= 0)
        assert parse_logfmt(lines[-1])["i"] == str(total - 1)
        assert [e["reason"] for e in log.events("breaker.open")] == ["corrupt"]
        # The file sink still has every line.
        assert len(target.read_text().splitlines()) == total
