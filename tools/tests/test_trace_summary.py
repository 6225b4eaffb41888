"""Unit tests for tools/trace_summary.py.

Covers the contracts CI leans on: valid trace documents roll up into
correct per-span (with self time) and per-phase tables; --max-run-self
fails a run span whose unattributed share is too large; and anything
malformed — wrong document shape, events missing required keys, unknown
event phases — or lossy (nonzero dropped-span count) fails LOUDLY with a
nonzero exit so the gate cannot silently pass on an incomplete summary.

Stdlib only; run with `python3 -m unittest discover tools/tests`.
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

import trace_summary


def span(name, ts, dur, tid=1, args=None):
    event = {"ph": "X", "name": name, "ts": ts, "dur": dur, "tid": tid,
             "pid": 1}
    if args is not None:
        event["args"] = args
    return event


def valid_doc():
    """Two phases on one thread; phase 1 encloses two rounds and one
    subphase, phase 2 encloses one round. One flood round floats outside
    any phase (cold-path warmup) and must not be attributed."""
    return {
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": "byzbench"}},
            span("count.phase", 100, 400, args={"phase": 1}),
            span("flood.round", 120, 50, args={"tokens": 7}),
            span("flood.round", 200, 60, args={"tokens": 3}),
            span("count.subphase", 300, 80, args={"subphase": 2}),
            span("count.phase", 600, 200, args={"phase": 2}),
            span("flood.round", 650, 40, args={"tokens": 11}),
            span("flood.round", 20, 30, args={"tokens": 99}),  # orphan
        ],
        "otherData": {"dropped": 0},
    }


def write_doc(doc):
    fh = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False,
                                     encoding="utf-8")
    json.dump(doc, fh)
    fh.close()
    return fh.name


class LoadEventsTest(unittest.TestCase):
    def tearDown(self):
        if getattr(self, "path", None) and os.path.exists(self.path):
            os.unlink(self.path)

    def load(self, doc):
        self.path = write_doc(doc)
        return trace_summary.load_events(self.path)

    def test_valid_document_loads_and_skips_metadata(self):
        spans, dropped = self.load(valid_doc())
        self.assertEqual(len(spans), 7)  # M event skipped
        self.assertEqual(dropped, 0)
        self.assertTrue(all(e["ph"] == "X" for e in spans))

    def test_dropped_count_surfaces(self):
        doc = valid_doc()
        doc["otherData"]["dropped"] = 42
        _, dropped = self.load(doc)
        self.assertEqual(dropped, 42)

    def test_missing_trace_events_key_raises(self):
        with self.assertRaisesRegex(trace_summary.TraceError,
                                    "no traceEvents key"):
            self.load({"displayTimeUnit": "ms"})

    def test_trace_events_not_a_list_raises(self):
        with self.assertRaisesRegex(trace_summary.TraceError, "not a list"):
            self.load({"traceEvents": {"ph": "X"}})

    def test_event_missing_name_raises(self):
        with self.assertRaisesRegex(trace_summary.TraceError, "lacks ph/name"):
            self.load({"traceEvents": [{"ph": "X", "ts": 1, "dur": 1,
                                        "tid": 1}]})

    def test_unknown_event_phase_raises(self):
        # Schema drift: a future exporter emitting B/E pairs instead of X
        # must trip the validator, not silently produce empty tables.
        with self.assertRaisesRegex(trace_summary.TraceError,
                                    "unexpected ph='B'"):
            self.load({"traceEvents": [{"ph": "B", "name": "count.phase",
                                        "ts": 1, "tid": 1}]})

    def test_event_missing_numeric_field_raises(self):
        doc = {"traceEvents": [{"ph": "X", "name": "flood.round", "ts": 1,
                                "dur": "fast", "tid": 1}]}
        with self.assertRaisesRegex(trace_summary.TraceError,
                                    "lacks numeric dur"):
            self.load(doc)

    def test_unreadable_file_raises(self):
        with self.assertRaises(trace_summary.TraceError):
            trace_summary.load_events("/nonexistent/trace.json")

    def test_non_json_file_raises(self):
        self.path = write_doc({})  # placeholder to get a real path
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("not json {")
        with self.assertRaises(trace_summary.TraceError):
            trace_summary.load_events(self.path)


class RollupTest(unittest.TestCase):
    def setUp(self):
        self.spans = [e for e in valid_doc()["traceEvents"]
                      if e["ph"] == "X"]

    def test_per_name_table_aggregates_and_sorts_by_total(self):
        rows = trace_summary.per_name_table(
            self.spans, trace_summary.self_times(self.spans))
        by_name = {r["span"]: r for r in rows}
        self.assertEqual(by_name["count.phase"]["count"], 2)
        self.assertEqual(by_name["count.phase"]["total_us"], 600.0)
        self.assertEqual(by_name["count.phase"]["mean_us"], 300.0)
        self.assertEqual(by_name["flood.round"]["count"], 4)
        self.assertEqual(by_name["flood.round"]["total_us"], 180.0)
        totals = [r["total_us"] for r in rows]
        self.assertEqual(totals, sorted(totals, reverse=True))
        # Phase 1 encloses 190 us of children, phase 2 encloses 40 us.
        self.assertEqual(by_name["count.phase"]["self_us"], 370.0)
        self.assertEqual(by_name["flood.round"]["self_us"], 180.0)

    def test_per_phase_attribution_by_containment(self):
        rows = trace_summary.per_phase_table(self.spans)
        by_phase = {r["phase"]: r for r in rows}
        self.assertEqual(set(by_phase), {1, 2})
        self.assertEqual(by_phase[1]["rounds"], 2)
        self.assertEqual(by_phase[1]["tokens"], 10)
        self.assertEqual(by_phase[1]["subphases"], 1)
        self.assertEqual(by_phase[2]["rounds"], 1)
        self.assertEqual(by_phase[2]["tokens"], 11)
        # The orphan round (outside every phase) is attributed nowhere.
        self.assertEqual(sum(r["rounds"] for r in rows), 3)

    def test_cross_thread_spans_not_attributed(self):
        spans = [span("count.phase", 0, 1000, tid=1, args={"phase": 5}),
                 span("flood.round", 100, 10, tid=2, args={"tokens": 1})]
        rows = trace_summary.per_phase_table(spans)
        self.assertEqual(rows[0]["rounds"], 0)

    def test_innermost_phase_wins_on_nesting(self):
        spans = [span("engine.phase", 0, 1000, args={"phase": 1}),
                 span("engine.phase", 100, 100, args={"phase": 2}),
                 span("engine.round", 120, 10, args={"tokens": 4})]
        rows = trace_summary.per_phase_table(spans)
        by_phase = {r["phase"]: r for r in rows}
        self.assertEqual(by_phase[2]["rounds"], 1)
        self.assertEqual(by_phase[1]["rounds"], 0)


def run_doc(run_name="count.run"):
    """A 1000 us run: setup [0, 300) holding a 190 us crash rule, then a
    phase [400, 700) holding one 100 us round. The run's own self time is
    1000 - 300 - 300 = 400 us. A span on another thread overlaps it."""
    return {
        "traceEvents": [
            span(run_name, 0, 1000),
            span("count.setup", 0, 300),
            span("count.crash_rule", 10, 190),
            span("count.phase", 400, 300, args={"phase": 1}),
            span("flood.round", 450, 100, args={"tokens": 1}),
            span("flood.round", 100, 500, tid=2),
        ],
        "otherData": {"dropped": 0},
    }


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.spans = run_doc()["traceEvents"]

    def test_self_time_subtracts_direct_children_only(self):
        selfs = trace_summary.self_times(self.spans)
        self.assertEqual(selfs, [400.0, 110.0, 190.0, 200.0, 100.0, 500.0])

    def test_sibling_after_parent_is_not_a_child(self):
        spans = [span("count.setup", 0, 100), span("count.phase", 100, 50),
                 span("flood.round", 100, 0)]
        self.assertEqual(trace_summary.self_times(spans), [100.0, 50.0, 0.0])

    def test_run_self_violations(self):
        selfs = trace_summary.self_times(self.spans)
        self.assertEqual(
            trace_summary.run_self_violations(self.spans, selfs, 0.5), [])
        messages = trace_summary.run_self_violations(self.spans, selfs, 0.3)
        self.assertEqual(len(messages), 1)
        self.assertIn("count.run", messages[0])
        self.assertIn("0.400", messages[0])

    def test_no_run_span_is_not_a_pass(self):
        spans = [span("count.phase", 0, 10)]
        self.assertIsNone(trace_summary.run_self_violations(
            spans, trace_summary.self_times(spans), 0.5))


class MainExitCodeTest(unittest.TestCase):
    def tearDown(self):
        if getattr(self, "path", None) and os.path.exists(self.path):
            os.unlink(self.path)

    def run_main(self, doc, *flags):
        self.path = write_doc(doc)
        out, err = io.StringIO(), io.StringIO()
        old = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = trace_summary.main(["trace_summary.py", self.path, *flags])
        finally:
            sys.stdout, sys.stderr = old
        return code, out.getvalue(), err.getvalue()

    def test_valid_trace_exits_zero(self):
        code, out, err = self.run_main(valid_doc())
        self.assertEqual(code, 0)
        self.assertIn("per-span cost", out)
        self.assertIn("per-phase cost", out)
        self.assertEqual(err, "")

    def test_json_mode_round_trips(self):
        code, out, _ = self.run_main(valid_doc(), "--json")
        self.assertEqual(code, 0)
        doc = json.loads(out)
        self.assertEqual(doc["dropped"], 0)
        self.assertTrue(doc["spans"])
        self.assertTrue(doc["phases"])

    def test_dropped_spans_exit_nonzero(self):
        doc = valid_doc()
        doc["otherData"]["dropped"] = 3
        code, _, err = self.run_main(doc)
        self.assertEqual(code, 1)
        self.assertIn("3 spans were dropped", err)

    def test_run_self_share_under_limit_exits_zero(self):
        code, out, err = self.run_main(run_doc("engine.run"),
                                       "--max-run-self", "0.5")
        self.assertEqual(code, 0)
        self.assertIn("self_us", out)
        self.assertEqual(err, "")

    def test_run_self_share_over_limit_exits_nonzero(self):
        code, _, err = self.run_main(run_doc(), "--max-run-self", "0.35")
        self.assertEqual(code, 1)
        self.assertIn("count.run", err)
        self.assertIn("limit 0.35", err)

    def test_max_run_self_without_run_span_exits_nonzero(self):
        code, _, err = self.run_main(valid_doc(), "--max-run-self", "0.5")
        self.assertEqual(code, 1)
        self.assertIn("no count.run / engine.run span", err)

    def test_malformed_input_exits_nonzero(self):
        code, _, err = self.run_main({"events": []})
        self.assertEqual(code, 1)
        self.assertIn("ERROR", err)


if __name__ == "__main__":
    unittest.main()
