"""Structured race reports: schema, merging, rendering, flow events."""

import dataclasses
import json

import pytest

from repro.detectors.base import Race
from repro.detectors.fasttrack import FastTrackDetector
from repro.obs.perfetto import (
    PID_RACES,
    chrome_trace,
    race_flow_events,
    validate_chrome_trace,
)
from repro.obs.provenance import FlightRecorder, SyncIndex
from repro.obs.reports import (
    REPORT_SCHEMA,
    build_report,
    merge_reports,
    render_report_markdown,
    render_report_table,
    validate_report,
    write_report,
)
from repro.trace.events import fork, wr


def make_race(**kw):
    defaults = dict(
        var=7,
        kind="ww",
        first_tid=0,
        first_clock=1,
        first_site=11,
        second_tid=1,
        second_site=22,
        index=5,
        first_index=2,
    )
    defaults.update(kw)
    return Race(**defaults)


def sample_races():
    return [
        make_race(index=5, first_index=2),
        make_race(index=9, first_index=2, kind="wr", second_tid=2),
        make_race(first_site=1, second_site=2, var=8, index=3, first_index=1),
    ]


class TestBuildReport:
    def test_groups_by_site_pair(self):
        doc = build_report(sample_races(), source="test", detector="ft", events=100)
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["dynamic_races"] == 3
        assert doc["distinct_races"] == 2
        # groups sorted by site pair: (1, 2) before (11, 22)
        assert [(g["first_site"], g["second_site"]) for g in doc["races"]] == [
            (1, 2),
            (11, 22),
        ]
        g = doc["races"][1]
        assert g["count"] == 2
        assert g["kinds"] == ["ww", "wr"] or g["kinds"] == sorted(["ww", "wr"])
        assert g["first_vt"] == 5 and g["last_vt"] == 9
        assert g["second_tids"] == [1, 2]

    def test_string_sites_sort_after_ints(self):
        races = [
            make_race(first_site="z.py:1", second_site="a.py:2"),
            make_race(first_site=50, second_site=60),
        ]
        doc = build_report(races, source="test")
        assert doc["races"][0]["first_site"] == 50
        assert doc["races"][1]["first_site"] == "z.py:1"

    def test_site_names_resolved(self):
        doc = build_report(
            sample_races(), source="test", site_name=lambda s: f"name<{s}>"
        )
        assert doc["races"][0]["first_site_name"] == "name<1>"

    def test_witness_and_context_attached_to_representative(self):
        trace = [fork(0, 1), wr(0, 5, 11), wr(1, 5, 22)]
        detector = FastTrackDetector()
        recorder = FlightRecorder()
        for index, event in enumerate(trace):
            recorder.record(index, event.kind, event.tid, event.target, event.site)
        detector.run(trace)
        contexts = [recorder.capture(r) for r in detector.races]
        doc = build_report(
            detector.races,
            source="test",
            sync=SyncIndex.from_trace(trace),
            contexts=contexts,
        )
        g = doc["races"][0]
        assert g["witness"]["verdict"] == "no-release"
        assert g["context"]["second"]["events"]
        assert validate_report(doc) == []

    def test_empty_report_is_valid(self):
        doc = build_report([], source="test")
        assert doc["dynamic_races"] == 0 and doc["races"] == []
        assert validate_report(doc) == []


class TestValidateReport:
    def good(self):
        return build_report(sample_races(), source="test", detector="ft", events=9)

    def test_good_report_has_no_problems(self):
        assert validate_report(self.good()) == []

    def test_wrong_schema_flagged(self):
        doc = self.good()
        doc["schema"] = "nope/v0"
        assert any("schema" in p for p in validate_report(doc))

    def test_count_mismatch_flagged(self):
        doc = self.good()
        doc["races"][0]["count"] += 1
        assert any("dynamic_races" in p for p in validate_report(doc))

    def test_bad_kind_flagged(self):
        doc = self.good()
        doc["races"][0]["kinds"] = ["zz"]
        assert any("kinds" in p for p in validate_report(doc))

    def test_bad_witness_verdict_flagged(self):
        doc = self.good()
        doc["races"][0]["witness"] = {"verdict": "maybe", "summary": "?"}
        assert any("verdict" in p for p in validate_report(doc))

    def test_non_dict_rejected(self):
        assert validate_report([]) != []


class TestReportFromSigs:
    def test_matches_build_report(self):
        races = sample_races()
        via_sigs = build_report(
            [Race.from_sig(r.sig) for r in races],
            source="t", detector="ft", events=4,
        )
        direct = build_report(races, source="t", detector="ft", events=4)
        assert json.dumps(via_sigs, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_from_sig_round_trips_all_but_first_clock(self):
        for race in sample_races() + [
            make_race(var=7, kind="rw", first_tid=3, first_clock=9,
                      first_site="a.py:1", second_tid=4,
                      second_site="b.py:2", index=40, first_index=12),
        ]:
            back = Race.from_sig(race.sig)
            assert back.sig == race.sig
            assert back.first_clock == -1
            assert back == dataclasses.replace(race, first_clock=-1)


class TestMergeReports:
    def test_counts_sum_and_bounds_stretch(self):
        a = build_report(
            [make_race(index=5)], source="t", detector="ft", backend="object", events=10
        )
        b = build_report(
            [make_race(index=50), make_race(index=2, first_index=0)],
            source="t",
            detector="ft",
            backend="object",
            events=20,
        )
        merged = merge_reports([a, b])
        assert merged["events"] == 30
        assert merged["dynamic_races"] == 3
        assert merged["distinct_races"] == 1
        g = merged["races"][0]
        assert g["count"] == 3
        assert g["first_vt"] == 2 and g["last_vt"] == 50
        assert merged["detector"] == "ft"
        assert merged["backend"] == "object"
        assert validate_report(merged) == []

    def test_conflicting_labels_collapse_to_star(self):
        a = build_report([], source="t", backend="object")
        b = build_report([], source="t", backend="packed")
        assert merge_reports([a, b])["backend"] == "*"

    def test_merge_of_nothing(self):
        doc = merge_reports([])
        assert doc["dynamic_races"] == 0
        assert validate_report(doc) == []


class TestRendering:
    def test_table_lists_sites_and_verdicts(self):
        trace = [fork(0, 1), wr(0, 5, 11), wr(1, 5, 22)]
        detector = FastTrackDetector()
        detector.run(trace)
        doc = build_report(
            detector.races,
            source="test",
            detector="fasttrack",
            sync=SyncIndex.from_trace(trace),
            site_name=lambda s: f"src.py:{s}",
        )
        text = render_report_table(doc)
        assert "src.py:11" in text and "src.py:22" in text
        assert "no-release" in text
        assert "1 dynamic race reports" in text

    def test_table_without_races(self):
        assert "(no races reported)" in render_report_table(
            build_report([], source="t")
        )

    def test_markdown_sections(self):
        doc = build_report(
            sample_races(),
            source="test",
            detector="fasttrack",
            discarded=[
                {
                    "kind": "ww",
                    "var": 3,
                    "first_vt": 1,
                    "second_vt": 2,
                    "reason": "first access fell outside every sampling period",
                }
            ],
        )
        text = render_report_markdown(doc)
        assert text.startswith("# Race report")
        assert "## Race 1:" in text
        assert "Discarded shortest races" in text
        assert "outside every sampling period" in text

    def test_write_report_deterministic_json(self, tmp_path):
        doc = build_report(sample_races(), source="test")
        path = tmp_path / "r.json"
        write_report(path, doc)
        raw = path.read_text()
        assert raw.endswith("\n")
        loaded = json.loads(raw)
        assert loaded["schema"] == REPORT_SCHEMA
        # sorted keys => round-trip dump is identical
        assert raw == json.dumps(loaded, indent=2, sort_keys=True) + "\n"

    def test_write_report_rejects_invalid(self, tmp_path):
        doc = build_report(sample_races(), source="test")
        doc["races"][0]["count"] = 0
        with pytest.raises(ValueError):
            write_report(tmp_path / "bad.json", doc)


class TestRaceFlowEvents:
    def test_flow_pairs_link_the_accesses(self):
        races = [make_race(index=50, first_index=20)]
        events = race_flow_events(races)
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == len(finishes) == 1
        s, f = starts[0], finishes[0]
        assert s["id"] == f["id"]
        assert (s["ts"], s["tid"]) == (20, 0)
        assert (f["ts"], f["tid"]) == (50, 1)
        assert f["bp"] == "e"
        assert all(e["pid"] == PID_RACES for e in (s, f))
        assert validate_chrome_trace(chrome_trace(events)) == []

    def test_unknown_first_index_skipped(self):
        events = race_flow_events([make_race(index=5, first_index=-1)])
        assert [e for e in events if e.get("ph") in ("s", "f")] == []

    def test_limit_bounds_output(self):
        races = [make_race(index=10 + i, first_index=i) for i in range(20)]
        events = race_flow_events(races, limit=3)
        assert len([e for e in events if e.get("ph") == "s"]) == 3

    def test_site_names_in_span_names(self):
        events = race_flow_events(
            [make_race()], site_name=lambda s: f"loc{s}"
        )
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans and all("loc11" in e["name"] for e in spans)
