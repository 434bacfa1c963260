"""Parsing, validation, daily deduplication, and distinct counting."""

import codecs
import csv
import io
import os
import pickle
import random
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crowdcdr import ingest, synth
from crowdcdr.errors import IngestError, SchemaError
from crowdcdr.ingest import (
    DEFAULT_WINDOW,
    INT32_MAX,
    INT32_MIN,
    INT64_MAX,
    INT64_MIN,
    IngestReport,
    ObservationColumns,
    StudyWindow,
    pack_keys,
    read_cdr,
    write_cdr,
    write_columns,
    write_table,
)
from crowdcdr.social import build_network
from crowdcdr.spatial import build_colocation_series
from helpers import (build_network_oracle, cdr_file, cdr_text, colocation_oracle,
                     columns_as_events, count_unique_handsets,
                     daily_observations, dedupe_daily, events_reduced,
                     first_day_counts, first_day_counts_oracle, from_events,
                     make_event, make_observations, observation_rows,
                     parse_cdr, reduced_rows, stays_from_observations,
                     stays_oracle, towers_with_traffic, traced_peak,
                     ts_on_day, unique_handsets_by_sort,
                     write_columns_by_format)


#: Bytes a row of ``ingest.CdrColumns`` takes (seven int64 fields and
#: three bools): what the reader held for every accepted row of a file
#: before it reduced each block.
COLUMN_BYTES_PER_ROW = 7 * 8 + 3

#: Bytes per person-day that ``read_cdr``'s traced peak stays below on
#: desk's rows 8 times over: 239 measured with the narrow first-event
#: columns, 282 before them. Most of it is
#: the 1 MiB block in hand and its parsed table, as desk has only 42k
#: person-days.
PEAK_BYTES_PER_PERSON_DAY = 255


def parse_all(text, **kwargs):
    with cdr_file(text.encode()) as path:
        return reduced_rows(read_cdr(path, **kwargs))


class TestParse:
    def test_three_clean_rows_give_three_events(self):
        events = [make_event(day=d, caller=100 + d) for d in (1, 2, 3)]
        report = IngestReport()
        out = parse_all(cdr_text(events), report=report)
        assert out == events_reduced(events)
        assert report.rows == 3
        assert report.accepted == 3
        assert sum(report.rejects.values()) == 0

    def test_text_with_nonzero_duration_rejected(self):
        good = make_event(day=1)
        bad = make_event(day=2, kind="text")
        text = cdr_text([good, bad]).replace("text,0", "text,12")
        report = IngestReport()
        out = parse_all(text, report=report)
        assert out == events_reduced([good])
        assert sum(report.rejects.values()) == 1
        assert report.rejects["text_with_duration"] == 1

    def test_missing_required_column_raises_schema_error(self):
        text = cdr_text([make_event()])
        truncated = "\n".join(
            line.rsplit(",", 1)[0] for line in text.strip().splitlines()
        )
        with pytest.raises(SchemaError, match="callee_is_customer"):
            parse_all(truncated)

    def test_empty_source_raises_schema_error(self):
        with pytest.raises(SchemaError, match="header"):
            parse_all("")

    def test_extra_columns_ignored(self):
        ev = make_event()
        lines = cdr_text([ev]).strip().splitlines()
        text = lines[0] + ",extra\n" + lines[1] + ",junk\n"
        assert parse_all(text) == events_reduced([ev])

    def test_unparseable_rows_above_tolerance_raise(self):
        rows = [cdr_text([make_event()]).strip().splitlines()[0]]
        rows += ["garbage,row,%d" % i for i in range(50)]
        with pytest.raises(IngestError, match="unparseable"):
            parse_all("\n".join(rows) + "\n")

    def test_unparseable_rows_below_tolerance_counted(self):
        events = [make_event(day=d % 80 + 1, caller=d) for d in range(200)]
        lines = cdr_text(events).strip().splitlines()
        lines.insert(5, "not,a,real,row")
        report = IngestReport()
        out = parse_all("\n".join(lines) + "\n", report=report)
        assert out == events_reduced(events)
        assert report.rejects["unparseable"] == 1

    def test_event_outside_window_rejected(self):
        late = make_event(timestamp=DEFAULT_WINDOW.end + 5)
        report = IngestReport()
        assert parse_all(cdr_text([late]), report=report) == events_reduced([])
        assert report.rejects["outside_window"] == 1

    def test_unknown_tower_rejected_when_tower_set_given(self):
        ev = make_event(tower=99)
        report = IngestReport()
        out = parse_all(cdr_text([ev]), known_towers={1, 2, 3}, report=report)
        assert out == events_reduced([])
        assert report.rejects["unknown_tower"] == 1

    def test_event_with_no_customer_party_rejected(self):
        ev = make_event(caller_customer=False, callee_customer=False)
        report = IngestReport()
        assert parse_all(cdr_text([ev]), report=report) == events_reduced([])
        assert report.rejects["no_customer_party"] == 1

    def test_customer_with_unknown_state_rejected(self):
        ev = make_event(caller_state=0)
        report = IngestReport()
        assert parse_all(cdr_text([ev]), report=report) == events_reduced([])
        assert report.rejects["customer_without_state"] == 1

    @pytest.mark.parametrize("value, accepted", [
        (2 ** 63 - 1, True), (2 ** 63, False),
        (-(2 ** 63), True), (-(2 ** 63) - 1, False),
    ])
    def test_integers_outside_int64_are_unparseable(self, value, accepted):
        events = [make_event(day=d % 80 + 1, caller=d) for d in range(200)]
        odd = make_event(day=5, caller=value)
        text = cdr_text(events + [odd])
        for parse in (lambda t, **kw: events_reduced(parse_cdr(t.encode(), **kw)),
                      parse_all):
            report = IngestReport()
            out = parse(text, report=report)
            assert out == events_reduced(events + [odd] if accepted else events)
            assert report.rejects["unparseable"] == (0 if accepted else 1)

    def test_roundtrip_through_canonical_form(self, tmp_path):
        events = [
            make_event(day=3, caller=7, kind="text"),
            make_event(day=1, caller=5, callee_customer=False, callee_state=0),
            make_event(day=90, caller=9, tower=44, duration=301),
        ]
        path = tmp_path / "events.csv"
        write_cdr(from_events(events), path)
        assert reduced_rows(read_cdr(path)) == events_reduced(events)
        path2 = tmp_path / "events2.csv"
        write_cdr(from_events(parse_cdr(path)), path2)
        assert path2.read_bytes() == path.read_bytes()

    def test_columns_written_as_csv_module_writes_them(self, tmp_path):
        cols = [np.array([3, -1, 0]), np.array(["call", "text", ""]),
                np.array([True, False, True])]
        path = tmp_path / "cols.csv"
        ingest.write_columns(path, ("a", "b", "c"), cols)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(("a", "b", "c"))
        writer.writerows(zip(*(c.tolist() for c in cols)))
        assert path.read_text(encoding="utf-8") == want.getvalue()

    @pytest.mark.parametrize("kinds", ["int", "int_bool", "int_str_bool"])
    @pytest.mark.parametrize("block", [1, 7, 20])
    def test_blocks_write_what_the_csv_module_writes(self, tmp_path,
                                                     monkeypatch, block, kinds):
        rng = np.random.default_rng(block)
        ints = rng.integers(INT64_MIN, INT64_MAX, 20, endpoint=True)
        ints[:2] = INT64_MIN, INT64_MAX
        cols = {
            "int": [ints, rng.integers(-5, 5, 20)],
            "int_bool": [ints, ints % 3 == 0],
            "int_str_bool": [ints, np.where(ints % 2 == 0, "call", "text"),
                             ints % 3 == 0],
        }[kinds]
        monkeypatch.setattr(ingest, "WRITE_BLOCK_ROWS", block)
        path = tmp_path / "cols.csv"
        header = [f"c{i}" for i in range(len(cols))]
        ingest.write_columns(path, header, cols)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() for c in cols)))
        assert path.read_text(encoding="utf-8") == want.getvalue()

    @pytest.mark.parametrize("text", ["a,b", 'say "x"', "two\nlines", "cr\r"])
    def test_write_columns_refuses_a_cell_that_needs_quoting(self, tmp_path,
                                                             text):
        path = tmp_path / "x.csv"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match="quoting"):
            ingest.write_columns(path, ("id", "kind"),
                                 [np.array([1, 2]), np.array(["call", text])])
        with pytest.raises(ValueError, match="quoting"):
            ingest.write_columns(path, ("id", text),
                                 [np.array([1]), np.array([2])])
        # Refused before the file is opened, so it keeps its bytes.
        assert path.read_bytes() == b"kept\n"


class TestDedupe:
    def test_keeps_tower_of_earliest_event(self):
        events = [
            make_event(day=3, offset=8 * 3600, caller=1, tower=5),
            make_event(day=3, offset=9 * 3600, caller=1, tower=9),
        ]
        obs = dedupe_daily(events)
        assert len(obs) == 1
        assert obs.first_tower[0] == 5
        assert obs.day[0] == 3

    def test_two_days_give_two_observations(self):
        events = [make_event(day=3, caller=1), make_event(day=4, caller=1)]
        assert dedupe_daily(events).day.tolist() == [3, 4]

    def test_equal_timestamps_tie_to_smaller_tower(self):
        events = [
            make_event(day=2, offset=60, caller=1, tower=9),
            make_event(day=2, offset=60, caller=1, tower=5),
        ]
        assert dedupe_daily(events).first_tower[0] == 5

    def test_result_is_independent_of_input_order(self):
        events = [
            make_event(day=d, offset=o, caller=c, tower=t)
            for d in (1, 2)
            for o, t in ((30, 8), (30, 2), (45, 1))
            for c in (10, 11)
        ]
        expected = observation_rows(
            dedupe_daily(sorted(events, key=lambda e: e.timestamp)))
        rng = random.Random(0)
        for _ in range(5):
            shuffled = events[:]
            rng.shuffle(shuffled)
            assert observation_rows(dedupe_daily(shuffled)) == expected

    def test_located_party_is_caller_when_customer_else_callee(self):
        caller_side = make_event(caller=1, callee=2)
        callee_side = make_event(
            caller=1, callee=2, caller_customer=False, caller_state=0
        )
        assert dedupe_daily([caller_side]).person_id[0] == 1
        assert dedupe_daily([callee_side]).person_id[0] == 2
        assert dedupe_daily([callee_side]).state_code[0] == 3

    def test_empty_input_empty_output(self):
        assert observation_rows(dedupe_daily([])) == []

    def test_idempotent_on_reconstructed_events(self):
        events = [
            make_event(day=d, offset=o, caller=c, tower=t)
            for (d, o, c, t) in [
                (1, 10, 1, 3), (1, 20, 1, 9), (2, 5, 1, 7),
                (1, 15, 2, 4), (5, 0, 3, 2),
            ]
        ]
        obs = observation_rows(dedupe_daily(events))
        rebuilt = [
            make_event(day=day, caller=person, tower=tower, caller_state=state)
            for person, state, day, tower in obs
        ]
        again = observation_rows(dedupe_daily(rebuilt))
        assert [(p, d, t) for p, _, d, t in again] == [
            (p, d, t) for p, _, d, t in obs
        ]


class TestCounts:
    def test_one_person_three_days(self):
        events = [
            make_event(day=d, caller=1, caller_state=7) for d in (1, 2, 3)
        ]
        counts = count_unique_handsets(dedupe_daily(events))
        assert counts == {(7, 1): 1, (7, 2): 1, (7, 3): 1}

    def test_empty_input_empty_map(self):
        assert count_unique_handsets(make_observations([])) == {}

    def test_counts_never_exceed_raw_events(self):
        rng = random.Random(3)
        events = [
            make_event(
                day=rng.randint(1, 10),
                offset=rng.randint(0, 86399),
                caller=rng.randint(1, 30),
                caller_state=rng.randint(1, 4),
                tower=rng.randint(1, 6),
            )
            for _ in range(400)
        ]
        raw = {}
        for ev in events:
            key = (ev.caller_state,
                   (ev.timestamp - DEFAULT_WINDOW.start) // 86400 + 1)
            raw[key] = raw.get(key, 0) + 1
        counts = count_unique_handsets(dedupe_daily(events))
        assert all(counts[k] <= raw[k] for k in counts)

    def test_synthetic_cohort_matches_generator_bookkeeping(self):
        host = synth.StateSpec(1, "host", 400, 0.5, is_local=True, theta=0.0)
        away = synth.StateSpec(2, "away", 1000, 0.25, theta=0.4)
        config = synth.ScenarioConfig(seed=6, states=[host, away])
        truth = synth.generate_tables(config)
        events = columns_as_events(synth.build_events(truth))
        counts = count_unique_handsets(dedupe_daily(events))
        assert counts == truth.observed_counts


class TestFullScenarioEquivalence:
    def test_parse_dedupe_count_reconstruct_ground_truth(self, desk_small_files):
        paths, truth = desk_small_files
        report = IngestReport()
        obs = read_cdr(paths["cdr"], report=report).observations
        assert sum(report.rejects.values()) == 0
        assert observation_rows(obs) == observation_rows(truth.observations())
        assert count_unique_handsets(obs) == truth.observed_counts

    def test_reemitting_parsed_file_is_byte_stable(self, desk_small_files, tmp_path):
        paths, _ = desk_small_files
        out = tmp_path / "copy.csv"
        write_cdr(from_events(parse_cdr(paths["cdr"])), out)
        assert out.read_bytes() == paths["cdr"].read_bytes()


class TestAuxiliaryLoaders:
    def test_tower_state_and_projection_files(self, desk_small_files):
        paths, truth = desk_small_files
        towers = ingest.load_towers(paths["towers"])
        assert [t.tower_id for t in towers] == [
            t.tower_id for t in truth.towers
        ]
        profiles = ingest.load_state_profiles(paths["states"])
        assert profiles == truth.profiles()
        assert ingest.local_state(profiles) == 1
        proj = ingest.load_projections(paths["projections"])
        assert sorted(proj) == [25, 35, 55, 75]

    @pytest.mark.parametrize("name, loader, column", [
        ("towers", ingest.load_towers, "tower_id"),
        ("states", ingest.load_state_profiles, "state_code"),
        ("projections", ingest.load_projections, "projected_attendance"),
    ])
    def test_non_numeric_cell_is_a_schema_error_naming_the_line(
        self, desk_small_files, tmp_path, name, loader, column
    ):
        paths, _ = desk_small_files
        header, first, *rest = paths[name].read_text(encoding="utf-8").splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = "x1"
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n",
                       encoding="utf-8")
        with pytest.raises(SchemaError, match=f"{name}.csv, line 2"):
            loader(bad)

    @pytest.mark.parametrize("name, loader", [
        ("towers", ingest.load_towers),
        ("states", ingest.load_state_profiles),
        ("projections", ingest.load_projections),
    ])
    def test_short_last_row_is_a_schema_error_naming_the_line(
        self, desk_small_files, tmp_path, name, loader
    ):
        paths, _ = desk_small_files
        bad = tmp_path / f"{name}.csv"
        data = paths[name].read_bytes().rstrip(b"\n")
        bad.write_bytes(data.rsplit(b",", 1)[0])
        with pytest.raises(SchemaError, match=f"{name}.csv, line"):
            loader(bad)

    def test_byte_order_mark_on_cdr_header_is_skipped(self, desk_small_files,
                                                      tmp_path):
        paths, _ = desk_small_files
        bom = tmp_path / "cdr.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + paths["cdr"].read_bytes())
        assert reduced_rows(read_cdr(bom)) == reduced_rows(
            read_cdr(paths["cdr"]))

    def test_tower_activity_marking(self):
        events = [make_event(tower=2), make_event(tower=5)]
        towers = [
            ingest.TowerSite(t, 25.0, 81.0, True) for t in (1, 2, 5)
        ]
        marked = ingest.mark_tower_activity(
            towers, towers_with_traffic(events)
        )
        assert [(t.tower_id, t.active) for t in marked] == [
            (1, False), (2, True), (5, True)
        ]


# ---------------------------------------------------------------------------
# The block reader and its row fallback against the row-at-a-time oracle


def _cells(fn):
    """A line mutation that edits the comma-separated cells of the line."""
    def mutate(line):
        cells = line.split(",")
        fn(cells)
        return ",".join(cells)
    return mutate


def _set(i, value):
    """Set cell ``i``; a line a ``short_row`` edit left without it stays."""
    def edit(cells):
        if i < len(cells):
            cells[i] = value(cells[i]) if callable(value) else value
    return _cells(edit)


def _text_with_duration(cells):
    cells[3], cells[4] = "text", "30"


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

#: Row mutations: each maps a canonical cdr.csv line (no line end) to
#: the text that replaces it.
MUTATIONS = {
    "flag_true": _set(8, "true"),
    "flag_yes": _set(9, "yes"),
    "flag_leading_zero": _set(8, "01"),
    "flag_plus": _set(9, "+1"),
    "state_question": _set(6, "?"),
    "state_empty": _set(7, ""),
    "state_na": _set(6, "NA"),
    "state_out_of_range": _set(7, "24"),
    "kind_upper": _set(3, str.upper),
    "kind_padded": _set(3, lambda k: f" {k} "),
    "kind_unknown": _set(3, "fax"),
    "kind_nul": _set(3, lambda k: k + "\x00"),
    "blank_line": lambda line: "\n" + line,
    "hash": _set(0, lambda v: "#" + v),
    "quoted": _set(1, lambda v: f'"{v}"'),
    "quoted_newline": lambda line: line + ',"a\nb"',
    "extra_column": lambda line: line + ",x",
    "underscore": _set(2, lambda v: v[0] + "_" + v[1:]),
    "plus_sign": _set(5, lambda v: "+" + v),
    "arabic_indic": _set(1, lambda v: v.translate(ARABIC_INDIC)),
    "beyond_int64": _set(1, str(2 ** 63)),
    "int_decimal_point": _set(5, lambda v: v + ".0"),
    "int_exponent": _set(1, "1e3"),
    "int_fraction": _set(4, "30.5"),
    "int64_max": _set(2, str(2 ** 63 - 1)),
    "outside_window": _set(0, str(DEFAULT_WINDOW.end + 5)),
    "unknown_tower": _set(5, "99999"),
    "text_with_duration": _cells(_text_with_duration),
    "negative_duration": _set(4, "-5"),
    "short_row": lambda line: line.rsplit(",", 2)[0],
}


def mutated_cdr(text, edits):
    header, *lines = text.splitlines()
    for row, name in edits:
        i = row % len(lines)
        lines[i] = MUTATIONS[name](lines[i])
    return ("\n".join([header, *lines]) + "\n").encode("utf-8")


def oracle_path(path, known):
    report = IngestReport()
    events = list(parse_cdr(path, known_towers=known, report=report))
    obs = dedupe_daily(events)
    return (report, events_reduced(events), obs, count_unique_handsets(obs),
            towers_with_traffic(events),
            build_network_oracle(from_events(events), local_state=1))


def columnar_path(path, known):
    report = IngestReport()
    cdr = read_cdr(path, known_towers=known, report=report)
    return (report, reduced_rows(cdr), cdr.observations,
            cdr.observations.unique_handsets(), set(cdr.towers.tolist()),
            build_network(cdr.contacts, local_state=1))


def assert_paths_agree(data, known):
    with cdr_file(data) as path:
        try:
            expected = oracle_path(path, known)
        except IngestError as exc:
            with pytest.raises(IngestError) as got:
                columnar_path(path, known)
            assert str(got.value) == str(exc)
            return
        got = columnar_path(path, known)
    (report, events, obs, counts, towers, net), (
        report2, events2, obs2, counts2, towers2, net2) = expected, got
    assert (report2.rows, report2.accepted, dict(report2.rejects)) == (
        report.rows, report.accepted, dict(report.rejects))
    assert events2 == events
    assert observation_rows(obs2) == observation_rows(obs)
    assert counts2 == counts
    assert towers2 == towers
    assert net2.nodes() == net.nodes()
    assert net2.state.tolist() == net.state.tolist()
    assert net2.states() == net.states()
    assert sorted(net2.edges()) == sorted(net.edges())


@pytest.fixture(scope="module")
def desk(desk_small_files):
    """(desk-small cdr.csv text, its tower ids)."""
    paths, _ = desk_small_files
    known = {t.tower_id for t in ingest.load_towers(paths["towers"])}
    return paths["cdr"].read_text(encoding="utf-8"), known


class TestColumnarIngest:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                 st.sampled_from(sorted(MUTATIONS))),
                       max_size=80),
        # About 7, 37 and 250 lines of desk-small (52 bytes a line), and
        # more than the whole file.
        block=st.sampled_from([364, 1924, 13_000, 1 << 20]),
    )
    def test_mutated_file_matches_the_oracle(self, desk, monkeypatch,
                                             edits, block):
        text, known = desk
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        assert_paths_agree(mutated_cdr(text, edits), known)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_each_mutation_alone_matches_the_oracle(self, desk, monkeypatch,
                                                    name):
        # Alone, a mutation either leaves the file canonical, so the fast
        # path must screen it, or must send the file to the second read.
        text, known = desk
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 13_000)  # about 250 lines
        short = "\n".join(text.splitlines()[:3000])
        assert_paths_agree(mutated_cdr(short, [(1500, name), (2900, name)]),
                           known)

    def test_clean_file_takes_the_fast_path(self, desk, monkeypatch):
        text, known = desk

        def no_fallback(*args, **kwargs):
            raise AssertionError("row reader used on a canonical file")
        monkeypatch.setattr(ingest, "_read_rows", no_fallback)
        report = IngestReport()
        with cdr_file(text.encode()) as path:
            read_cdr(path, known_towers=known, report=report)
        assert report.accepted == text.count("\n") - 1

    def test_a_loadtxt_warning_sends_the_file_to_the_second_read(
            self, desk, monkeypatch):
        # numpy 1.x reads an integer cell such as "1.0" through a float
        # and only warns; the row reader calls that cell unparseable.
        text, known = desk
        data = text.encode()
        loadtxt = np.loadtxt
        blocks = []

        def warning_loadtxt(fh, *args, **kwargs):
            blocks.append(fh.buffer.getvalue())
            if len(blocks) == 3:
                warnings.warn("parsing an integer via a float",
                              DeprecationWarning)
            return loadtxt(fh, *args, **kwargs)
        monkeypatch.setattr(ingest.np, "loadtxt", warning_loadtxt)
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 13_000)  # about 250 lines
        offsets = []
        monkeypatch.setattr(ingest, "_read_rows",
                            lambda path, offset, *a, **kw:
                            offsets.append(offset) or [])
        with cdr_file(data) as path:
            read_cdr(path, known_towers=known)
        assert len(blocks) == 3
        # The row reader starts at the block that warned.
        assert offsets == [data.index(b"\n") + 1 + len(blocks[0])
                           + len(blocks[1])]
        assert data[offsets[0]:].startswith(blocks[2])

    def test_tolerance_error_after_fast_chunks_matches_the_oracle(
            self, desk, monkeypatch):
        # About ten canonical blocks are screened and counted before the
        # first bad row; the row reader must go on with their report.
        text, known = desk
        header, *lines = text.splitlines()
        lines = (lines * 2)[:12_000]
        for i in range(9900, 10050):
            lines[i] = "garbage,row"
        data = ("\n".join([header, *lines]) + "\n").encode()
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 52_000)  # about 1000 lines
        reports = []
        messages = []
        for parse in (lambda *a, **kw: list(parse_cdr(*a, **kw)),
                      read_cdr):
            report = IngestReport()
            with (cdr_file(data) as path,
                  pytest.raises(IngestError, match="unparseable") as exc):
                parse(path, known_towers=known, report=report)
            messages.append(str(exc.value))
            reports.append((report.rows, report.accepted, dict(report.rejects)))
        assert messages[0] == messages[1]
        assert reports[0] == reports[1]

    def test_known_tower_id_beyond_int64_matches_no_row(self):
        events = [make_event(tower=1), make_event(tower=2)]
        data = cdr_text(events).encode()
        known = {1, 2 ** 70}
        with cdr_file(data) as path:
            assert reduced_rows(read_cdr(
                path, known_towers=known)) == events_reduced(parse_cdr(
                    path, known_towers=known)) == events_reduced(events[:1])

    def test_empty_and_header_only_sources(self):
        report = IngestReport()
        with cdr_file(cdr_text([]).encode()) as path:
            assert reduced_rows(read_cdr(path, report=report)) == events_reduced([])
        assert (report.rows, report.accepted) == (0, 0)
        with cdr_file(b"") as path, pytest.raises(SchemaError, match="header"):
            read_cdr(path)

    @pytest.mark.parametrize("read", [
        lambda src: list(parse_cdr(src)), read_cdr])
    def test_non_utf8_source_raises_ingest_error(self, read, tmp_path):
        data = cdr_text([make_event()]).replace("call", "c\xe9ll").encode(
            "latin-1")
        path = tmp_path / "latin.csv"
        path.write_bytes(data)
        with pytest.raises(IngestError, match="latin.csv is not UTF-8"):
            read(path)

    def test_stream_source_is_refused(self):
        # Only a path: the row reader reads the file a second time, and a
        # worker reads its second half. Bytes are refused too.
        data = cdr_text([]).encode()
        for source in (io.BytesIO(data), data):
            with pytest.raises(IngestError, match="unsupported CDR source"):
                read_cdr(source)


def read_outcome(read, source, known):
    """(events, report counts) of one read; the error class and message
    stand in for the events when it raises."""
    report = IngestReport()
    try:
        events = read(source, known_towers=known, report=report)
    except (IngestError, SchemaError) as exc:
        events = (type(exc), str(exc))
    return events, (report.rows, report.accepted, dict(report.rejects))


def oracle_read(*args, **kwargs):
    return events_reduced(parse_cdr(*args, **kwargs))


def columnar_read(*args, **kwargs):
    return reduced_rows(read_cdr(*args, **kwargs))


def spy_row_reader(monkeypatch) -> list[tuple[int, int]]:
    """(byte offset, rows before it) of each call to the row reader."""
    calls = []
    read_rows = ingest._read_rows

    def spy(source, offset, usecols, rows, **kwargs):
        calls.append((offset, rows))
        return read_rows(source, offset, usecols, rows, **kwargs)
    monkeypatch.setattr(ingest, "_read_rows", spy)
    return calls


def block_start(data: bytes, pos: int, size: int) -> int:
    """Byte offset of the block of ``size`` that holds byte ``pos``; the
    first block starts after the header line."""
    start = 0
    for block in ingest._line_blocks(io.BytesIO(data), size):
        if pos < start + len(block):
            return start or data.index(b"\n") + 1
        start += len(block)
    raise ValueError(f"byte {pos} is past the end")


#: Mutations that make a line non-canonical in any block.
NON_CANONICAL = ("arabic_indic", "blank_line", "flag_true", "hash",
                 "int_decimal_point", "kind_nul", "kind_upper", "quoted",
                 "short_row", "state_question")


class TestRowFallback:
    """The row reader takes over at the first non-canonical block."""

    @pytest.mark.parametrize("bad", ["one_quoted_cell",
                                     "garbage_over_tolerance"])
    @pytest.mark.parametrize("source", ["bytes", "bom_path"])
    def test_bad_cell_in_the_last_block_reads_only_that_block_by_rows(
            self, desk, monkeypatch, tmp_path, source, bad):
        text, known = desk
        header, *lines = text.splitlines()[:2001]
        if bad == "one_quoted_cell":
            lines[-1] = MUTATIONS["quoted"](lines[-1])
        else:
            lines[-30:] = ["garbage,row"] * 30      # 1.5% of the rows
        data = ("\n".join([header, *lines]) + "\n").encode()
        if source == "bom_path":    # else the file holds the rows alone
            data = codecs.BOM_UTF8 + data
        src = tmp_path / "cdr.csv"
        src.write_bytes(data)
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 13_000)  # about 250 lines
        blocks = list(ingest._line_blocks(io.BytesIO(data), 13_000))
        assert len(blocks) > 5
        expected = read_outcome(oracle_read, src, known)
        calls = spy_row_reader(monkeypatch)
        assert read_outcome(columnar_read, src, known) == expected
        offset = len(data) - len(blocks[-1])
        assert calls == [(offset, data[:offset].count(b"\n") - 1)]
        raised = expected[0][0] is IngestError
        assert raised is (bad == "garbage_over_tolerance")

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(row=st.integers(1000, 1999), name=st.sampled_from(NON_CANONICAL),
           block=st.sampled_from([364, 1924, 13_000]))
    def test_non_canonical_block_in_the_middle_matches_the_oracle(
            self, desk, monkeypatch, row, name, block):
        text, known = desk
        header, *lines = text.splitlines()[:3001]
        lines[row] = MUTATIONS[name](lines[row])
        data = ("\n".join([header, *lines]) + "\n").encode()
        pos = len(("\n".join([header, *lines[:row]]) + "\n").encode())
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        with cdr_file(data) as path:
            expected = read_outcome(oracle_read, path, known)
            calls = spy_row_reader(monkeypatch)
            assert read_outcome(columnar_read, path, known) == expected
        offset = block_start(data, pos, block)
        assert calls == [(offset, data[:offset].count(b"\n") - 1)]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(first=st.integers(2_000, 9_850), count=st.integers(121, 400),
           block=st.sampled_from([13_000, 52_000, 200_000]))
    def test_tolerance_raise_after_the_resume_point_matches_the_oracle(
            self, desk, monkeypatch, first, count, block):
        # Over 1% of 12,000 rows are garbage, so the read raises: at row
        # 10,000 when over 100 of them come before it, else at the end.
        text, known = desk
        header, *lines = text.splitlines()
        lines = (lines * 2)[:12_000]
        lines[first:first + count] = ["garbage,row"] * count
        data = ("\n".join([header, *lines]) + "\n").encode()
        pos = len(("\n".join([header, *lines[:first]]) + "\n").encode())
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        with cdr_file(data) as path:
            expected = read_outcome(oracle_read, path, known)
            assert expected[0][0] is IngestError
            calls = spy_row_reader(monkeypatch)
            assert read_outcome(columnar_read, path, known) == expected
        offset = block_start(data, pos, block)
        assert calls == [(offset, data[:offset].count(b"\n") - 1)]


def reader_events():
    """A few accepted rows and one of several reject reasons."""
    events = [make_event(day=d, offset=d * 61, caller=100 + d, tower=1 + d % 3,
                         kind="text" if d % 4 == 0 else "call")
              for d in range(1, 13)]
    return events + [
        make_event(day=100),
        make_event(day=2, caller_customer=False, callee_customer=False),
        make_event(day=3, caller_state=0),
        make_event(day=4, tower=9),
    ]


def _blank_line(data):
    lines = data.split(b"\n")
    return b"\n".join([*lines[:5], b"", *lines[5:]])


#: Byte-level edits of a canonical cdr.csv, by name; the first three keep
#: it canonical.
READER_CASES = {
    "canonical": lambda data: data,
    "no_trailing_newline": lambda data: data.removesuffix(b"\n"),
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "bom": lambda data: codecs.BOM_UTF8 + data,
    "blank_line": _blank_line,
    "nul": lambda data: data.replace(b",call,", b",ca\x00ll,", 1),
    "non_ascii": lambda data: data.replace(b",call,", ",c\u00e1ll,".encode(),
                                           1),
    "invalid_utf8": lambda data: data.replace(b",call,", b",c\xffll,", 1),
    "non_ascii_header": lambda data: data.replace(b"\n", ",\u00e9\n".encode(),
                                                  1),
    "lone_cr": lambda data: data.replace(b"\n", b"\r", 3),
    "empty": lambda data: b"",
    "bom_only": lambda data: codecs.BOM_UTF8,
    "header_only": lambda data: data.split(b"\n")[0],
}
CANONICAL_CASES = ("canonical", "no_trailing_newline", "crlf")


def read_both_ways(data, monkeypatch, *, fast: bool):
    """(read_cdr result, parse_cdr result) for the same file.

    A result is (what ``reduced_rows`` and ``events_reduced`` give, report
    counts), or the error class and message.
    With ``fast``, the columnar read must not fall back to the row reader.
    """
    def read(fn):
        report = IngestReport()
        try:
            events = fn(path, known_towers={1, 2, 3}, report=report)
        except (IngestError, SchemaError) as exc:
            return type(exc), str(exc)
        return events, (report.rows, report.accepted, dict(report.rejects))

    with cdr_file(data) as path:
        expected = read(oracle_read)
        if fast:
            def no_fallback(*args, **kwargs):
                raise AssertionError("row reader used on a canonical file")
            monkeypatch.setattr(ingest, "_read_rows", no_fallback)
        got = read(columnar_read)
    return got, expected


class TestByteBlockReader:
    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_bytes_read_as_parse_cdr_reads_them(self, monkeypatch, case, block):
        if block is not None:
            monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        data = READER_CASES[case](cdr_text(reader_events()).encode())
        # A leading BOM is skipped, so the file is canonical after it.
        got, expected = read_both_ways(
            data, monkeypatch, fast=case in (*CANONICAL_CASES, "bom"))
        assert got == expected

    def test_line_straddling_a_block_boundary(self, monkeypatch):
        data = cdr_text(reader_events()).encode()
        first_row_end = data.index(b"\n", data.index(b"\n") + 1)
        monkeypatch.setattr(ingest, "BLOCK_BYTES", first_row_end - 20)
        got, expected = read_both_ways(data, monkeypatch, fast=True)
        assert got == expected
        assert got[1][1] == 12      # every row accepted

    @pytest.mark.parametrize("block", [64, None])
    def test_line_over_the_field_limit_reads_as_parse_cdr_reads_it(
            self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        header, *rows = cdr_text(reader_events()).splitlines()
        cells = ["y"] * len(rows)
        cells[3] = "x" * 300
        data = "\n".join([header + ",extra",
                          *(f"{r},{c}" for r, c in zip(rows, cells))]) + "\n"
        old = csv.field_size_limit(200)
        try:
            got, expected = read_both_ways(data.encode(), monkeypatch,
                                           fast=False)
        finally:
            csv.field_size_limit(old)
        assert got == expected
        assert got[0] is IngestError    # the csv module's field limit

    def test_peak_stays_near_the_columns_it_returns(self, desk_small_files,
                                                   monkeypatch):
        # The peak stays below the CDR columns the reader returned before
        # it reduced each block (59 bytes a row), which it no longer makes.
        header, *rows = desk_small_files[0]["cdr"].read_text().splitlines()
        data = ("\n".join([header, *rows * 8]) + "\n").encode()
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 32_768)   # about 600 lines
        with cdr_file(data[:100_000]) as path:
            read_cdr(path)              # first-call allocations
        report = IngestReport()
        with cdr_file(data) as path:
            _, peak = traced_peak(read_cdr, path, report=report)
        size = COLUMN_BYTES_PER_ROW * report.accepted
        assert report.accepted == 8 * len(rows)
        assert peak <= 1.3 * size

    def test_peak_grows_with_person_days_not_rows(self, monkeypatch,
                                                  tmp_path_factory):
        # Desk's data rows 8 times over: the same person-days, parties
        # and contact pairs from 8x the rows. The reductions are merged
        # as they come, so the peak stays below the 59-byte-a-row columns
        # the reader used to return, and the result is that of desk.
        paths, _ = synth.generate(synth.named_scenario("desk", seed=1),
                                  tmp_path_factory.mktemp("desk"))
        header, *rows = paths["cdr"].read_text().splitlines()
        repeated = paths["cdr"].with_name("repeated.csv")
        repeated.write_text("\n".join([header, *rows * 8]) + "\n")
        known = {t.tower_id for t in ingest.load_towers(paths["towers"])}
        monkeypatch.setattr(ingest, "FORK_BYTES", 1 << 62)  # all in this process
        once = read_cdr(paths["cdr"], known_towers=known)
        report = IngestReport()
        got, peak = traced_peak(read_cdr, repeated, known_towers=known,
                                report=report)
        assert report.accepted == report.rows == 8 * len(rows)
        assert peak < COLUMN_BYTES_PER_ROW * report.rows
        assert peak < PEAK_BYTES_PER_PERSON_DAY * len(got.observations)
        assert reduced_rows(got) == reduced_rows(once)

    def test_joining_the_two_halves_holds_under_36_bytes_a_row(self):
        # The split read's last merge: this process's first events and the
        # worker's, joined (17 bytes a row, allocated here) and reduced.
        # With the day key, the run starts and the kept rows made whole
        # beside the order it took 54 bytes a row.
        rng = np.random.default_rng(5)

        def half(rows):
            return [np.sort(rng.integers(0, 10 ** 9, rows)),
                    rng.integers(0, 90 * 86400, rows).astype(np.int32),
                    rng.integers(0, 400, rows).astype(np.int32),
                    rng.integers(1, 24, rows).astype(np.int8)]

        ingest._merged(half(100), half(100), *ingest._FIRST)
        joined, peak = traced_peak(ingest._merged, half(200_000),
                                   half(200_000), *ingest._FIRST)
        assert len(joined[0]) > 399_000
        assert peak < 36 * 400_000

    def test_row_reader_batches_stay_small(self, desk_small_files, tmp_path,
                                           monkeypatch):
        # A quoted first row sends the whole file to the row reader, which
        # parses into one 10,000-row array: about 2.0x the columns, against
        # 3.5x when each batch was a list of tuples.
        header, *rows = desk_small_files[0]["cdr"].read_text().splitlines()
        rows = rows * 4
        rows[0] = '"{}",{}'.format(*rows[0].split(",", 1))
        path = tmp_path / "cdr.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 65_536)
        with cdr_file(path.read_bytes()[:100_000]) as warm:
            read_cdr(warm)              # first-call allocations
        report = IngestReport()
        _, peak = traced_peak(read_cdr, path, report=report)
        size = COLUMN_BYTES_PER_ROW * report.accepted
        assert report.row_reader_from == 1
        assert report.accepted == len(rows)
        assert peak <= 2.6 * size

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_long=st.integers(16, 40), n_short=st.integers(40, 200),
           quoted=st.none() | st.integers(0, 239),
           block=st.sampled_from([64, 300, 1024]))
    def test_long_ids_then_short_ids_match_the_oracle(
            self, monkeypatch, n_long, n_short, quoted, block):
        # The first blocks (at most 15 rows) hold only long ids, and the
        # short ones after them rank below them; a quoted row sends the
        # rest to the row reader.
        events = [make_event(day=1 + i % 80, caller=10 ** 17 + i,
                             callee=10 ** 18 + i, tower=1 + i % 3)
                  for i in range(n_long)]
        events += [make_event(day=1 + i % 80, caller=1 + i % 7,
                              callee=2 + i % 5, tower=1 + i % 3)
                   for i in range(n_short)]
        lines = cdr_text(events).splitlines()
        if quoted is not None:
            row = 1 + quoted % len(events)
            lines[row] = '"{}",{}'.format(*lines[row].split(",", 1))
        data = ("\n".join(lines) + "\n").encode()
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        with cdr_file(data) as path:
            got = read_outcome(columnar_read, path, {1, 2, 3})
            assert got == read_outcome(oracle_read, path, {1, 2, 3})
        assert got[1][:2] == (len(events), len(events))

    def test_row_reader_start_is_reported(self, desk_small_files,
                                          monkeypatch):
        text = desk_small_files[0]["cdr"].read_text()
        report = IngestReport()
        read_cdr(desk_small_files[0]["cdr"], report=report)
        assert report.row_reader_from is None
        lines = text.splitlines()
        for row in (1, len(lines) - 1):
            quoted = list(lines)
            quoted[row] = '"{}",{}'.format(*quoted[row].split(",", 1))
            data = ("\n".join(quoted) + "\n").encode()
            monkeypatch.setattr(ingest, "BLOCK_BYTES", 13_000)
            calls = spy_row_reader(monkeypatch)
            report = IngestReport()
            with cdr_file(data) as path:
                read_cdr(path, report=report)
            monkeypatch.undo()
            # The 1-based data row that starts the first non-canonical block.
            [(offset, rows_before)] = calls
            assert report.row_reader_from == rows_before + 1
            assert data[:offset].count(b"\n") == rows_before + 1
            if row == 1:
                assert report.row_reader_from == 1
            else:
                assert 1 < report.row_reader_from <= row


# ---------------------------------------------------------------------------
# The split read: a forked worker screens the blocks after a block end near
# the middle, and the parent appends its rows


def _no_customer(cells):
    cells[8] = cells[9] = "0"


def _stateless_customer(cells):
    cells[6], cells[8] = "0", "1"


#: Row mutations that keep a line canonical and reject it, one per reason.
REJECTING = {
    "negative_duration": MUTATIONS["negative_duration"],
    "text_with_duration": MUTATIONS["text_with_duration"],
    "outside_window": MUTATIONS["outside_window"],
    "unknown_tower": MUTATIONS["unknown_tower"],
    "no_customer_party": _cells(_no_customer),
    "customer_without_state": _cells(_stateless_customer),
}


def read_outcomes(data, known, monkeypatch):
    """(what ``reduced_rows`` gives, or the error class and message; the
    report) of a read split between two processes and of a read by one."""
    outcomes = []
    with cdr_file(data) as path:
        for fork_bytes in (0, 1 << 62):
            monkeypatch.setattr(ingest, "FORK_BYTES", fork_bytes)
            report = IngestReport()
            try:
                got = reduced_rows(read_cdr(path, known_towers=known,
                                            report=report))
            except (IngestError, SchemaError) as exc:
                got = (type(exc), str(exc))
            outcomes.append((got, report))
    return outcomes


def cut_row(data: bytes) -> int | None:
    """The 0-based data row at which a worker's part of ``data`` begins."""
    cut = ingest._split_point(io.BytesIO(data), len(data))
    return None if cut is None else data[:cut].count(b"\n") - 1


class TestSplitRead:
    """Columns, report and error of a split read are those of one process."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(where=st.sampled_from(["nowhere", "first_row", "before_cut",
                                  "after_cut", "later", "last_row"]),
           later=st.integers(0, 10 ** 6),
           name=st.sampled_from([*NON_CANONICAL, "garbage_over_tolerance"]),
           block=st.sampled_from([1924, 13_000]),
           crlf=st.booleans(), rejects=st.booleans())
    def test_split_read_matches_one_process(self, desk, monkeypatch, where,
                                            later, name, block, crlf,
                                            rejects):
        text, known = desk
        header, *lines = text.splitlines()[:4001]
        end = "\r\n" if crlf else "\n"

        def encode(lines):
            return (end.join([header, *lines]) + end).encode()
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        monkeypatch.setattr(ingest, "FORK_BYTES", 0)
        split = cut_row(encode(lines))
        assert 100 < split < 3900
        if rejects:
            # Each reason twice on each side of the cut, a few rows from it.
            for i, mutate in enumerate(REJECTING.values()):
                for row in (10 + i, split - 60 + i, split + 40 + i,
                            3950 + i):
                    lines[row] = mutate(lines[row])
        # Rows a few lines from the cut, which a mutation moves by a line
        # at most, or any later row; garbage over 1% of the rows makes the
        # read raise.
        row = {"first_row": 0, "before_cut": split - 3, "after_cut": split + 2,
               "later": split + 3 + later % (len(lines) - split - 3),
               "last_row": len(lines) - 1}.get(where)
        if row is not None and name == "garbage_over_tolerance":
            lines[row:row + 50] = ["garbage,row"] * 50
        elif row is not None:
            lines[row] = MUTATIONS[name](lines[row])
        data = encode(lines)
        split = cut_row(data)
        (split_got, split_report), (got, report) = read_outcomes(
            data, known, monkeypatch)
        assert split_got == got
        assert split_report == report
        assert (split_report.rows, split_report.accepted,
                split_report.row_reader_from) == (
            report.rows, report.accepted, report.row_reader_from)
        assert report.split_row is None
        # The worker's rows are used unless a block before the cut is
        # read by rows.
        if where in ("first_row", "before_cut"):
            assert split_report.split_row is None
        else:
            assert split_report.split_row == split + 1
        # The row reader takes over at the first row, the last block
        # before the cut and the first block after it.
        start = report.row_reader_from
        if where == "first_row":
            assert start == 1
        elif where == "before_cut":     # a line is over 40 bytes
            assert split - block // 40 < start <= split - 2
        elif where == "after_cut":
            assert start == split + 1

    @pytest.mark.parametrize("block", [64, 1924])
    def test_line_over_the_field_limit_after_the_cut(self, monkeypatch, block):
        events = [make_event(day=1 + i % 80, caller=100 + i, tower=1 + i % 3)
                  for i in range(400)]
        header, *rows = cdr_text(events).splitlines()
        cells = ["y"] * len(rows)
        cells[300] = "x" * 300
        data = "\n".join([header + ",extra",
                          *(f"{r},{c}" for r, c in zip(rows, cells))]) + "\n"
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        monkeypatch.setattr(ingest, "FORK_BYTES", 0)
        assert cut_row(data.encode()) < 300
        old = csv.field_size_limit(200)
        try:
            (split_got, split_report), (got, report) = read_outcomes(
                data.encode(), {1, 2, 3}, monkeypatch)
        finally:
            csv.field_size_limit(old)
        assert got[0] is IngestError    # the csv module's field limit
        assert (split_got, split_report) == (got, report)

    def test_header_only_file(self, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 16)
        data = cdr_text([]).encode()
        (split_got, split_report), (got, report) = read_outcomes(
            data, None, monkeypatch)
        assert split_got == got == events_reduced([])
        assert split_report == report == IngestReport()
        # As narrow as for a file whose rows are all rejected.
        rejected = cdr_text([make_event(tower=3)]).encode()
        for source in (data, rejected):
            with cdr_file(source) as path:
                for fork_bytes in (0, 1 << 62):
                    monkeypatch.setattr(ingest, "FORK_BYTES", fork_bytes)
                    got = read_cdr(path, known_towers={1, 2})
                    assert (got.observations.first_tower.dtype,
                            got.observations.day.dtype,
                            got.towers.dtype) == (np.int32, np.int16,
                                                  np.int32)

    def test_worker_that_stops_at_once_keeps_the_narrow_towers(
            self, monkeypatch):
        # The worker's first row is quoted, so its reduction holds no row
        # and the row reader reads its part.
        events = [make_event(day=1 + i % 80, caller=100 + i, tower=1 + i % 3)
                  for i in range(400)]
        header, *rows = cdr_text(events).splitlines()
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 1924)
        monkeypatch.setattr(ingest, "FORK_BYTES", 0)
        split = cut_row(("\n".join([header, *rows]) + "\n").encode())
        rows[split] = MUTATIONS["quoted"](rows[split])
        data = ("\n".join([header, *rows]) + "\n").encode()
        assert cut_row(data) == split
        with cdr_file(data) as path:
            for fork_bytes in (0, 1 << 62):
                monkeypatch.setattr(ingest, "FORK_BYTES", fork_bytes)
                report = IngestReport()
                got = read_cdr(path, known_towers={1, 2, 3}, report=report)
                assert report.row_reader_from == split + 1
                assert (got.observations.first_tower.dtype,
                        got.towers.dtype) == (np.int32, np.int32)
                assert reduced_rows(got) == events_reduced(events)

    @pytest.mark.parametrize("failure", ["raises", "short", "no_fork"])
    def test_this_process_reads_the_part_of_a_failed_worker(
            self, desk, monkeypatch, failure):
        text, known = desk
        data = text.encode()
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 13_000)
        parent = os.getpid()
        read_part = ingest._read_part
        if failure == "raises":
            # Only in the child: the read here is the one that must work.
            def broken(*args):
                if os.getpid() != parent:
                    raise MemoryError
                return read_part(*args)
            monkeypatch.setattr(ingest, "_read_part", broken)
        elif failure == "short":
            # The child sends the first half of its pickle.
            def short(value, pipe, protocol=None):
                sent = pickle.dumps(value, protocol)
                pipe.write(sent[:len(sent) // 2])
            monkeypatch.setattr(pickle, "dump", short)
        else:
            monkeypatch.delattr(ingest.os, "fork")
        (split_got, split_report), (got, report) = read_outcomes(
            data, known, monkeypatch)
        assert (split_got, split_report) == (got, report)
        assert split_report.split_row is None

    def test_worker_rows_are_used(self, desk, monkeypatch):
        text, known = desk
        data = text.encode()
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 13_000)
        results = []
        forked = ingest.forked

        @contextmanager
        def spied(work):
            with forked(work) as result:
                def spy():
                    results.append(result())
                    return results[-1]
                yield spy
        monkeypatch.setattr(ingest, "forked", spied)
        monkeypatch.setattr(ingest, "FORK_BYTES", 0)
        split = cut_row(data)
        (split_got, split_report), (got, report) = read_outcomes(
            data, known, monkeypatch)
        assert (split_got, split_report) == (got, report)
        # The read by one process forks no worker.
        [((counts, stop, _), from_worker)] = results
        assert from_worker
        assert split_report.split_row == split + 1
        assert (counts.rows, stop) == (text.count("\n") - 1 - split, None)


#: The two ids at each end of int64.
INT64_ENDS = (INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX)


@st.composite
def interleaved_files(draw):
    """(CDR bytes, block size): rows in any order over few persons, days,
    towers and timestamps, so that a (person, day) and a party recur
    across blocks and across the cut, equal timestamps meet at other
    towers, and a party's state changes from row to row. Some persons
    are at the ends of int64, so that packed keys of their parties and
    pairs would overflow.

    A row for each reject reason the screen gives is planted, and 0 to 3
    unparseable rows (over 1% of the rows with 3); one non-canonical
    row, when drawn, hands the read to the row reader from its block on.
    """
    persons = st.integers(1, 8) | st.sampled_from(INT64_ENDS)
    stamps = draw(st.lists(st.integers(0, 4 * 86400 - 1).map(ts_on_day),
                           min_size=2, max_size=6))
    events = [make_event(timestamp=draw(st.sampled_from(stamps)),
                         caller=draw(persons), callee=draw(persons),
                         kind=draw(st.sampled_from(["call", "text"])),
                         tower=draw(st.integers(1, 4)),
                         caller_state=draw(st.integers(1, 3)),
                         callee_state=draw(st.integers(1, 3)),
                         caller_customer=draw(st.booleans()),
                         callee_customer=draw(st.booleans()))
              for _ in range(draw(st.integers(150, 250)))]
    header, *lines = cdr_text(events).splitlines()
    odd = draw(st.none() | st.sampled_from(NON_CANONICAL))
    if odd is not None:
        i = draw(st.integers(len(lines) // 4, 3 * len(lines) // 4))
        lines[i] = MUTATIONS[odd](lines[i])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "garbage,row")
    # Last, so that no other edit lands on them: a row every check
    # passes, rejected for one reason by each mutation.
    clean = cdr_text([make_event(caller=1, callee=2, tower=1, caller_state=1,
                                 callee_state=1)]).splitlines()[1]
    for mutate in REJECTING.values():
        lines.insert(draw(st.integers(0, len(lines))), mutate(clean))
    data = ("\n".join([header, *lines]) + "\n").encode()
    return data, draw(st.sampled_from([200, 700, 2500]))


class TestStreamedReduction:
    """``read_cdr`` reduces each block and merges the reductions; what it
    gives equals the column oracles over every accepted row at once."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=interleaved_files(),
           resort_rows=st.sampled_from([1, 3, None]))
    def test_split_block_reductions_match_the_column_oracles(
            self, monkeypatch, drawn, resort_rows):
        data, block = drawn
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        monkeypatch.setattr(ingest, "FORK_BYTES", 0)
        if resort_rows is not None:
            monkeypatch.setattr(ingest, "RESORT_ROWS", resort_rows)
        known = {1, 2, 3, 4}
        with cdr_file(data) as path:
            assert cut_row(data) is not None      # a worker reads
            got = read_outcome(columnar_read, path, known)
            assert got == read_outcome(oracle_read, path, known)
        if got[0][0] is not IngestError:
            assert set(got[1][2]) >= {*REJECTING}
            assert got[0][2] == sorted(got[0][2])      # the tower ids


#: Each table of ``ingest._Reduction``: its declaration, the dtypes of
#: its columns, a strategy for each column's values, and its key and tie
#: of a row as Python tuples, for the oracle.
REDUCED_TABLES = {
    "first": (
        ingest._FIRST, (np.int64, np.int32, np.int32, np.int8),
        (INT64_ENDS, (0, 86399, 86400, INT32_MAX), (INT32_MIN, INT32_MAX),
         (-128, 127)),
        lambda row: (row[0], row[1] // 86400), lambda row: row[1:3]),
    "parties": (
        ingest._PARTIES, (np.int64, np.int8, np.int64),
        (INT64_ENDS, (-128, 127), (0,)),
        lambda row: row[:2], lambda row: row[2:]),
    "pairs": (
        ingest._PAIRS, (np.int64, np.int64, np.int8, np.int8, np.int64),
        (INT64_ENDS, INT64_ENDS, (-128, 127), (-128, 127), (0,)),
        lambda row: row[:4], lambda row: row[4:]),
}


@st.composite
def reduced_table_rows(draw):
    """(name, x, y): a table of ``REDUCED_TABLES`` and two lists of its
    rows. Each column takes one to three values, small ones (up to three
    days of seconds in the int32 columns) or the ends of its dtype, so
    that keys repeat and ties are often equal."""
    name = draw(st.sampled_from(sorted(REDUCED_TABLES)))
    _, dtypes, ends, _, _ = REDUCED_TABLES[name]
    pools = [st.sampled_from(draw(st.lists(
        st.integers(0, 3 * 86400 if dtype == np.int32 else 3)
        | st.sampled_from(column_ends), min_size=1, max_size=3)))
        for dtype, column_ends in zip(dtypes, ends)]
    rows = st.lists(st.tuples(*pools), max_size=30)
    return name, draw(rows), draw(rows)


@st.composite
def first_sorted_table_rows(draw):
    """(name, rows): a table of ``REDUCED_TABLES`` sorted by its first
    column, as a merge's two reductions joined are. Each run of equal
    first values is in key and tie order, in reverse, or as drawn, so
    that some hold descents in their later key or tie columns; those
    columns take small values or the ends of their dtype, so that ties
    are often equal."""
    name = draw(st.sampled_from(sorted(REDUCED_TABLES)))
    _, dtypes, ends, key, tie = REDUCED_TABLES[name]
    firsts = sorted(draw(st.sets(st.integers(-3, 3) | st.sampled_from(ends[0]),
                                 min_size=1, max_size=5)))
    pools = [st.sampled_from(draw(st.lists(
        st.integers(0, 3 * 86400 if dtype == np.int32 else 3)
        | st.sampled_from(column_ends), min_size=1, max_size=3)))
        for dtype, column_ends in zip(dtypes[1:], ends[1:])]
    rows = []
    for first in firsts:
        run = draw(st.lists(st.tuples(st.just(first), *pools), min_size=1,
                            max_size=6))
        arranged = draw(st.sampled_from(["in order", "reversed", "drawn"]))
        if arranged != "drawn":
            run.sort(key=lambda row: (key(row), tie(row)),
                     reverse=arranged == "reversed")
        rows += run
    return name, rows


def reduction_oracle(rows, key, tie):
    """Of the rows of each key, the one least in (tie, row index), in
    key order."""
    least = {}
    for i, row in enumerate(rows):
        least[key(row)] = min(least.get(key(row), (tie(row), i, row)),
                              (tie(row), i, row))
    return [least[k][2] for k in sorted(least)]


class TestTableReduction:
    """``ingest._reduced`` reduces a block's tables, and those of two
    reductions merged by ``ingest._merged``, under each table's
    declaration."""

    @staticmethod
    def columns(rows, dtypes):
        return [np.array([row[i] for row in rows], dtype)
                for i, dtype in enumerate(dtypes)]

    @staticmethod
    def rows(columns):
        return list(zip(*(column.tolist() for column in columns)))

    @settings(max_examples=400, deadline=None)
    @given(drawn=reduced_table_rows())
    def test_keeps_the_least_tie_of_each_key_in_key_order(self, drawn):
        name, x, y = drawn
        declared, dtypes, _, key, tie = REDUCED_TABLES[name]
        got = ingest._reduced(self.columns(x + y, dtypes), *declared)
        assert [column.dtype for column in got] == list(map(np.dtype, dtypes))
        assert self.rows(got) == reduction_oracle(x + y, key, tie)

    @settings(max_examples=400, deadline=None)
    @given(drawn=first_sorted_table_rows(),
           resort_rows=st.sampled_from([1, 3, None]))
    def test_runs_out_of_order_are_resorted(self, drawn, resort_rows):
        # Chunks of 1 and 3 rows end inside runs and between them.
        name, rows = drawn
        declared, dtypes, _, key, tie = REDUCED_TABLES[name]
        with pytest.MonkeyPatch.context() as mp:
            if resort_rows is not None:
                mp.setattr(ingest, "RESORT_ROWS", resort_rows)
            got = ingest._reduced(self.columns(rows, dtypes), *declared)
        assert [column.dtype for column in got] == list(map(np.dtype, dtypes))
        assert self.rows(got) == reduction_oracle(rows, key, tie)

    @settings(max_examples=400, deadline=None)
    @given(drawn=reduced_table_rows(), resort_rows=st.sampled_from([1, 3, None]))
    def test_merging_two_reductions_reduces_their_rows(self, drawn,
                                                       resort_rows):
        name, x, y = drawn
        declared, dtypes, _, _, _ = REDUCED_TABLES[name]
        if name != "first":     # y's positions come after x's
            after = max([row[-1] for row in x], default=-1) + 1
            y = [(*row[:-1], row[-1] + after) for row in y]
        whole = ingest._reduced(self.columns(x + y, dtypes), *declared)
        with pytest.MonkeyPatch.context() as mp:
            if resort_rows is not None:
                mp.setattr(ingest, "RESORT_ROWS", resort_rows)
            merged = ingest._merged(
                ingest._reduced(self.columns(x, dtypes), *declared),
                ingest._reduced(self.columns(y, dtypes), *declared),
                *declared)
        assert self.rows(merged) == self.rows(whole)


@st.composite
def observation_sets(draw):
    """Unsorted rows, unique per (person, day), over few states and towers."""
    keys = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 15)),
                         unique=True, max_size=120))
    return make_observations(
        (person, draw(st.integers(1, 4)), day, draw(st.integers(1, 6)))
        for person, day in keys
    )


class TestObservationGrouping:
    @settings(max_examples=200, deadline=None)
    @given(obs=observation_sets(),
           cell_of_tower=st.none() | st.lists(
               st.integers(1, 3), min_size=6, max_size=6).map(
                   lambda cells: dict(zip(range(1, 7), cells))))
    def test_columnar_grouping_matches_the_dict_oracles(self, obs,
                                                        cell_of_tower):
        assert sorted(stays_from_observations(obs)) == sorted(stays_oracle(obs))
        assert first_day_counts(obs) == first_day_counts_oracle(obs)
        series = build_colocation_series(obs, n_days=15,
                                         cell_of_tower=cell_of_tower)
        totals, p = colocation_oracle(obs, cell_of_tower)
        assert list(series.totals.items()) == list(totals.items())
        assert list(series.p.items()) == list(p.items())
        assert series.states == sorted({s for s, _ in totals})

    def test_empty_input(self):
        obs = make_observations([])
        assert stays_from_observations(obs) == []
        assert first_day_counts(obs) == {}
        series = build_colocation_series(obs, n_days=3, cell_of_tower={})
        assert (series.totals, series.p, series.states) == ({}, {}, [])


#: Ids near zero, at the int64 extremes, and anywhere between.
EXTREME_IDS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(INT64_ENDS),
    st.integers(INT64_MIN, INT64_MAX),
)


@st.composite
def extreme_events(draw):
    """Events in any order over few persons, towers and timestamps.

    Timestamps come from a pool of at most four, so equal timestamps at
    different towers are common; person and tower ids reach int64's ends.
    """
    persons = draw(st.lists(EXTREME_IDS, min_size=1, max_size=5, unique=True))
    towers = draw(st.lists(EXTREME_IDS, min_size=1, max_size=4, unique=True))
    stamps = draw(st.lists(st.integers(0, 3 * 86400 - 1).map(ts_on_day),
                           min_size=1, max_size=4))
    return [
        make_event(timestamp=draw(st.sampled_from(stamps)),
                   caller=draw(st.sampled_from(persons)),
                   callee=draw(st.sampled_from(persons)),
                   tower=draw(st.sampled_from(towers)),
                   caller_state=draw(st.integers(0, 23)),
                   callee_state=draw(st.integers(0, 23)),
                   caller_customer=draw(st.booleans()),
                   callee_customer=draw(st.booleans()))
        for _ in range(draw(st.integers(0, 40)))
    ]


@st.composite
def extreme_observations(draw):
    """(observations, cell_of_tower or None): unsorted rows, one per
    (person, day), with int64-extreme person, tower and cell ids; the
    cells, when given, are shared by several towers."""
    persons = draw(st.lists(EXTREME_IDS, min_size=1, max_size=6, unique=True))
    towers = draw(st.lists(EXTREME_IDS, min_size=1, max_size=6, unique=True))
    keys = draw(st.lists(st.tuples(st.sampled_from(persons), st.integers(1, 6)),
                         unique=True, max_size=60))
    obs = make_observations(
        (person, draw(st.integers(0, 23)), day, draw(st.sampled_from(towers)))
        for person, day in keys
    )
    cells = draw(st.lists(EXTREME_IDS, min_size=1, max_size=3, unique=True))
    if not draw(st.booleans()):
        return obs, None
    return obs, {t: draw(st.sampled_from(cells)) for t in towers}


@st.composite
def handset_observations(draw):
    """Unsorted observations, one row per (person, day), with int8 states
    and int16 days or int64 columns of both; the (state, day) span dense,
    or too wide to count densely, or empty."""
    narrow = draw(st.booleans())
    if draw(st.booleans()):     # a span that bincount counts
        state_ids = st.integers(0, ingest.N_STATES)
        start = 0 if narrow else draw(st.sampled_from([0, -2 ** 40, 2 ** 62]))
        day_ids = st.integers(start + 1, start + 90)
    elif narrow:
        state_ids, day_ids = st.integers(-128, 127), st.integers(-2 ** 15, 2 ** 15 - 1)
    else:
        state_ids, day_ids = st.integers(-2 ** 20, 2 ** 20), st.integers(-2 ** 40, 2 ** 40)
    rows = draw(st.lists(st.tuples(st.integers(0, 30), day_ids), unique=True,
                         max_size=80))
    state = draw(st.lists(state_ids, min_size=len(rows), max_size=len(rows)))
    person, day = (np.array(c, np.int64) for c in zip(*rows)) if rows else (
        np.zeros(0, np.int64),) * 2
    if narrow:
        return ObservationColumns(person, np.array(state, np.int8),
                                  day.astype(np.int16), np.ones(len(rows), np.int32))
    return ObservationColumns(person, np.array(state, np.int64), day,
                              np.ones(len(rows), np.int64))


class TestPackedKeys:
    @settings(max_examples=200, deadline=None)
    @given(events=extreme_events())
    def test_daily_observations_match_the_dict_oracle(self, events):
        with cdr_file(cdr_text(events).encode()) as path:
            assert observation_rows(read_cdr(path).observations) == (
                observation_rows(dedupe_daily(parse_cdr(path))))

    @settings(max_examples=200, deadline=None)
    @given(drawn=extreme_observations())
    def test_counts_stays_and_first_days_match_the_dict_oracles(self, drawn):
        obs, _ = drawn
        counts = obs.unique_handsets()
        assert counts == count_unique_handsets(obs)
        assert list(counts) == sorted(counts)
        assert sorted(stays_from_observations(obs)) == sorted(stays_oracle(obs))
        assert first_day_counts(obs) == first_day_counts_oracle(obs)

    @settings(max_examples=200, deadline=None)
    @given(obs=handset_observations())
    def test_unique_handsets_counts_as_the_sort_did(self, obs):
        counts = obs.unique_handsets()
        want = unique_handsets_by_sort(obs)
        assert list(counts.items()) == list(want.items())
        assert all(type(v) is int for key in counts for v in (*key, counts[key]))

    @settings(max_examples=200, deadline=None)
    @given(drawn=extreme_observations())
    def test_colocation_matches_the_counter_oracle(self, drawn):
        obs, cell_of_tower = drawn
        series = build_colocation_series(obs, n_days=6,
                                         cell_of_tower=cell_of_tower)
        totals, p = colocation_oracle(obs, cell_of_tower)
        assert list(series.totals.items()) == list(totals.items())
        assert list(series.p.items()) == list(p.items())

    def test_keys_past_the_int64_range_raise(self):
        assert pack_keys(np.array([INT64_MAX, 1]))[0].tolist() == [
            INT64_MAX - 1, 0]
        with pytest.raises(ValueError, match="overflows int64"):
            pack_keys(np.array([INT64_MAX, 0]))
        with pytest.raises(ValueError, match="overflows int64"):
            pack_keys(np.array([0, 1]), np.array([INT64_MIN, 0]))
        with pytest.raises(ValueError, match="overflows int64"):
            daily_observations(from_events([
                make_event(timestamp=INT64_MIN, tower=1),
                make_event(timestamp=INT64_MAX, tower=2)]))
        wide = make_observations([(1, 0, INT64_MIN, 1), (2, 1, INT64_MAX, 1)])
        with pytest.raises(ValueError, match="overflows int64"):
            wide.unique_handsets()
        with pytest.raises(ValueError, match="overflows int64"):
            build_colocation_series(wide, n_days=3)


#: Tower ids at and past the ends of int32.
INT32_EDGES = (INT32_MIN - 1, INT32_MIN, INT32_MIN + 1, -1, 0, 1,
               INT32_MAX - 1, INT32_MAX, INT32_MAX + 1)

#: Windows whose seconds and days fit their narrow widths, or not: 24,855
#: days are the most whose seconds fit int32, and 32,767 the most whose
#: days fit int16.
NARROW_WINDOWS = tuple(StudyWindow(days=d)
                       for d in (90, 24_855, 24_856, 32_767, 32_768))


@st.composite
def narrow_edge_files(draw):
    """(window, known towers, events): few persons, some at the ends of
    int64, so that a packed (person, day) key of them would overflow, on
    few days of a long window, its last among them; known tower ids at
    and past the ends of int32, and one tower that may be unknown."""
    window = draw(st.sampled_from(NARROW_WINDOWS))
    known = draw(st.sets(st.sampled_from(INT32_EDGES), min_size=1, max_size=4))
    towers = [*known, draw(st.sampled_from(INT32_EDGES))]
    days = draw(st.lists(st.integers(0, window.days - 1), min_size=1,
                         max_size=3)) + [window.days - 1]
    stamps = [window.start + 86400 * day + draw(st.integers(0, 86399))
              for day in days for _ in range(2)]
    persons = draw(st.lists(st.integers(1, 6) | st.sampled_from(
        [INT64_MIN, INT64_MAX]), min_size=1, max_size=5, unique=True))
    events = [make_event(timestamp=draw(st.sampled_from(stamps)),
                         caller=draw(st.sampled_from(persons)),
                         callee=draw(st.sampled_from(persons)),
                         tower=draw(st.sampled_from(towers)),
                         caller_state=draw(st.integers(1, 3)),
                         callee_state=draw(st.integers(1, 3)),
                         caller_customer=draw(st.booleans()),
                         callee_customer=draw(st.booleans()))
              for _ in range(draw(st.integers(1, 60)))]
    return window, known, events


class TestNarrowColumns:
    """``read_cdr`` keeps the seconds, days and towers as narrow as the
    window and the known towers allow, and gives what the int64 column
    oracles give."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=narrow_edge_files(), block=st.sampled_from([150, 400, None]),
           resort_rows=st.sampled_from([1, 3, None]))
    def test_narrow_columns_equal_the_int64_oracles(self, monkeypatch, drawn,
                                                   block, resort_rows):
        window, known, events = drawn
        if block is not None:       # reductions merged, and repeats met
            monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
        if resort_rows is not None:
            monkeypatch.setattr(ingest, "RESORT_ROWS", resort_rows)
        with cdr_file(cdr_text(events).encode()) as path:
            got = read_cdr(path, window=window, known_towers=known)
            expected = events_reduced(
                parse_cdr(path, window=window, known_towers=known), window)
        assert reduced_rows(got) == expected
        obs = got.observations
        assert obs.first_tower.dtype == (
            np.int32 if all(INT32_MIN <= t <= INT32_MAX for t in known)
            else np.int64)
        assert obs.day.dtype == (np.int16 if window.days <= 32_767
                                 else np.int64)
        assert (obs.person_id.dtype, obs.state_code.dtype) == (np.int64,
                                                               np.int8)

    def test_observations_take_15_bytes_a_row(self, desk_small_files):
        towers = {t.tower_id
                  for t in ingest.load_towers(desk_small_files[0]["towers"])}
        obs = read_cdr(desk_small_files[0]["cdr"],
                       known_towers=towers).observations
        assert sum(c.itemsize for c in (obs.person_id, obs.state_code,
                                        obs.day, obs.first_tower)) == 15


#: The integer dtypes ``write_columns`` takes.
INT_DTYPES = [np.dtype(t)
              for t in ("i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8")]
#: Characters of the text cells: none that csv quotes, and some of
#: several UTF-8 bytes; a NUL that ends a cell is dropped by numpy.
TEXT_CHARS = ["a", "Z", "9", "-", " ", "\t", "\0", "é", "€", "\U0001f600"]


@st.composite
def written_tables(draw):
    """A header and 1-5 columns of 0-60 rows: integers of every width,
    at their extremes too, bools and text."""
    n_rows = draw(st.integers(0, 60))
    columns = []
    for kind in draw(st.lists(st.sampled_from([*INT_DTYPES, "bool", "text"]),
                              min_size=1, max_size=5)):
        if kind == "bool":
            cells, dtype = st.booleans(), bool
        elif kind == "text":
            cells, dtype = st.text(st.sampled_from(TEXT_CHARS), max_size=6), str
        else:
            info = np.iinfo(kind)
            cells, dtype = st.one_of(
                st.sampled_from([info.min, info.max, 0, 1, info.max - 9]),
                st.integers(info.min, info.max)), kind
        columns.append(np.array(draw(st.lists(cells, min_size=n_rows,
                                              max_size=n_rows)), dtype))
    return [f"c{i}é" for i in range(len(columns))], columns


class TestWriteColumns:
    def test_mixed_integer_widths_write_the_int64_bytes(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(ingest, "WRITE_BLOCK_ROWS", 2)
        columns = [np.array([INT64_MIN, -1, 0, 5, INT64_MAX], np.int64),
                   np.array([-128, 0, 1, 3, 127], np.int8),
                   np.array([-32768, 0, 1, 2, 32767], np.int16),
                   np.array([INT32_MIN, 0, 1, 2, INT32_MAX], np.int32),
                   np.array([0, 1, 2, 3, 2 ** 32 - 1], np.uint32)]
        header = [f"c{i}" for i in range(len(columns))]
        paths = [tmp_path / name for name in ("mixed", "wide", "table")]
        write_columns(paths[0], header, columns)
        write_columns(paths[1], header, [c.astype(np.int64) for c in columns])
        write_table(paths[2], header, zip(*(c.tolist() for c in columns)))
        assert paths[0].read_bytes() == paths[1].read_bytes() \
            == paths[2].read_bytes()

    def test_refusals_leave_an_existing_file_as_it_was(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"kept\n")
        # csv quotes an empty cell alone in its row, header or data; the
        # lengths differ in the last case.
        for header, columns in [(("",), [np.array([1])]),
                                (("kind",), [np.array(["call", ""])]),
                                (("a", "b"), [np.array([1, 2]), np.array([3])])]:
            with pytest.raises(ValueError):
                write_columns(path, header, columns)
        assert path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_word_coded_column_writes_the_csv_module_bytes(self, tmp_path,
                                                           monkeypatch, dtype):
        monkeypatch.setattr(ingest, "WRITE_BLOCK_ROWS", 3)
        codes = (np.arange(8) * 5 % 7 % 2).astype(dtype)
        words = ["call", "text"]
        ids = np.arange(8) - 3
        path = tmp_path / "x.csv"
        write_columns(path, ["id", "kind"], [ids, (words, codes)])
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["id", "kind"])
        writer.writerows(zip(ids.tolist(), (words[c] for c in codes.tolist())))
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    @pytest.mark.parametrize("codes", [[0, 2], [-1, 0]])
    def test_a_code_outside_its_words_is_refused(self, tmp_path, codes):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="outside"):
            write_columns(path, ["kind"], [(["call", "text"], np.array(codes))])
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(table=written_tables(), block=st.integers(1, 20))
    @example(table=(["a", "b"], [np.array(["a\0b", "\0c", ""]),
                                 np.array([INT64_MIN, 0, 2 ** 32])]), block=2)
    @example(table=(["u"], [np.array([0, 2 ** 64 - 1, 2 ** 32], np.uint64)]),
             block=1)
    def test_writes_the_oracle_and_csv_module_bytes(self, table, block):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "WRITE_BLOCK_ROWS", block)
            got, oracle = Path(tmp, "got.csv"), Path(tmp, "oracle.csv")
            if len(columns) == 1 and "" in map(str, columns[0].tolist()):
                # csv would write the lone empty cell as "".
                with pytest.raises(ValueError, match="quoting"):
                    write_columns(got, header, columns)
                assert not got.exists()
                return
            write_columns(got, header, columns)
            write_columns_by_format(oracle, header, columns)
            want = io.StringIO(newline="")
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(*(c.tolist() for c in columns)))
            assert got.read_bytes() == oracle.read_bytes() \
                == want.getvalue().encode("utf-8")
