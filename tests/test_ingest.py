import contextlib
import csv
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import date, datetime, time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stayup import ingest, synth

import reference


def write_logs(directory, net_sessions="", transactions="", borrows="", grades="",
               demographics=""):
    headers = {
        "net_sessions": "student_id,end_time,app_category,duration_minutes",
        "transactions": "student_id,time,venue,amount",
        "borrows": "student_id,time",
        "grades": "student_id,gpa",
        "demographics": "student_id,gender,cohort",
    }
    bodies = {
        "net_sessions": net_sessions,
        "transactions": transactions,
        "borrows": borrows,
        "grades": grades,
        "demographics": demographics,
    }
    for kind, body in bodies.items():
        text = headers[kind] + "\n" + (body.strip() + "\n" if body.strip() else "")
        (directory / f"{kind}.csv").write_text(text)
    return ingest.LogPaths.from_dir(directory)


BASE_DEMO = """
s1,male,freshman
s2,female,sophomore
"""


def micros(dt: datetime) -> int:
    return int(np.datetime64(dt, "us").astype(np.int64))


def assert_columns_equal(a: ingest.EventColumns, b: ingest.EventColumns):
    assert a.students == b.students
    for name in ("student", "time", "code", "value"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestParseLogs:
    def test_loads_valid_rows(self, tmp_path):
        paths = write_logs(
            tmp_path,
            net_sessions="s1,2018-11-05 23:40,game,30\ns1,2018-11-06 00:10,video,15\ns2,2018-11-05 22:00,other,5",
            demographics=BASE_DEMO,
        )
        store = ingest.parse_logs(paths)
        assert store.report.loaded["net_sessions"] == 3
        assert len(store.sessions) == 3
        assert store.sessions.time[0] == micros(datetime(2018, 11, 5, 23, 40))

    def test_lenient_skips_bad_timestamp(self, tmp_path):
        paths = write_logs(
            tmp_path,
            net_sessions="s1,2018-13-40 99:99,game,30\ns1,2018-11-05 23:00,game,30",
            demographics=BASE_DEMO,
        )
        store = ingest.parse_logs(paths, strict=False)
        assert store.report.skipped["net_sessions"] == 1
        assert store.report.loaded["net_sessions"] == 1

    def test_strict_raises_with_position(self, tmp_path):
        paths = write_logs(
            tmp_path,
            net_sessions="s1,2018-13-40 99:99,game,30",
            demographics=BASE_DEMO,
        )
        with pytest.raises(ingest.IngestError, match=r"net_sessions\.csv:2"):
            ingest.parse_logs(paths, strict=True)

    def test_empty_file_with_header_ok(self, tmp_path):
        paths = write_logs(tmp_path, demographics=BASE_DEMO)
        store = ingest.parse_logs(paths)
        assert len(store.sessions) == 0 and len(store.transactions) == 0
        assert store.report.loaded["net_sessions"] == 0

    def test_unknown_student_policy(self, tmp_path):
        paths = write_logs(
            tmp_path,
            borrows="ghost,2018-11-05 10:00",
            demographics=BASE_DEMO,
        )
        store = ingest.parse_logs(paths, strict=False)
        assert store.report.skipped["borrows"] == 1
        with pytest.raises(ingest.IngestError, match="ghost"):
            ingest.parse_logs(paths, strict=True)

    def test_header_mismatch_rejected(self, tmp_path):
        write_logs(tmp_path, demographics=BASE_DEMO)
        (tmp_path / "grades.csv").write_text("student_id,score\ns1,3.0\n")
        with pytest.raises(ingest.IngestError, match="header"):
            ingest.parse_logs(ingest.LogPaths.from_dir(tmp_path))

    def test_gpa_range_enforced(self, tmp_path):
        paths = write_logs(tmp_path, grades="s1,7.2", demographics=BASE_DEMO)
        store = ingest.parse_logs(paths, strict=False, gpa_max=5.0)
        assert store.report.skipped["grades"] == 1

    def test_missing_file_raises(self, tmp_path):
        paths = write_logs(tmp_path, demographics=BASE_DEMO)
        (tmp_path / "borrows.csv").unlink()
        with pytest.raises(ingest.IngestError, match="borrows"):
            ingest.parse_logs(paths)

    def test_reparse_is_deterministic(self, tmp_path):
        paths = write_logs(
            tmp_path,
            net_sessions="s1,2018-11-05 23:40,game,30\ns2,2018-11-06 01:00,video,20",
            transactions="s1,2018-11-05 07:30,canteen,4.5",
            demographics=BASE_DEMO,
        )
        a = ingest.parse_logs(paths)
        b = ingest.parse_logs(paths)
        assert_columns_equal(a.sessions, b.sessions)
        assert_columns_equal(a.transactions, b.transactions)
        assert a.demographics == b.demographics


class TestNightWindow:
    def test_window_geometry(self):
        assert ingest.BIN_MINUTES * ingest.BIN_COUNT == 480  # 21:00 through 05:00

    def test_bins_are_half_open(self):
        night, b = reference.locate(datetime(2018, 11, 5, 21, 0))
        assert b == 0
        _, b = reference.locate(datetime(2018, 11, 5, 21, 30))
        assert b == 1  # boundary belongs to the later bin
        _, b = reference.locate(datetime(2018, 11, 6, 5, 0))
        assert b is None  # window end excluded

    def test_after_midnight_belongs_to_previous_night(self):
        night, b = reference.locate(datetime(2018, 11, 6, 2, 0))
        assert night.day == 5
        assert b == 10

    def test_midnight_bin_index(self):
        _, b = reference.locate(datetime(2018, 11, 6, 0, 0))
        assert b == 6


def sessions(*rows):
    """Session columns from (student_id, timestamp) rows: game sessions of 10 minutes."""
    students = tuple(sorted({sid for sid, _ in rows}))
    n = len(rows)
    return ingest.EventColumns(
        students,
        np.array([students.index(sid) for sid, _ in rows], dtype=np.int32),
        np.array([micros(datetime.fromisoformat(stamp)) for _, stamp in rows], dtype=np.int64),
        np.zeros(n, dtype=np.int8),
        np.full(n, 10.0),
    )


class TestExtractBedtimes:
    def test_last_signal_wins(self):
        obs = ingest.extract_bedtimes(
            sessions(("s1", "2018-11-05 21:10"), ("s1", "2018-11-05 23:40"))
        )
        assert len(obs) == 1
        assert obs.bin[0] == 5  # 23:30-24:00

    def test_post_midnight_attaches_to_previous_night(self):
        obs = ingest.extract_bedtimes(sessions(("s1", "2018-11-06 02:00")))
        assert len(obs) == 1
        assert obs.bin[0] == 10

    def test_daytime_only_session_gives_nothing(self):
        obs = ingest.extract_bedtimes(sessions(("s1", "2018-11-05 14:00")))
        assert len(obs) == 0

    def test_daytime_signal_does_not_override_window_signal(self):
        obs = ingest.extract_bedtimes(
            sessions(("s1", "2018-11-05 22:00"), ("s1", "2018-11-06 11:30"))
        )
        assert len(obs) == 1
        assert obs.bin[0] == 2

    def test_one_observation_per_night(self):
        records = sessions(
            ("s1", "2018-11-05 22:00"), ("s1", "2018-11-05 23:00"),
            ("s1", "2018-11-06 21:30"), ("s1", "2018-11-07 01:00"),
        )
        obs = ingest.extract_bedtimes(records)
        nights = list(zip(obs.student.tolist(), obs.night.tolist()))
        assert len(nights) == len(set(nights)) == 2

    def test_night_indices_relative_to_global_start(self):
        records = sessions(("s2", "2018-11-05 22:00"), ("s1", "2018-11-08 22:00"))
        obs = ingest.extract_bedtimes(records)
        by_sid = {obs.students[s]: n for s, n in zip(obs.student.tolist(), obs.night.tolist())}
        assert by_sid == {"s2": 0, "s1": 3}


def bedtimes(rows):
    """Bedtime columns from (student_id, night_index, bin_index) rows."""
    students = tuple(sorted({sid for sid, _, _ in rows}))
    return ingest.Bedtimes(
        students,
        np.array([students.index(sid) for sid, _, _ in rows], dtype=np.int64),
        np.array([night for _, night, _ in rows], dtype=np.int64),
        np.array([b for _, _, b in rows], dtype=np.int64),
    )


class TestAggregateSleepCounts:
    def test_counts_nights_per_bin(self):
        obs = bedtimes([("s1", n, 6) for n in range(4)])
        ids, counts = ingest.aggregate_sleep_counts(obs, min_nights=1)
        assert ids == ("s1",) and counts.shape == (1, 16) and counts.dtype == np.int64
        assert counts[0, 6] == 4
        assert counts[0].sum() == 4

    def test_min_nights_excludes(self):
        obs = bedtimes([("s1", n, 2) for n in range(30)] + [("s2", 0, 2)])
        ids, counts = ingest.aggregate_sleep_counts(obs, min_nights=20)
        assert ids == ("s1",) and counts.shape == (1, 16)

    def test_concentrated_counts(self):
        obs = bedtimes([("s1", n, 2) for n in range(30)])
        _, counts = ingest.aggregate_sleep_counts(obs, min_nights=1)
        want = np.zeros((1, 16))
        want[0, 2] = 30
        np.testing.assert_array_equal(counts, want)

    def test_sum_equals_observation_count(self):
        rng = np.random.default_rng(0)
        obs = bedtimes([("s1", n, int(rng.integers(16))) for n in range(57)])
        _, counts = ingest.aggregate_sleep_counts(obs, min_nights=1)
        assert counts.sum() == 57


def bath_store(*gap_lists) -> ingest.EventStore:
    """A store in which student s<i> bathes once a day at 19:00, with the day
    gaps gap_lists[i] between baths; s<i>'s rows run in reverse time order."""
    students = tuple(f"s{i}" for i in range(len(gap_lists)))
    student, stamps = [], []
    for i, gaps in enumerate(gap_lists):
        days = 17_000 + np.concatenate(([0], np.cumsum(gaps, dtype=np.int64)))
        student += [i] * days.size
        stamps += (days * ingest.DAY_US + 19 * 3_600_000_000)[::-1].tolist()
    n = len(student)
    baths = ingest.EventColumns(students, np.array(student, np.int32), np.array(stamps, np.int64),
                                np.full(n, ingest.VENUES.index("bath"), np.int8), np.ones(n))
    empty = ingest.EventColumns(students, np.zeros(0, np.int32), np.zeros(0, np.int64),
                                np.zeros(0, np.int8), np.zeros(0))
    return ingest.EventStore(
        empty, baths, empty, np.full(len(students), 3.0), np.zeros(len(students), np.int8),
        {sid: ingest.DemographicRecord(sid, "male", "freshman") for sid in students},
        ingest.ParseReport())


def features_by_id(store, study_days) -> dict[str, dict[str, float]]:
    """compute_raw_features' rows by student id, each value by its column name."""
    ids, values = ingest.compute_raw_features(store, study_days)
    names = ingest.FEATURE_COLUMNS[1:]
    return {sid: dict(zip(names, row)) for sid, row in zip(ids, values.tolist())}


@st.composite
def event_stores(draw) -> ingest.EventStore:
    """Up to five students with a few sessions, transactions and borrows over
    20 days; some without a grade, some with fewer than two baths."""
    n = draw(st.integers(1, 5))
    students = tuple(f"s{i}" for i in range(n))

    def events(codes: int, values: bool) -> ingest.EventColumns:
        rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 20 * 1440 - 1),
                                       st.integers(0, codes - 1), st.integers(0, 400 * values)),
                             max_size=30))
        student, minute, code, value = (np.array(c, dtype=np.int64).reshape(len(rows))
                                        for c in (zip(*rows) if rows else ((),) * 4))
        return ingest.EventColumns(students, student.astype(np.int32),
                                   (17_000 * 1440 + minute) * 60_000_000, code.astype(np.int8),
                                   value / 4)

    sessions = events(len(ingest.APP_CATEGORIES), True)
    transactions = events(len(ingest.VENUES), True)
    borrows = events(1, False)
    grades = draw(st.lists(st.sampled_from([None, 0.0, 2.5, 3.25]), min_size=n, max_size=n))
    genders = draw(st.lists(st.sampled_from(ingest.GENDERS), min_size=n, max_size=n))
    return ingest.EventStore(
        sessions, transactions, borrows,
        np.array([np.nan if g is None else g for g in grades]),
        np.array([ingest.GENDERS.index(g) for g in genders], np.int8),
        {sid: ingest.DemographicRecord(sid, g, "freshman") for sid, g in zip(students, genders)},
        ingest.ParseReport())


# a list of day gaps and a reordering of it
GAPS_AND_PERMUTATION = st.lists(st.integers(0, 60), min_size=1, max_size=40).flatmap(
    lambda gaps: st.tuples(st.just(gaps), st.permutations(gaps)))


class TestComputeRawFeatures:
    @given(store=event_stores(), study_days=st.integers(1, 30))
    def test_matches_the_per_student_loop(self, store, study_days):
        ids, values = ingest.compute_raw_features(store, study_days)
        want_ids, want = reference.feature_arrays(
            reference.compute_raw_features(store, study_days))
        assert ids == want_ids
        np.testing.assert_array_equal(values, want)   # NaN where the other has NaN

    @given(pair=GAPS_AND_PERMUTATION)
    @example(pair=([2, 10, 5, 13, 13, 8, 8, 10, 8, 11], [8, 8, 13, 10, 11, 13, 2, 5, 8, 10]))
    def test_bath_variance_is_exact_and_order_free(self, pair):
        gaps, permuted = pair
        feats = features_by_id(bath_store(gaps, permuted), 10)
        mean = Fraction(sum(gaps), len(gaps))
        want = float(sum((g - mean) ** 2 for g in gaps) / len(gaps))   # correctly rounded
        got = [feats[sid]["bath_interval_variance"] for sid in ("s0", "s1")]
        assert [np.float64(v).tobytes() for v in got] == [np.float64(want).tobytes()] * 2

    def _store(self, tmp_path, **kwargs):
        paths = write_logs(tmp_path, demographics=BASE_DEMO, **kwargs)
        return ingest.parse_logs(paths)

    def test_zero_borrows(self, tmp_path):
        store = self._store(tmp_path, grades="s1,3.0\ns2,2.5")
        feats = features_by_id(store, 10)
        assert feats["s1"]["books_borrowed"] == 0

    def test_bath_variance_equal_gaps(self, tmp_path):
        store = self._store(
            tmp_path,
            transactions=(
                "s1,2018-11-01 19:00,bath,3.0\n"
                "s1,2018-11-04 19:00,bath,3.0\n"
                "s1,2018-11-07 19:00,bath,3.0"
            ),
            grades="s1,3.0\ns2,2.5",
        )
        feats = features_by_id(store, 10)
        assert feats["s1"]["bath_interval_variance"] == 0.0

    def test_bath_variance_undefined_flagged(self, tmp_path):
        store = self._store(
            tmp_path,
            transactions="s1,2018-11-01 19:00,bath,3.0",
            grades="s1,3.0\ns2,2.5",
        )
        feats = features_by_id(store, 10)
        assert math.isnan(feats["s1"]["bath_interval_variance"])

    def test_breakfast_once_per_day(self, tmp_path):
        store = self._store(
            tmp_path,
            transactions=(
                "s1,2018-11-01 07:00,canteen,4.0\n"
                "s1,2018-11-01 08:00,canteen,4.0\n"
                "s1,2018-11-02 07:30,canteen,4.0"
            ),
            grades="s1,3.0\ns2,2.5",
        )
        feats = features_by_id(store, 10)
        assert feats["s1"]["breakfast_count"] == 2

    def test_breakfast_window_bounds(self, tmp_path):
        store = self._store(
            tmp_path,
            transactions=(
                "s1,2018-11-01 04:59,canteen,4.0\n"
                "s1,2018-11-02 05:00,canteen,4.0\n"
                "s1,2018-11-03 09:30,canteen,4.0"
            ),
            grades="s1,3.0\ns2,2.5",
        )
        feats = features_by_id(store, 10)
        assert feats["s1"]["breakfast_count"] == 1

    def test_rates_divide_by_study_days(self, tmp_path):
        store = self._store(
            tmp_path,
            net_sessions="s1,2018-11-05 23:00,game,60\ns1,2018-11-06 23:00,video,40",
            transactions="s1,2018-11-05 12:00,other,30.0",
            grades="s1,3.0\ns2,2.5",
        )
        feats = features_by_id(store, 10)
        assert feats["s1"]["mean_daily_surf_minutes"] == pytest.approx(10.0)
        assert feats["s1"]["game_minutes"] == 60 and feats["s1"]["video_minutes"] == 40
        assert feats["s1"]["mean_daily_spend"] == pytest.approx(3.0)

    def test_missing_grade_omits_student(self, tmp_path):
        store = self._store(tmp_path, grades="s1,3.0")
        feats = features_by_id(store, 10)
        assert "s2" not in feats


class TestCsvRoundTrips:
    def test_sleep_counts(self, tmp_path):
        counts = np.random.default_rng(1).integers(0, 9, size=(5, 16))
        ids = ("s3", "s0", "s4", "s1", "s2")
        path = tmp_path / "sleep_counts.csv"
        ingest.write_sleep_counts_csv(path, ids, counts)
        again_ids, again = ingest.read_sleep_counts_csv(path)
        order = np.argsort(ids)   # rows are written in id order
        assert again_ids == tuple(sorted(ids)) and again.dtype == np.int64
        np.testing.assert_array_equal(again, counts[order])

    def test_sleep_counts_reject_a_student_listed_twice(self, tmp_path):
        path = tmp_path / "sleep_counts.csv"
        ingest.write_sleep_counts_csv(path, ("s1", "s1"), np.ones((2, 16), dtype=np.int64))
        with pytest.raises(ValueError) as err:
            ingest.read_sleep_counts_csv(path)
        assert str(err.value) == f"{path}: line 3: duplicate student s1"

    def test_features(self, tmp_path):
        ids = ("s3", "s1", "s2")
        values = np.array([
            # values that 12 significant digits would round
            [1, 1.7938888888888886, 0.1 + 0.2, 1 / 3, 0, 2 / 7, 1 + 2**-52, 3.3000000000000003, 0],
            [3, 22.5, 120.0, 300.0, 18, np.nan, 14.25, 3.4, 1],
            [0, 5.0, 10.0, 2.0, 2, 1.25, 8.0, 2.1, 0],
        ])
        path = tmp_path / "features.csv"
        ingest.write_features_csv(path, ids, values)
        again_ids, again = ingest.read_features_csv(path)   # rows are written in id order
        assert again_ids == ("s1", "s2", "s3") and again.dtype == np.float64
        np.testing.assert_array_equal(again, values[[1, 2, 0]])
        assert path.read_text().splitlines()[1] == "s1,3,22.5,120.0,300.0,18,,14.25,3.4,female"
        assert path.read_text().splitlines()[3] == (
            "s3,1,1.7938888888888886,0.30000000000000004,0.3333333333333333,0,"
            "0.2857142857142857,1.0000000000000002,3.3000000000000003,male")


# --- row-based reference ingest ----------------------------------------------
# The row-by-row parser, bedtime extraction and feature sums that the columnar
# ingest replaced: one frozen record per row, one datetime per timestamp and
# Python loops over the records. It carries the three fixes made with the
# columnar ingest: a timestamp with a UTC offset is a bad timestamp, a
# non-finite amount is rejected, and errors name the physical line.

@dataclass(frozen=True)
class RefSession:
    student_id: str
    end_time: datetime
    app_category: str
    duration_minutes: int


@dataclass(frozen=True)
class RefTransaction:
    student_id: str
    time: datetime
    venue: str
    amount: float


@dataclass(frozen=True)
class RefBorrow:
    student_id: str
    time: datetime


@dataclass(frozen=True)
class RefBedtime:
    student_id: str
    night_index: int
    bin_index: int


@dataclass
class RefStore:
    sessions: list
    transactions: list
    borrows: list
    grades: dict
    demographics: dict
    report: ingest.ParseReport


def ref_timestamp(text: str) -> datetime:
    try:
        dt = datetime.fromisoformat(text.strip())
    except ValueError:
        raise ValueError(f"bad timestamp {text!r}") from None
    if dt.tzinfo is not None:
        raise ValueError(f"bad timestamp {text!r}")
    return dt


def ref_rows(path: Path, kind: str):
    columns = ingest.CSV_SCHEMAS[kind]
    if not path.exists():
        raise ingest.IngestError(f"missing input file: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None or set(header) != set(columns):
            raise ingest.IngestError(
                f"{path}: header {header!r} does not match expected columns {columns}"
            )
        for row in reader:
            yield reader.line_num, row


def ref_parse_logs(paths, strict=False, gpa_max=ingest.DEFAULT_GPA_MAX) -> RefStore:
    report = ingest.ParseReport()
    mapping = paths.as_dict()

    def handle(kind, path, line_no, reason):
        if strict:
            raise ingest.IngestError(f"{path}:{line_no}: {reason}")
        report.note_skip(kind, reason)

    demographics = {}
    path = mapping["demographics"]
    for line_no, row in ref_rows(path, "demographics"):
        sid = (row["student_id"] or "").strip()
        gender = (row["gender"] or "").strip()
        cohort = (row["cohort"] or "").strip()
        if not sid:
            handle("demographics", path, line_no, "empty student_id")
            continue
        if gender not in ingest.GENDERS:
            handle("demographics", path, line_no, f"bad gender {gender!r}")
            continue
        if cohort not in ingest.COHORTS:
            handle("demographics", path, line_no, f"bad cohort {cohort!r}")
            continue
        if sid in demographics:
            handle("demographics", path, line_no, f"duplicate student {sid}")
            continue
        demographics[sid] = ingest.DemographicRecord(sid, gender, cohort)
    report.loaded["demographics"] = len(demographics)

    def known(kind, path, line_no, sid):
        if sid in demographics:
            return True
        handle(kind, path, line_no, f"unknown student {sid}")
        return False

    sessions = []
    path = mapping["net_sessions"]
    for line_no, row in ref_rows(path, "net_sessions"):
        try:
            sid = (row["student_id"] or "").strip()
            end_time = ref_timestamp(row["end_time"] or "")
            category = (row["app_category"] or "").strip()
            duration = int(row["duration_minutes"])
            if category not in ingest.APP_CATEGORIES:
                raise ValueError(f"bad app_category {category!r}")
            if duration < 0:
                raise ValueError("negative duration")
            if duration > sys.float_info.max:
                raise ValueError("duration too large")
        except (ValueError, TypeError) as exc:
            handle("net_sessions", path, line_no, str(exc))
            continue
        if not known("net_sessions", path, line_no, sid):
            continue
        sessions.append(RefSession(sid, end_time, category, duration))
    report.loaded["net_sessions"] = len(sessions)

    transactions = []
    path = mapping["transactions"]
    for line_no, row in ref_rows(path, "transactions"):
        try:
            sid = (row["student_id"] or "").strip()
            ts = ref_timestamp(row["time"] or "")
            venue = (row["venue"] or "").strip()
            amount = float(row["amount"])
            if venue not in ingest.VENUES:
                raise ValueError(f"bad venue {venue!r}")
            if amount < 0:
                raise ValueError("negative amount")
            if not math.isfinite(amount):
                raise ValueError("non-finite amount")
        except (ValueError, TypeError) as exc:
            handle("transactions", path, line_no, str(exc))
            continue
        if not known("transactions", path, line_no, sid):
            continue
        transactions.append(RefTransaction(sid, ts, venue, amount))
    report.loaded["transactions"] = len(transactions)

    borrows = []
    path = mapping["borrows"]
    for line_no, row in ref_rows(path, "borrows"):
        try:
            sid = (row["student_id"] or "").strip()
            ts = ref_timestamp(row["time"] or "")
        except (ValueError, TypeError) as exc:
            handle("borrows", path, line_no, str(exc))
            continue
        if not known("borrows", path, line_no, sid):
            continue
        borrows.append(RefBorrow(sid, ts))
    report.loaded["borrows"] = len(borrows)

    grades = {}
    path = mapping["grades"]
    for line_no, row in ref_rows(path, "grades"):
        try:
            sid = (row["student_id"] or "").strip()
            gpa = float(row["gpa"])
            if not 0 <= gpa <= gpa_max:
                raise ValueError(f"gpa {gpa} outside [0, {gpa_max}]")
        except (ValueError, TypeError) as exc:
            handle("grades", path, line_no, str(exc))
            continue
        if not known("grades", path, line_no, sid):
            continue
        if sid in grades:
            handle("grades", path, line_no, f"duplicate student {sid}")
            continue
        grades[sid] = gpa
    report.loaded["grades"] = len(grades)

    return RefStore(sessions, transactions, borrows, grades, demographics, report)


def ref_extract_bedtimes(sessions):
    last_signal = {}
    first_night = None
    for rec in sessions:
        night, bin_index = reference.locate(rec.end_time)
        if first_night is None or night < first_night:
            first_night = night
        if bin_index is None:
            continue
        key = (rec.student_id, night)
        if key not in last_signal or rec.end_time > last_signal[key]:
            last_signal[key] = rec.end_time
    observations = []
    for (sid, night), end_time in last_signal.items():
        _, bin_index = reference.locate(end_time)
        observations.append(RefBedtime(sid, (night - first_night).days, bin_index))
    observations.sort(key=lambda o: (o.student_id, o.night_index))
    return observations


def ref_aggregate_sleep_counts(observations, min_nights):
    per_student = {}
    for obs in observations:
        counts = per_student.setdefault(obs.student_id, np.zeros(ingest.BIN_COUNT, dtype=np.int64))
        counts[obs.bin_index] += 1
    kept = [(sid, c) for sid, c in sorted(per_student.items()) if int(c.sum()) >= min_nights]
    return (tuple(sid for sid, _ in kept),
            np.array([c for _, c in kept], dtype=np.int64).reshape(len(kept), ingest.BIN_COUNT))


def ref_infer_study_days(store):
    stamps = [r.end_time for r in store.sessions]
    stamps += [r.time for r in store.transactions]
    stamps += [r.time for r in store.borrows]
    if not stamps:
        raise ValueError("no timestamped records to infer the study span from")
    return (max(stamps).date() - min(stamps).date()).days + 1


def ref_compute_raw_features(store, study_days):
    bf_start, bf_end = ingest.BREAKFAST_WINDOW
    surf = {sid: 0.0 for sid in store.demographics}
    game = dict(surf)
    video = dict(surf)
    for rec in store.sessions:
        surf[rec.student_id] += rec.duration_minutes
        if rec.app_category == "game":
            game[rec.student_id] += rec.duration_minutes
        elif rec.app_category == "video":
            video[rec.student_id] += rec.duration_minutes

    spend = {sid: 0.0 for sid in store.demographics}
    breakfast_days = {sid: set() for sid in store.demographics}
    bath_times = {sid: [] for sid in store.demographics}
    for rec in store.transactions:
        spend[rec.student_id] += rec.amount
        if rec.venue == "canteen" and bf_start <= rec.time.time() < bf_end:
            breakfast_days[rec.student_id].add(rec.time.date())
        elif rec.venue == "bath":
            bath_times[rec.student_id].append(rec.time)

    borrowed = {sid: 0 for sid in store.demographics}
    for rec in store.borrows:
        borrowed[rec.student_id] += 1

    features = {}
    for sid in sorted(store.demographics):
        gpa = store.grades.get(sid)
        if gpa is None:
            continue
        baths = sorted(bath_times[sid])
        if len(baths) >= 2:
            gaps = [b.toordinal() - a.toordinal()
                    for a, b in zip((t.date() for t in baths), (t.date() for t in baths[1:]))]
            k, s, q = len(gaps), sum(gaps), sum(g * g for g in gaps)
            variance = float(k * q - s * s) / float(k * k)
        else:
            variance = None
        features[sid] = reference.RawFeatureRecord(
            student_id=sid,
            books_borrowed=borrowed[sid],
            mean_daily_surf_minutes=surf[sid] / study_days,
            game_minutes=game[sid],
            video_minutes=video[sid],
            breakfast_count=len(breakfast_days[sid]),
            bath_interval_variance=variance,
            mean_daily_spend=spend[sid] / study_days,
            gpa=gpa,
            gender=store.demographics[sid].gender,
        )
    return features


def ref_feature_arrays(store, study_days):
    return reference.feature_arrays(ref_compute_raw_features(store, study_days))


def loaded_events(store) -> dict:
    """Every loaded event as (student_id, microseconds, code, value), in file order."""
    if isinstance(store, RefStore):
        return {
            "net_sessions": [(r.student_id, micros(r.end_time),
                              ingest.APP_CATEGORIES.index(r.app_category),
                              float(r.duration_minutes)) for r in store.sessions],
            "transactions": [(r.student_id, micros(r.time), ingest.VENUES.index(r.venue), r.amount)
                             for r in store.transactions],
            "borrows": [(r.student_id, micros(r.time), 0, 0.0) for r in store.borrows],
        }
    return {
        kind: [(c.students[s], t, k, v) for s, t, k, v in zip(
            c.student.tolist(), c.time.tolist(), c.code.tolist(), c.value.tolist())]
        for kind, c in (("net_sessions", store.sessions), ("transactions", store.transactions),
                        ("borrows", store.borrows))
    }


def ingest_outputs(paths, out: Path, reference: bool, strict=False) -> dict:
    """Report, loaded rows, bedtimes, output bytes or error of one ingest,
    by the columnar or the row code."""
    parse = ref_parse_logs if reference else ingest.parse_logs
    try:
        store = parse(paths, strict=strict)
    except ingest.IngestError as exc:
        return {"error": str(exc)}
    if reference:
        observed = ref_extract_bedtimes(store.sessions)
        bedtimes = [(o.student_id, o.night_index, o.bin_index) for o in observed]
        ids, counts = ref_aggregate_sleep_counts(observed, 1)
        infer, features = ref_infer_study_days, ref_feature_arrays
    else:
        observed = ingest.extract_bedtimes(store.sessions)
        bedtimes = [(observed.students[s], n, b) for s, n, b in zip(
            observed.student.tolist(), observed.night.tolist(), observed.bin.tolist())]
        ids, counts = ingest.aggregate_sleep_counts(observed, 1)
        infer, features = ingest.infer_study_days, ingest.compute_raw_features
    if reference:
        grades = store.grades
    else:
        grades = {sid: g for sid, g in zip(store.students, store.gpa.tolist()) if not math.isnan(g)}
    got = {"report": store.report, "grades": grades, "events": loaded_events(store),
           "bedtimes": bedtimes}
    ingest.write_sleep_counts_csv(out / "counts.csv", ids, counts)
    got["counts"] = (out / "counts.csv").read_bytes()
    try:
        days = infer(store)
    except ValueError as exc:
        got["days"] = str(exc)
        return got
    ingest.write_features_csv(out / "features.csv", *features(store, days))
    got["features"] = (out / "features.csv").read_bytes()
    return got


class TestMatchesRowReference:
    def test_synthetic_logs(self, tmp_path):
        data = tmp_path / "data"
        synth.generate_full_logs(
            synth.default_ground_truth(), synth.GeneratorConfig(60, 30, seed=3), data)
        paths = ingest.LogPaths.from_dir(data)
        new = ingest_outputs(paths, tmp_path, reference=False)
        ref = ingest_outputs(paths, tmp_path, reference=True)
        assert new == ref
        assert new["report"].loaded["net_sessions"] == 60 * 30

    def test_quoted_file_takes_the_row_path(self, tmp_path):
        plain = "s1,2018-11-05 23:40,game,30\ns2,2018-11-06 01:10,video,15"
        a = ingest.parse_logs(write_logs(tmp_path, net_sessions=plain, demographics=BASE_DEMO))
        quoted = '"s1",2018-11-05 23:40,game,30\ns2,"2018-11-06 01:10",video,15'
        b = ingest.parse_logs(write_logs(tmp_path, net_sessions=quoted, demographics=BASE_DEMO))
        assert_columns_equal(a.sessions, b.sessions)
        assert a.report == b.report


class TestIngestFixes:
    def test_utc_offset_is_a_bad_timestamp(self, tmp_path):
        paths = write_logs(
            tmp_path,
            net_sessions="s1,2018-11-05 23:50+08:00,game,30\ns1,2018-11-05 23:00,game,30",
            demographics=BASE_DEMO,
        )
        store = ingest.parse_logs(paths)
        assert store.report.reasons["net_sessions"] == {"bad timestamp '2018-11-05 23:50+08:00'": 1}
        assert store.report.loaded["net_sessions"] == 1
        assert len(ingest.extract_bedtimes(store.sessions)) == 1
        with pytest.raises(ingest.IngestError,
                           match=r"net_sessions\.csv:2: bad timestamp '2018-11-05 23:50\+08:00'"):
            ingest.parse_logs(paths, strict=True)

    def test_utc_offset_does_not_fail_the_cli(self, tmp_path):
        from stayup import cli

        write_logs(
            tmp_path,
            net_sessions="s1,2018-11-05T23:50:00Z,game,30\ns1,2018-11-05 23:00,game,30",
            grades="s1,3.0\ns2,2.5",
            demographics=BASE_DEMO,
        )
        out = tmp_path / "out"
        assert cli.main(["ingest", "--data", str(tmp_path), "--out", str(out)]) == 0
        assert (out / "sleep_counts.csv").exists()

    @pytest.mark.parametrize("text", ["nan", "inf", "NaN", "Infinity", "1e400"])
    def test_non_finite_amount_rejected(self, tmp_path, text):
        paths = write_logs(
            tmp_path,
            transactions=f"s1,2018-11-05 12:00,other,{text}\ns1,2018-11-05 13:00,other,4.0",
            grades="s1,3.0\ns2,2.5",
            demographics=BASE_DEMO,
        )
        store = ingest.parse_logs(paths)
        assert store.report.reasons["transactions"] == {"non-finite amount": 1}
        feats = features_by_id(store, 2)
        assert feats["s1"]["mean_daily_spend"] == 2.0
        with pytest.raises(ingest.IngestError, match=r"transactions\.csv:2: non-finite amount"):
            ingest.parse_logs(paths, strict=True)

    def test_a_sum_past_the_float_range_fails_ingest(self, tmp_path, capsys):
        from stayup import cli

        # each amount is finite, so parse_logs keeps both; their sum is not
        paths = write_logs(
            tmp_path,
            transactions="s1,2018-11-05 12:00,other,1e308\ns1,2018-11-05 13:00,other,1e308",
            grades="s1,3.0\ns2,2.5",
            demographics=BASE_DEMO,
        )
        store = ingest.parse_logs(paths)
        assert store.report.loaded["transactions"] == 2
        message = "student s1: mean_daily_spend is inf, a sum past the float range"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ingest.compute_raw_features(store, 2)
        out = tmp_path / "out"
        assert cli.main(["ingest", "--data", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "features.csv").exists()
        run = tmp_path / "run"
        assert cli.main(["run", "--data", str(tmp_path), "--out", str(run)]) == 1
        assert f"stage 'ingest' failed: {message}" in capsys.readouterr().err
        assert json.loads((run / "MANIFEST.json").read_text())["incomplete"] == ["ingest"]

    def test_duration_too_large_for_a_float(self, tmp_path):
        huge = "1" + "0" * 400
        paths = write_logs(
            tmp_path,
            net_sessions=f"s1,2018-11-05 23:40,game,{huge}\ns1,2018-11-06 23:40,game,30",
            grades="s1,3.0\ns2,2.5",
            demographics=BASE_DEMO,
        )
        store = ingest.parse_logs(paths)
        assert store.report.reasons["net_sessions"] == {"duration too large": 1}
        assert store.report.loaded["net_sessions"] == 1
        feats = features_by_id(store, 2)
        assert feats["s1"]["game_minutes"] == 30.0
        with pytest.raises(ingest.IngestError, match=r"net_sessions\.csv:2: duration too large"):
            ingest.parse_logs(paths, strict=True)

    def test_duration_too_large_does_not_fail_the_cli(self, tmp_path, capsys):
        from stayup import cli

        huge = "1" + "0" * 400
        write_logs(tmp_path, net_sessions=f"s1,2018-11-05 23:40,game,{huge}\ns1,2018-11-06 23:40,game,30",
                   grades="s1,3.0\ns2,2.5", demographics=BASE_DEMO)
        out = tmp_path / "out"
        assert cli.main(["ingest", "--data", str(tmp_path), "--out", str(out)]) == 0
        assert cli.main(["ingest", "--data", str(tmp_path), "--out", str(out), "--strict"]) == 1
        assert "net_sessions.csv:2: duration too large" in capsys.readouterr().err

    def test_negative_infinity_stays_a_negative_amount(self, tmp_path):
        paths = write_logs(tmp_path, transactions="s1,2018-11-05 12:00,other,-inf",
                           demographics=BASE_DEMO)
        store = ingest.parse_logs(paths)
        assert store.report.reasons["transactions"] == {"negative amount": 1}

    def test_strict_error_names_the_physical_line(self, tmp_path):
        write_logs(tmp_path, demographics=BASE_DEMO)
        (tmp_path / "transactions.csv").write_text(
            "student_id,time,venue,amount\n"
            "s1,2018-11-05 07:30,canteen,4.5\n"
            "\n"
            "\n"
            "s1,2018-11-05 08:30,gym,4.5\n"
        )
        with pytest.raises(ingest.IngestError, match=r"transactions\.csv:5: bad venue 'gym'"):
            ingest.parse_logs(ingest.LogPaths.from_dir(tmp_path), strict=True)

    def test_physical_line_on_the_row_path_too(self, tmp_path):
        write_logs(tmp_path, demographics=BASE_DEMO)
        (tmp_path / "borrows.csv").write_text(
            'student_id,time\r\n"s1",2018-11-05 10:00\r\n\r\n\r\nghost,2018-11-05 10:00\r\n'
        )
        with pytest.raises(ingest.IngestError, match=r"borrows\.csv:5: unknown student ghost"):
            ingest.parse_logs(ingest.LogPaths.from_dir(tmp_path), strict=True)

    def test_first_bad_row_wins_across_files(self, tmp_path):
        paths = write_logs(
            tmp_path,
            net_sessions="s1,2018-11-05 23:40,game,30\nghost,2018-11-05 23:40,game,30",
            transactions="s1,2018-11-05 25:00,canteen,4.5",
            demographics=BASE_DEMO + "s3,male,senior",
        )
        with pytest.raises(ingest.IngestError, match=r"demographics\.csv:4: bad cohort"):
            ingest.parse_logs(paths, strict=True)
        (tmp_path / "demographics.csv").write_text("student_id,gender,cohort" + BASE_DEMO)
        with pytest.raises(ingest.IngestError, match=r"net_sessions\.csv:3: unknown student ghost"):
            ingest.parse_logs(paths, strict=True)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["columnar", "csv-module"])
    def test_a_leading_bom_is_skipped_in_every_file(self, tmp_path, newline, quoted):
        from stayup import cli

        rows = {
            "net_sessions": ["s1,2018-11-05 23:40,game,30", "s2,2018-11-06 01:10,video,15",
                             "ghost,2018-11-06 01:10,video,15"],
            "transactions": ["s1,2018-11-05 07:30,canteen,4.5", "s2,2018-11-05 12:00,gym,3"],
            "borrows": ["s2,2018-11-05 10:00"],
            "grades": ["s1,3.0", "s2,9.5"],
            "demographics": BASE_DEMO.split(),
        }
        if quoted:   # a quoted field sends each event log through the csv module instead
            for kind in ("net_sessions", "transactions", "borrows"):
                sid, rest = rows[kind][0].split(",", 1)
                rows[kind][0] = f'"{sid}",{rest}'
        stores = []
        for name, bom in (("plain", ""), ("bom", "\ufeff")):
            (tmp_path / name).mkdir()
            for kind, lines in rows.items():
                text = newline.join([",".join(ingest.CSV_SCHEMAS[kind])] + lines) + newline
                (tmp_path / name / f"{kind}.csv").write_bytes((bom + text).encode())
            # an unquoted event log stays on the columnar path, BOM or not
            by_rows = mock.patch.object(ingest, "_read_events_by_rows", side_effect=AssertionError)
            with contextlib.nullcontext() if quoted else by_rows:
                stores.append(ingest.parse_logs(ingest.LogPaths.from_dir(tmp_path / name)))
        plain, with_bom = stores
        assert loaded_events(with_bom) == loaded_events(plain)
        assert with_bom.report == plain.report
        assert with_bom.report.loaded == {"demographics": 2, "net_sessions": 2,
                                          "transactions": 1, "borrows": 1, "grades": 1}
        np.testing.assert_array_equal(with_bom.gpa, plain.gpa)
        np.testing.assert_array_equal(with_bom.gender, plain.gender)
        assert with_bom.demographics == plain.demographics
        assert cli.main(["ingest", "--data", str(tmp_path / "bom"), "--out", str(tmp_path / "out")]) == 0


# --- hypothesis: the columnar ingest against the row reference ----------------

KNOWN = ("s1", "s2", "s10")
DEMOGRAPHICS = "s1,male,freshman\ns2,female,sophomore\ns10,female,junior\n"
GRADES = "s1,3.0\ns2,2.5\n"

BAD_STAMPS = ("2018-13-40 22:10", "yesterday", "", "2018-11-05 25:10", "2018/11/05 23:00",
              "2018-11-05 23:50+08:00", "2018-11-05T23:50:00Z", "2018-11-05", "20181105T2350",
              "2018-11-05x23:50", "2018-02-29 10:00", "2020-02-29 23:00", "2018-11-05 23:5",
              "0000-01-01 00:00")
EDGES = (time(21, 0), time(5, 0), time(12, 0), time(20, 59, 59), time(4, 59, 59, 999999),
         time(11, 59, 59, 999999), time(22, 15), time(18, 0), time(6, 15, 30), time(8, 0),
         time(9, 30))

# The strategies below are built once: hypothesis validates each strategy object
# on its first draw, and building them inside the composites made that
# validation most of these tests' time.
integers = functools.cache(st.integers)
sampled_from = functools.cache(st.sampled_from)
BOOLEANS = st.booleans()
DAYS = st.dates(date(2018, 11, 1), date(2018, 11, 8))
CLOCKS = st.times()
DURATIONS = st.integers(0, 600).map(str)
AMOUNTS = st.integers(0, 100_000).map(lambda c: f"{c // 100}.{c % 100:02d}")
HEADER_ORDERS = {kind: st.permutations(columns) for kind, columns in ingest.CSV_SCHEMAS.items()}


@st.composite
def stamps(draw) -> str:
    pick = draw(integers(0, 9))
    if pick == 0:
        return draw(sampled_from(BAD_STAMPS))
    if pick == 1:
        # the fixed-width form with each number anywhere near its range
        year, month, day, hour, minute, second = (draw(integers(lo, hi)) for lo, hi in (
            (2016, 2020), (0, 13), (0, 32), (0, 24), (0, 60), (0, 60)))
        text = f"{year:04d}-{month:02d}-{day:02d} {hour:02d}:{minute:02d}"
        return text + f":{second:02d}" if draw(BOOLEANS) else text
    day = draw(DAYS)
    if draw(BOOLEANS):
        clock = draw(sampled_from(EDGES))
    else:
        clock = draw(CLOCKS)
    form = draw(sampled_from(("minutes", "seconds", "micros")))
    text = f"{day.isoformat()}{draw(sampled_from((' ', 'T')))}{clock.strftime('%H:%M')}"
    if form != "minutes":
        text += clock.strftime(":%S")
    if form == "micros":
        text += clock.strftime(".%f")
    return pad(draw, text)


STAMPS = stamps()


def pad(draw, text: str) -> str:
    if draw(integers(0, 7)) == 0:
        return draw(sampled_from((" ", "\t", ""))) + text + draw(sampled_from((" ", "")))
    return text


def field(draw, good, odd) -> str:
    if draw(integers(0, 3)) == 0:
        return draw(sampled_from(odd))
    return pad(draw, draw(good))


NUMBER_ODDITIES = ("+5", "1_0", "", " 5", "-3", "12.5", "1e3", "007", "0", "-0",
                   "1234567890123456", "12345678901234567890", "1" + "0" * 400, "9" * 308,
                   "9" * 309)
AMOUNT_ODDITIES = NUMBER_ODDITIES + ("nan", "inf", "-inf", ".5", "5.", "1.2.3", "n/a", "0.1",
                                     "123456789.123456", "1e-400", "4.50 ")


@st.composite
def event_lines(draw, kind: str) -> str:
    columns = ingest.CSV_SCHEMAS[kind]
    header = draw(HEADER_ORDERS[kind])
    rows = []
    for _ in range(draw(integers(0, 12))):
        if draw(integers(0, 9)) == 0:
            rows.append(draw(sampled_from(("", " ", ","))))
            continue
        row = {"student_id": field(draw, sampled_from(KNOWN), (" s1", "s1 ", "", "ghost", "S1"))}
        row[columns[1]] = draw(STAMPS)
        if kind == "net_sessions":
            row["app_category"] = field(draw, sampled_from(ingest.APP_CATEGORIES),
                                        ("music", " game", "", "GAME"))
            row["duration_minutes"] = field(draw, DURATIONS, NUMBER_ODDITIES)
        elif kind == "transactions":
            row["venue"] = field(draw, sampled_from(ingest.VENUES), ("gym", "bath ", ""))
            row["amount"] = field(draw, AMOUNTS, AMOUNT_ODDITIES)
        values = [row[c] for c in header]
        shape = draw(integers(0, 9))
        if shape == 0:
            values = values[:draw(integers(1, len(values) - 1))]
        elif shape == 1:
            values += ["extra"]
        rows.append(",".join(values))
    if rows and draw(integers(0, 7)) == 0:
        # a quoted field sends the whole file through the csv module
        at = draw(integers(0, len(rows) - 1))
        rows[at] = '"' + rows[at].replace(",", '","') + '"'
    newline = draw(sampled_from(("\n", "\r\n")))
    return newline.join([",".join(header)] + rows) + newline * draw(integers(0, 2))


EVENT_LINES = {kind: event_lines(kind) for kind in ("net_sessions", "transactions", "borrows")}


@st.composite
def log_sets(draw) -> dict:
    return {kind: draw(lines) for kind, lines in EVENT_LINES.items()}


class TestColumnarMatchesRowReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(logs=log_sets(), strict=st.booleans())
    @example(logs={  # every id field that could be a known one is empty
        "net_sessions": "student_id,end_time,app_category,duration_minutes",
        "transactions": "student_id,time,venue,amount\n,2018-13-40 22:10,gym,+5",
        "borrows": "student_id,time",
    }, strict=False)
    @example(logs={  # durations too large for a float
        "net_sessions": "student_id,end_time,app_category,duration_minutes\n"
                        "s1,2018-11-05 23:40,game," + "9" * 309 + "\n"
                        "s2,2018-11-05 23:40,game," + "1" + "0" * 400,
        "transactions": "student_id,time,venue,amount",
        "borrows": "student_id,time",
    }, strict=False)
    def test_same_outputs_reports_and_errors(self, logs, strict):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for kind, text in logs.items():
                (root / f"{kind}.csv").write_bytes(text.encode())
            (root / "demographics.csv").write_text("student_id,gender,cohort\n" + DEMOGRAPHICS)
            (root / "grades.csv").write_text("student_id,gpa\n" + GRADES)
            paths = ingest.LogPaths.from_dir(root)
            new = ingest_outputs(paths, root, False, strict)
            ref = ingest_outputs(paths, root, True, strict)
        assert new == ref


# --- hypothesis: event logs decoded in blocks against the whole-file reader ---

WRONG_HEADERS = {   # each event log's header minus a column, with a name twice, quoted
    kind: (",".join(columns[:-1]), ",".join(columns + columns[-1:]),
           ",".join(f'"{c}"' for c in columns))
    for kind, columns in ingest.CSV_SCHEMAS.items()
}


@st.composite
def block_log_sets(draw) -> dict:
    """Event logs as log_sets draws them, some missing (None), some with a
    leading BOM, some with a header the columnar path cannot take."""
    logs = draw(log_sets())
    for kind, text in logs.items():
        pick = draw(integers(0, 11))
        if pick == 0:
            logs[kind] = None
        elif pick == 1:
            logs[kind] = "\ufeff" + text
        elif pick == 2:
            head, newline, rest = text.partition("\n")
            wrong = draw(sampled_from(WRONG_HEADERS[kind]))
            logs[kind] = wrong + ("\r" if head.endswith("\r") else "") + newline + rest
    return logs


def parsed(paths, strict: bool) -> dict:
    """The loaded events and skip reasons, in order, of parse_logs, or its error."""
    try:
        store = ingest.parse_logs(paths, strict=strict)
    except ingest.IngestError as exc:
        return {"error": str(exc)}
    report = store.report
    return {"events": loaded_events(store), "loaded": report.loaded, "skipped": report.skipped,
            "reasons": [(kind, list(counts.items())) for kind, counts in report.reasons.items()]}


PLAIN_ROWS = "\n".join(f"s{1 + i % 2},2018-11-05 2{i % 4}:10,game,{i}" for i in range(12))


class TestBlocksMatchWholeFile:
    """The event logs cut into blocks of a few bytes read as the whole-file
    reader (reference.read_event_logs) reads them."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(logs=block_log_sets(), block=st.integers(1, 80), strict=st.booleans())
    @example(logs={  # a quote in a later block sends the whole file to the csv module
        "net_sessions": "student_id,end_time,app_category,duration_minutes\n" + PLAIN_ROWS
                        + '\nghost,2018-11-05 23:40,game,5\n"s1",2018-11-05 23:50,video,7\n',
        "transactions": "student_id,time,venue,amount\r\ns1,2018-11-05 07:30,canteen,4.5",
        "borrows": "student_id,time\r\ns1,2018-11-05 10:00\r\nghost,2018-11-05 10:00\r\n",
    }, block=20, strict=False)
    @example(logs={  # a bad row in an earlier log wins over a missing later one
        "net_sessions": "student_id,end_time,app_category,duration_minutes\r\n"
                        "s1,2018-11-05 23:40,game,30\r\nghost,2018-11-05 23:40,game,30",
        "transactions": None,
        "borrows": "student_id,time\nbad,header",
    }, block=1, strict=True)
    @example(logs={  # the same without the bad row: the missing log's error
        "net_sessions": "student_id,end_time,app_category,duration_minutes\r\n"
                        "s1,2018-11-05 23:40,game,30\r\n",
        "transactions": None,
        "borrows": "student_id,time\nbad,header",
    }, block=1, strict=True)
    def test_same_columns_reasons_and_errors(self, logs, block, strict):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for kind, text in logs.items():
                if text is not None:
                    (root / f"{kind}.csv").write_bytes(text.encode())
            (root / "demographics.csv").write_text("student_id,gender,cohort\n" + DEMOGRAPHICS)
            (root / "grades.csv").write_text("student_id,gpa\n" + GRADES)
            paths = ingest.LogPaths.from_dir(root)
            with mock.patch.object(ingest, "BLOCK_BYTES", block):
                new = parsed(paths, strict)
            with mock.patch.object(ingest, "_read_event_logs", reference.read_event_logs):
                ref = parsed(paths, strict)
        assert new == ref

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("last", ["\n", ""], ids=["terminated", "unterminated"])
    def test_cuts_fall_after_line_breaks(self, tmp_path, newline, last):
        text = (newline.join(["student_id,end_time,app_category,duration_minutes"]
                             + PLAIN_ROWS.split("\n")) + (newline if last else ""))
        (tmp_path / "net_sessions.csv").write_bytes(text.encode())
        data = text.encode()
        header_end = data.index(b"\n") + 1
        for block in (1, header_end, 7, 40, len(data)):
            with mock.patch.object(ingest, "BLOCK_BYTES", block):
                cut = ingest._cut(tmp_path / "net_sessions.csv", "net_sessions")
            assert b"".join(data[lo:hi] for lo, hi in cut.blocks) == data
            assert all(data[hi - 1:hi] == b"\n" for _, hi in cut.blocks[:-1])
            if block == 1:   # one block per line: a cut right after the header and
                assert cut.blocks[0] == (0, header_end)   # before the last line
                assert len(cut.blocks) == 13

    @pytest.mark.parametrize("text", [
        "student_id,time\n\ns1,2018-11-05 10:00\r",   # after an empty line, at the end
        "student_id,time\r\ns1,2018-11-05 10:00\rs2,2018-11-05 11:00\r\n",
        "student_id,time\r\r\ns1,2018-11-05 10:00\r\n",   # two before the header's break
    ])
    @pytest.mark.parametrize("block", [2, 1 << 20])
    def test_a_bare_carriage_return_takes_the_csv_module(self, tmp_path, text, block):
        write_logs(tmp_path, demographics=BASE_DEMO)
        (tmp_path / "borrows.csv").write_bytes(text.encode())
        paths = ingest.LogPaths.from_dir(tmp_path)
        by_rows = mock.patch.object(ingest, "_read_events_by_rows",
                                    wraps=ingest._read_events_by_rows)
        with mock.patch.object(ingest, "BLOCK_BYTES", block), by_rows as rows:
            new = parsed(paths, strict=False)
        assert [c.args[1] for c in rows.call_args_list] == ["borrows"]
        with mock.patch.object(ingest, "_read_event_logs", reference.read_event_logs):
            assert new == parsed(paths, strict=False)

    def test_logs_within_one_block_are_decoded_without_a_fork(self, tmp_path):
        paths = write_logs(tmp_path, net_sessions=PLAIN_ROWS,
                           transactions="s1,2018-11-05 07:30,canteen,4.5",
                           borrows="s2,2018-11-05 10:00", demographics=BASE_DEMO)
        with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            small = parsed(paths, strict=False)
        assert small["loaded"] == {"demographics": 2, "net_sessions": 12, "transactions": 1,
                                   "borrows": 1, "grades": 0}
        with (mock.patch.object(ingest, "BLOCK_BYTES", 64),
              mock.patch.object(os, "fork", wraps=os.fork) as fork):
            assert parsed(paths, strict=False) == small
        assert fork.call_count == 1
