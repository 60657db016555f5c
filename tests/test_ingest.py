import csv
import math
import sys
import tempfile
from dataclasses import dataclass
from datetime import date, datetime, time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stayup import ingest, synth


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
        cfg = ingest.NightWindowConfig()
        assert cfg.window_minutes == 480  # 21:00 through 05:00

    def test_bins_are_half_open(self):
        cfg = ingest.NightWindowConfig()
        night, b = cfg.locate(datetime(2018, 11, 5, 21, 0))
        assert b == 0
        _, b = cfg.locate(datetime(2018, 11, 5, 21, 30))
        assert b == 1  # boundary belongs to the later bin
        _, b = cfg.locate(datetime(2018, 11, 6, 5, 0))
        assert b is None  # window end excluded

    def test_after_midnight_belongs_to_previous_night(self):
        cfg = ingest.NightWindowConfig()
        night, b = cfg.locate(datetime(2018, 11, 6, 2, 0))
        assert night.day == 5
        assert b == 10

    def test_midnight_bin_index(self):
        cfg = ingest.NightWindowConfig()
        _, b = cfg.locate(datetime(2018, 11, 6, 0, 0))
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
    CFG = ingest.NightWindowConfig()

    def test_last_signal_wins(self):
        obs = ingest.extract_bedtimes(
            sessions(("s1", "2018-11-05 21:10"), ("s1", "2018-11-05 23:40")), self.CFG
        )
        assert len(obs) == 1
        assert obs.bin[0] == 5  # 23:30-24:00

    def test_post_midnight_attaches_to_previous_night(self):
        obs = ingest.extract_bedtimes(sessions(("s1", "2018-11-06 02:00")), self.CFG)
        assert len(obs) == 1
        assert obs.bin[0] == 10

    def test_daytime_only_session_gives_nothing(self):
        obs = ingest.extract_bedtimes(sessions(("s1", "2018-11-05 14:00")), self.CFG)
        assert len(obs) == 0

    def test_daytime_signal_does_not_override_window_signal(self):
        obs = ingest.extract_bedtimes(
            sessions(("s1", "2018-11-05 22:00"), ("s1", "2018-11-06 11:30")), self.CFG
        )
        assert len(obs) == 1
        assert obs.bin[0] == 2

    def test_one_observation_per_night(self):
        records = sessions(
            ("s1", "2018-11-05 22:00"), ("s1", "2018-11-05 23:00"),
            ("s1", "2018-11-06 21:30"), ("s1", "2018-11-07 01:00"),
        )
        obs = ingest.extract_bedtimes(records, self.CFG)
        nights = list(zip(obs.student.tolist(), obs.night.tolist()))
        assert len(nights) == len(set(nights)) == 2

    def test_night_indices_relative_to_global_start(self):
        records = sessions(("s2", "2018-11-05 22:00"), ("s1", "2018-11-08 22:00"))
        obs = ingest.extract_bedtimes(records, self.CFG)
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
    CFG = ingest.NightWindowConfig()

    def test_counts_nights_per_bin(self):
        obs = bedtimes([("s1", n, 6) for n in range(4)])
        counts = ingest.aggregate_sleep_counts(obs, self.CFG, min_nights=1)
        assert counts["s1"].counts[6] == 4
        assert counts["s1"].counts.sum() == 4

    def test_min_nights_excludes(self):
        obs = bedtimes([("s1", n, 2) for n in range(30)] + [("s2", 0, 2)])
        counts = ingest.aggregate_sleep_counts(obs, self.CFG, min_nights=20)
        assert "s1" in counts and "s2" not in counts

    def test_concentrated_counts(self):
        obs = bedtimes([("s1", n, 2) for n in range(30)])
        counts = ingest.aggregate_sleep_counts(obs, self.CFG, min_nights=1)
        want = np.zeros(16)
        want[2] = 30
        np.testing.assert_array_equal(counts["s1"].counts, want)

    def test_sum_equals_observation_count(self):
        rng = np.random.default_rng(0)
        obs = bedtimes([("s1", n, int(rng.integers(16))) for n in range(57)])
        counts = ingest.aggregate_sleep_counts(obs, self.CFG, min_nights=1)
        assert counts["s1"].counts.sum() == 57


class TestComputeRawFeatures:
    def _store(self, tmp_path, **kwargs):
        paths = write_logs(tmp_path, demographics=BASE_DEMO, **kwargs)
        return ingest.parse_logs(paths)

    def test_zero_borrows(self, tmp_path):
        store = self._store(tmp_path, grades="s1,3.0\ns2,2.5")
        feats = ingest.compute_raw_features(store, study_days=10)
        assert feats["s1"].books_borrowed == 0

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
        feats = ingest.compute_raw_features(store, study_days=10)
        assert feats["s1"].bath_interval_variance == 0.0

    def test_bath_variance_undefined_flagged(self, tmp_path):
        store = self._store(
            tmp_path,
            transactions="s1,2018-11-01 19:00,bath,3.0",
            grades="s1,3.0\ns2,2.5",
        )
        feats = ingest.compute_raw_features(store, study_days=10)
        assert feats["s1"].bath_interval_variance is None

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
        feats = ingest.compute_raw_features(store, study_days=10)
        assert feats["s1"].breakfast_count == 2

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
        feats = ingest.compute_raw_features(store, study_days=10)
        assert feats["s1"].breakfast_count == 1

    def test_rates_divide_by_study_days(self, tmp_path):
        store = self._store(
            tmp_path,
            net_sessions="s1,2018-11-05 23:00,game,60\ns1,2018-11-06 23:00,video,40",
            transactions="s1,2018-11-05 12:00,other,30.0",
            grades="s1,3.0\ns2,2.5",
        )
        feats = ingest.compute_raw_features(store, study_days=10)
        assert feats["s1"].mean_daily_surf_minutes == pytest.approx(10.0)
        assert feats["s1"].game_minutes == 60 and feats["s1"].video_minutes == 40
        assert feats["s1"].mean_daily_spend == pytest.approx(3.0)

    def test_missing_grade_omits_student(self, tmp_path):
        store = self._store(tmp_path, grades="s1,3.0")
        feats = ingest.compute_raw_features(store, study_days=10)
        assert "s2" not in feats


class TestCsvRoundTrips:
    def test_sleep_counts(self, tmp_path):
        rng = np.random.default_rng(1)
        counts = {
            f"s{i}": ingest.SleepCountVector(f"s{i}", rng.integers(0, 9, size=16))
            for i in range(5)
        }
        path = tmp_path / "sleep_counts.csv"
        ingest.write_sleep_counts_csv(path, counts)
        again = ingest.read_sleep_counts_csv(path)
        assert set(again) == set(counts)
        for sid in counts:
            np.testing.assert_array_equal(again[sid].counts, counts[sid].counts)

    def test_features(self, tmp_path):
        rec = ingest.RawFeatureRecord("s1", 3, 22.5, 120.0, 300.0, 18, None, 14.25, 3.4, "female")
        rec2 = ingest.RawFeatureRecord("s2", 0, 5.0, 10.0, 2.0, 2, 1.25, 8.0, 2.1, "male")
        # values that 12 significant digits would round
        rec3 = ingest.RawFeatureRecord("s3", 1, 1.7938888888888886, 0.1 + 0.2, 1 / 3, 0,
                                       2 / 7, 1 + 2**-52, 3.3000000000000003, "male")
        path = tmp_path / "features.csv"
        ingest.write_features_csv(path, {"s1": rec, "s2": rec2, "s3": rec3})
        again = ingest.read_features_csv(path)
        assert again == {"s1": rec, "s2": rec2, "s3": rec3}
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


def ref_extract_bedtimes(sessions, cfg):
    last_signal = {}
    first_night = None
    for rec in sessions:
        night, bin_index = cfg.locate(rec.end_time)
        if first_night is None or night < first_night:
            first_night = night
        if bin_index is None:
            continue
        key = (rec.student_id, night)
        if key not in last_signal or rec.end_time > last_signal[key]:
            last_signal[key] = rec.end_time
    observations = []
    for (sid, night), end_time in last_signal.items():
        _, bin_index = cfg.locate(end_time)
        observations.append(RefBedtime(sid, (night - first_night).days, bin_index))
    observations.sort(key=lambda o: (o.student_id, o.night_index))
    return observations


def ref_aggregate_sleep_counts(observations, cfg, min_nights):
    per_student = {}
    for obs in observations:
        counts = per_student.setdefault(obs.student_id, np.zeros(cfg.bin_count, dtype=np.int64))
        counts[obs.bin_index] += 1
    return {
        sid: ingest.SleepCountVector(sid, counts)
        for sid, counts in sorted(per_student.items())
        if int(counts.sum()) >= min_nights
    }


def ref_infer_study_days(store):
    stamps = [r.end_time for r in store.sessions]
    stamps += [r.time for r in store.transactions]
    stamps += [r.time for r in store.borrows]
    if not stamps:
        raise ValueError("no timestamped records to infer the study span from")
    return (max(stamps).date() - min(stamps).date()).days + 1


def ref_compute_raw_features(store, study_days,
                             breakfast_window=ingest.DEFAULT_BREAKFAST_WINDOW):
    bf_start, bf_end = breakfast_window
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
            gaps = np.diff([b.toordinal() for b in (t.date() for t in baths)])
            variance = float(np.var(gaps))
        else:
            variance = None
        features[sid] = ingest.RawFeatureRecord(
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


ODD_WINDOW = ingest.NightWindowConfig(time(22, 15), 20, 12, time(18, 0))
ODD_BREAKFAST = (time(6, 15, 30), time(8, 0))


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


def ingest_outputs(paths, out: Path, night_cfg, breakfast, reference: bool,
                   strict=False) -> dict:
    """Report, loaded rows, bedtimes, output bytes or error of one ingest,
    by the columnar or the row code."""
    parse = ref_parse_logs if reference else ingest.parse_logs
    try:
        store = parse(paths, strict=strict)
    except ingest.IngestError as exc:
        return {"error": str(exc)}
    if reference:
        observed = ref_extract_bedtimes(store.sessions, night_cfg)
        bedtimes = [(o.student_id, o.night_index, o.bin_index) for o in observed]
        counts = ref_aggregate_sleep_counts(observed, night_cfg, 1)
        infer, features = ref_infer_study_days, ref_compute_raw_features
    else:
        observed = ingest.extract_bedtimes(store.sessions, night_cfg)
        bedtimes = [(observed.students[s], n, b) for s, n, b in zip(
            observed.student.tolist(), observed.night.tolist(), observed.bin.tolist())]
        counts = ingest.aggregate_sleep_counts(observed, night_cfg, 1)
        infer, features = ingest.infer_study_days, ingest.compute_raw_features
    got = {"report": store.report, "grades": store.grades, "events": loaded_events(store),
           "bedtimes": bedtimes}
    ingest.write_sleep_counts_csv(out / "counts.csv", counts, night_cfg.bin_count)
    got["counts"] = (out / "counts.csv").read_bytes()
    try:
        days = infer(store)
    except ValueError as exc:
        got["days"] = str(exc)
        return got
    ingest.write_features_csv(out / "features.csv", features(store, days, breakfast))
    got["features"] = (out / "features.csv").read_bytes()
    return got


class TestMatchesRowReference:
    def test_synthetic_logs(self, tmp_path):
        data = tmp_path / "data"
        synth.generate_full_logs(
            synth.default_ground_truth(), synth.GeneratorConfig(60, 30, seed=3), data)
        paths = ingest.LogPaths.from_dir(data)
        for night_cfg, breakfast in ((ingest.NightWindowConfig(), ingest.DEFAULT_BREAKFAST_WINDOW),
                                     (ODD_WINDOW, ODD_BREAKFAST)):
            new = ingest_outputs(paths, tmp_path, night_cfg, breakfast, reference=False)
            ref = ingest_outputs(paths, tmp_path, night_cfg, breakfast, reference=True)
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
        assert len(ingest.extract_bedtimes(store.sessions, ingest.NightWindowConfig())) == 1
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
        feats = ingest.compute_raw_features(store, study_days=2)
        assert feats["s1"].mean_daily_spend == 2.0
        with pytest.raises(ingest.IngestError, match=r"transactions\.csv:2: non-finite amount"):
            ingest.parse_logs(paths, strict=True)

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
        feats = ingest.compute_raw_features(store, study_days=2)
        assert feats["s1"].game_minutes == 30.0
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


@st.composite
def stamps(draw) -> str:
    pick = draw(st.integers(0, 9))
    if pick == 0:
        return draw(st.sampled_from(BAD_STAMPS))
    if pick == 1:
        # the fixed-width form with each number anywhere near its range
        year, month, day, hour, minute, second = (draw(st.integers(lo, hi)) for lo, hi in (
            (2016, 2020), (0, 13), (0, 32), (0, 24), (0, 60), (0, 60)))
        text = f"{year:04d}-{month:02d}-{day:02d} {hour:02d}:{minute:02d}"
        return text + f":{second:02d}" if draw(st.booleans()) else text
    day = draw(st.dates(date(2018, 11, 1), date(2018, 11, 8)))
    if draw(st.booleans()):
        clock = draw(st.sampled_from(EDGES))
    else:
        clock = draw(st.times())
    form = draw(st.sampled_from(("minutes", "seconds", "micros")))
    text = f"{day.isoformat()}{draw(st.sampled_from((' ', 'T')))}{clock.strftime('%H:%M')}"
    if form != "minutes":
        text += clock.strftime(":%S")
    if form == "micros":
        text += clock.strftime(".%f")
    return pad(draw, text)


def pad(draw, text: str) -> str:
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from((" ", "\t", ""))) + text + draw(st.sampled_from((" ", "")))
    return text


def field(draw, good, odd) -> str:
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(odd))
    return pad(draw, draw(good))


NUMBER_ODDITIES = ("+5", "1_0", "", " 5", "-3", "12.5", "1e3", "007", "0", "-0",
                   "1234567890123456", "12345678901234567890", "1" + "0" * 400, "9" * 308,
                   "9" * 309)
AMOUNT_ODDITIES = NUMBER_ODDITIES + ("nan", "inf", "-inf", ".5", "5.", "1.2.3", "n/a", "0.1",
                                     "123456789.123456", "1e-400", "4.50 ")


@st.composite
def event_lines(draw, kind: str) -> str:
    columns = ingest.CSV_SCHEMAS[kind]
    header = draw(st.permutations(columns))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.sampled_from(("", " ", ","))))
            continue
        row = {"student_id": field(draw, st.sampled_from(KNOWN), (" s1", "s1 ", "", "ghost", "S1"))}
        row[columns[1]] = draw(stamps())
        if kind == "net_sessions":
            row["app_category"] = field(draw, st.sampled_from(ingest.APP_CATEGORIES),
                                        ("music", " game", "", "GAME"))
            row["duration_minutes"] = field(draw, st.integers(0, 600).map(str), NUMBER_ODDITIES)
        elif kind == "transactions":
            row["venue"] = field(draw, st.sampled_from(ingest.VENUES), ("gym", "bath ", ""))
            cents = st.integers(0, 100_000).map(lambda c: f"{c // 100}.{c % 100:02d}")
            row["amount"] = field(draw, cents, AMOUNT_ODDITIES)
        values = [row[c] for c in header]
        shape = draw(st.integers(0, 9))
        if shape == 0:
            values = values[:draw(st.integers(1, len(values) - 1))]
        elif shape == 1:
            values += ["extra"]
        rows.append(",".join(values))
    if rows and draw(st.integers(0, 7)) == 0:
        # a quoted field sends the whole file through the csv module
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = '"' + rows[at].replace(",", '","') + '"'
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join([",".join(header)] + rows) + newline * draw(st.integers(0, 2))


@st.composite
def log_sets(draw) -> dict:
    return {kind: draw(event_lines(kind)) for kind in ("net_sessions", "transactions", "borrows")}


class TestColumnarMatchesRowReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(logs=log_sets(), geometry=st.booleans(), strict=st.booleans())
    @example(logs={  # every id field that could be a known one is empty
        "net_sessions": "student_id,end_time,app_category,duration_minutes",
        "transactions": "student_id,time,venue,amount\n,2018-13-40 22:10,gym,+5",
        "borrows": "student_id,time",
    }, geometry=False, strict=False)
    @example(logs={  # durations too large for a float
        "net_sessions": "student_id,end_time,app_category,duration_minutes\n"
                        "s1,2018-11-05 23:40,game," + "9" * 309 + "\n"
                        "s2,2018-11-05 23:40,game," + "1" + "0" * 400,
        "transactions": "student_id,time,venue,amount",
        "borrows": "student_id,time",
    }, geometry=False, strict=False)
    def test_same_outputs_reports_and_errors(self, logs, geometry, strict):
        night_cfg, breakfast = ((ODD_WINDOW, ODD_BREAKFAST) if geometry
                                else (ingest.NightWindowConfig(), ingest.DEFAULT_BREAKFAST_WINDOW))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for kind, text in logs.items():
                (root / f"{kind}.csv").write_bytes(text.encode())
            (root / "demographics.csv").write_text("student_id,gender,cohort\n" + DEMOGRAPHICS)
            (root / "grades.csv").write_text("student_id,gpa\n" + GRADES)
            paths = ingest.LogPaths.from_dir(root)
            new = ingest_outputs(paths, root, night_cfg, breakfast, False, strict)
            ref = ingest_outputs(paths, root, night_cfg, breakfast, True, strict)
        assert new == ref
