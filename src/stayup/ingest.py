"""Event-log ingestion: CSV parsing, bedtime extraction, count aggregation,
and raw behavioral features.

A "night" runs from the configured boundary (noon by default) to the next
day's boundary, so signals after midnight attach to the preceding evening.
The bedtime of a night is the end time of the last network session falling
inside the observation window (21:00 plus 16 half-hour bins by default);
bins are half-open, so a signal exactly on a boundary lands in the later bin.

The three event logs are read into numpy columns (``EventColumns``): a
student index, an int64 timestamp in microseconds since 1970-01-01 (naive
local time), a category or venue code and a duration or amount. Rows in a
narrow grammar are decoded with array ops: fixed-width
``YYYY-MM-DD[ T]HH:MM[:SS]`` timestamps, plain-digit durations, plain decimal
amounts and known ids without surrounding whitespace. Every other row goes
through the per-row checks, which accept what ``datetime.fromisoformat``,
``int`` and ``float`` accept and give each rejected row its reason.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

APP_CATEGORIES = ("game", "video", "other")
VENUES = ("canteen", "bath", "other")
GENDERS = ("male", "female")
COHORTS = ("freshman", "sophomore", "junior")

DEFAULT_MIN_NIGHTS = 20
DEFAULT_BREAKFAST_WINDOW = (time(5, 0), time(9, 30))
DEFAULT_GPA_MAX = 5.0

CSV_SCHEMAS = {
    "net_sessions": ["student_id", "end_time", "app_category", "duration_minutes"],
    "transactions": ["student_id", "time", "venue", "amount"],
    "borrows": ["student_id", "time"],
    "grades": ["student_id", "gpa"],
    "demographics": ["student_id", "gender", "cohort"],
}

DAY_US = 86_400_000_000
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class DemographicRecord:
    student_id: str
    gender: str
    cohort: str


def _time_us(t: time) -> int:
    """Microseconds from midnight to a time of day."""
    return ((t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000 + t.microsecond


@dataclass(frozen=True)
class NightWindowConfig:
    window_start: time = time(21, 0)
    bin_minutes: int = 30
    bin_count: int = 16
    night_boundary: time = time(12, 0)

    def __post_init__(self):
        if self.bin_minutes <= 0 or self.bin_count <= 0:
            raise ValueError("bin geometry must be positive")
        start = self.window_start.hour * 60 + self.window_start.minute
        boundary = self.night_boundary.hour * 60 + self.night_boundary.minute
        if start < boundary:
            raise ValueError("window must start at or after the night boundary")
        if start + self.window_minutes > 24 * 60 + boundary:
            raise ValueError("window must end before the next night boundary")

    @property
    def window_minutes(self) -> int:
        return self.bin_minutes * self.bin_count

    def night_of(self, dt: datetime) -> date:
        """Calendar date of the night a timestamp belongs to."""
        if dt.time() >= self.night_boundary:
            return dt.date()
        return dt.date() - timedelta(days=1)

    def locate(self, dt: datetime) -> tuple[date, int | None]:
        """Night date plus bin index, or None when outside the window."""
        night = self.night_of(dt)
        start = datetime.combine(night, self.window_start)
        offset = (dt - start).total_seconds() / 60.0
        if 0 <= offset < self.window_minutes:
            return night, int(offset // self.bin_minutes)
        return night, None

    def bin_start(self, night: date, bin_index: int) -> datetime:
        return datetime.combine(night, self.window_start) + timedelta(
            minutes=bin_index * self.bin_minutes
        )


@dataclass
class EventColumns:
    """One event log as columns in file order; row i is the i-th loaded event."""
    students: tuple[str, ...]   # sorted demographics ids; ``student`` indexes them
    student: np.ndarray         # int32
    time: np.ndarray            # int64 microseconds since 1970-01-01, naive
    code: np.ndarray            # int8 index into APP_CATEGORIES or VENUES (0 for borrows)
    value: np.ndarray           # float64 duration in minutes or amount (0 for borrows)

    def __len__(self) -> int:
        return self.student.size


@dataclass
class Bedtimes:
    """One row per student-night with an in-window signal, sorted by student, night."""
    students: tuple[str, ...]
    student: np.ndarray   # index into students
    night: np.ndarray     # nights since the earliest night touched by any session
    bin: np.ndarray       # bin of the night's last in-window signal

    def __len__(self) -> int:
        return self.student.size


@dataclass
class SleepCountVector:
    student_id: str
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or np.any(self.counts < 0):
            raise ValueError("counts must be a non-negative vector")


@dataclass
class RawFeatureRecord:
    student_id: str
    books_borrowed: int
    mean_daily_surf_minutes: float
    game_minutes: float
    video_minutes: float
    breakfast_count: int
    bath_interval_variance: float | None  # None when fewer than 2 bath events
    mean_daily_spend: float
    gpa: float
    gender: str


@dataclass
class ParseReport:
    loaded: dict[str, int] = field(default_factory=dict)
    skipped: dict[str, int] = field(default_factory=dict)
    reasons: dict[str, dict[str, int]] = field(default_factory=dict)

    def note_skip(self, kind: str, reason: str):
        self.skipped[kind] = self.skipped.get(kind, 0) + 1
        self.reasons.setdefault(kind, {})
        self.reasons[kind][reason] = self.reasons[kind].get(reason, 0) + 1


@dataclass
class EventStore:
    sessions: EventColumns
    transactions: EventColumns
    borrows: EventColumns
    grades: dict[str, float]
    demographics: dict[str, DemographicRecord]
    report: ParseReport

    @property
    def students(self) -> tuple[str, ...]:
        return self.sessions.students


@dataclass(frozen=True)
class LogPaths:
    net_sessions: Path
    transactions: Path
    borrows: Path
    grades: Path
    demographics: Path

    @classmethod
    def from_dir(cls, directory) -> "LogPaths":
        d = Path(directory)
        return cls(*(d / f"{kind}.csv" for kind in CSV_SCHEMAS))

    def as_dict(self) -> dict[str, Path]:
        return {kind: getattr(self, kind) for kind in CSV_SCHEMAS}


# --- per-row checks -----------------------------------------------------------

def _parse_timestamp(text: str) -> int:
    """Microseconds since 1970-01-01 of a naive ISO timestamp."""
    try:
        dt = datetime.fromisoformat(text.strip())
    except ValueError:
        dt = None
    if dt is None or dt.tzinfo is not None:
        raise ValueError(f"bad timestamp {text!r}")
    return (dt - _EPOCH) // _MICROSECOND


def _session_row(row) -> tuple[str, int, int, float]:
    sid = (row["student_id"] or "").strip()
    end_time = _parse_timestamp(row["end_time"] or "")
    category = (row["app_category"] or "").strip()
    duration = int(row["duration_minutes"])
    if category not in APP_CATEGORIES:
        raise ValueError(f"bad app_category {category!r}")
    if duration < 0:
        raise ValueError("negative duration")
    try:
        minutes = float(duration)
    except OverflowError:
        raise ValueError("duration too large") from None
    return sid, end_time, APP_CATEGORIES.index(category), minutes


def _transaction_row(row) -> tuple[str, int, int, float]:
    sid = (row["student_id"] or "").strip()
    ts = _parse_timestamp(row["time"] or "")
    venue = (row["venue"] or "").strip()
    amount = float(row["amount"])
    if venue not in VENUES:
        raise ValueError(f"bad venue {venue!r}")
    if amount < 0:
        raise ValueError("negative amount")
    if not math.isfinite(amount):
        raise ValueError("non-finite amount")
    return sid, ts, VENUES.index(venue), amount


def _borrow_row(row) -> tuple[str, int, int, float]:
    return (row["student_id"] or "").strip(), _parse_timestamp(row["time"] or ""), 0, 0.0


def _check_header(path: Path, header, columns):
    if header is None or set(header) != set(columns):
        raise IngestError(
            f"{path}: header {header!r} does not match expected columns {columns}"
        )


def check_columns(path, header, columns):
    """Raise ValueError naming the first of columns that a stage file's header lacks."""
    for name in columns:
        if name not in (header or ()):
            raise ValueError(f"{path}: missing column {name!r}")


def stage_records(path, reader: csv.DictReader, parse):
    """Yield parse(row) for each data row of a stage file whose header was checked.

    A row with fewer fields than the header, or one that parse rejects with
    ValueError (a non-numeric count, say), raises ValueError("<path>: line
    N: <reason>"), N being the row's last physical line.
    """
    for row in reader:
        try:
            if None in row.values():
                raise ValueError(f"fewer fields than the {len(reader.fieldnames)} of the header")
            yield parse(row)
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_rows(path: Path, kind: str):
    """(physical line number, row dict) of every non-blank record after the header."""
    columns = CSV_SCHEMAS[kind]
    if not path.exists():
        raise IngestError(f"missing input file: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _check_header(path, reader.fieldnames, columns)
        for row in reader:
            yield reader.line_num, row


# --- columnar reader of the event logs -----------------------------------------

@dataclass(frozen=True)
class _EventLog:
    check: Callable            # per-row checks: row -> (sid, time, code, value)
    time: str                  # timestamp column
    code: str | None = None    # category column and its values
    codes: tuple[str, ...] = ()
    value: str | None = None   # number column
    decimal: bool = False      # the number may hold one decimal point


_EVENT_LOGS = {
    "net_sessions": _EventLog(_session_row, "end_time", "app_category", APP_CATEGORIES,
                              "duration_minutes"),
    "transactions": _EventLog(_transaction_row, "time", "venue", VENUES, "amount", decimal=True),
    "borrows": _EventLog(_borrow_row, "time"),
}

# Longest digit string the columnar reader decodes: below 2**53, so the
# integer and its quotient by a power of ten are exact or correctly rounded,
# as int() and float() give them.
_MAX_DIGITS = 15
_POW10 = np.array([float(10 ** k) for k in range(_MAX_DIGITS + 1)])


def _student_index(buf, lo, hi, students: tuple[str, ...]) -> np.ndarray:
    """Index into ``students`` of each id field; -1 where it is none of them.

    Known ids hold no surrounding whitespace, so an id that needs stripping
    is not found here and takes the row path.
    """
    width = hi - lo
    index = np.full(width.size, -1, dtype=np.int32)
    if not students or not width.size:
        return index
    keys = np.array([s.encode() for s in students])
    order = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[order]
    fits = (width > 0) & (width <= keys.itemsize)   # others are no known id
    if not fits.any():
        return index
    span = int(width[fits].max())
    text = np.zeros((width.size, span), dtype=np.uint8)
    for j in range(span):
        text[:, j] = np.where(j < width, buf[lo + j], 0)
    ids = text.view(f"S{span}").ravel()
    at = np.minimum(np.searchsorted(keys, ids), keys.size - 1)
    found = fits & (keys[at] == ids)
    index[found] = order[at[found]]
    return index


def _timestamps(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(ok, microseconds) of fixed-width ``YYYY-MM-DD[ T]HH:MM[:SS]`` fields."""
    width = hi - lo
    seconds = width == 19
    ok = (width == 16) | seconds

    def number(at: int, count: int, where=None) -> np.ndarray:
        nonlocal ok
        out = np.zeros(width.size, dtype=np.int64)
        for j in range(at, at + count):
            digit = buf[lo + j].astype(np.int64) - 48
            hit = (digit >= 0) & (digit <= 9)
            ok &= hit if where is None else hit | ~where
            out = out * 10 + digit
        return out

    def char(at: int, *allowed: str, where=None):
        nonlocal ok
        got = buf[lo + at]
        hit = np.zeros(width.size, dtype=bool)
        for c in allowed:
            hit |= got == ord(c)
        ok &= hit if where is None else hit | ~where

    year, month, day = number(0, 4), number(5, 2), number(8, 2)
    hour, minute = number(11, 2), number(14, 2)
    second = np.where(seconds, number(17, 2, where=seconds), 0)
    char(4, "-")
    char(7, "-")
    char(10, " ", "T")
    char(13, ":")
    char(16, ":", where=seconds)
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
           & (hour < 24) & (minute < 60) & (second < 60))
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first = months.astype("datetime64[D]").astype(np.int64)
    ok &= day <= (months + 1).astype("datetime64[D]").astype(np.int64) - first
    us = (((first + day - 1) * 24 + hour) * 60 + minute) * 60 + second
    return ok, us * 1_000_000


def _codes(buf, lo, hi, names: tuple[str, ...]) -> np.ndarray:
    """Index into ``names`` of each field that spells one exactly; -1 elsewhere."""
    width = hi - lo
    code = np.full(width.size, -1, dtype=np.int8)
    for c, name in enumerate(names):
        hit = width == len(name)
        for j, ch in enumerate(name.encode()):
            hit &= buf[lo + j] == ch
        code[hit] = c
    return code


def _numbers(buf, lo, hi, decimal: bool) -> tuple[np.ndarray, np.ndarray]:
    """(ok, value) of plain-digit fields, with one decimal point if ``decimal``."""
    width = hi - lo
    ok = (width > 0) & (width <= _MAX_DIGITS + decimal)
    mantissa = np.zeros(width.size, dtype=np.int64)
    digits = np.zeros(width.size, dtype=np.int64)
    points = np.zeros(width.size, dtype=np.int64)
    scale = np.zeros(width.size, dtype=np.int64)
    for j in range(int(width[ok].max()) if ok.any() else 0):
        inside = j < width
        b = buf[lo + j]
        is_digit = inside & (b >= 48) & (b <= 57)
        is_point = inside & (b == 46)
        ok &= ~inside | is_digit | (is_point & decimal)
        mantissa = np.where(is_digit, mantissa * 10 + (b.astype(np.int64) - 48), mantissa)
        digits += is_digit
        scale += is_digit & (points > 0)
        points += is_point
    ok &= (digits >= 1) & (digits <= _MAX_DIGITS) & (points <= 1)
    return ok, mantissa / _POW10[np.where(ok, scale, 0)]


def _columnar(data: bytes) -> bool:
    """Whether every record is one line of fields split by commas.

    That holds for plain ASCII with no quote, NUL or bare carriage return;
    other files are read by the csv module.
    """
    return (data.isascii() and b'"' not in data and b"\0" not in data
            and data.count(b"\r") == data.count(b"\r\n"))


def _columnar_header(data: bytes) -> list[str] | None:
    """The header ``csv.DictReader`` reads from a columnar file: None if it is empty."""
    if not data:
        return None
    end = data.find(b"\n")
    first = (data if end < 0 else data[:end]).rstrip(b"\r").decode()
    return first.split(",") if first else []


def _event_row(log: _EventLog, kind, path, line_no, row, index, handle):
    """(student, time, code, value) of a row that passes the checks, else None."""
    try:
        sid, ts, code, value = log.check(row)
    except (ValueError, TypeError) as exc:
        handle(kind, path, line_no, str(exc))
        return None
    student = index.get(sid)
    if student is None:
        handle(kind, path, line_no, f"unknown student {sid}")
        return None
    return student, ts, code, value


def _read_events(path: Path, kind: str, students: tuple[str, ...],
                 index: dict[str, int], handle) -> EventColumns:
    """Load one event log into columns; rows outside the columnar grammar take the row path."""
    log = _EVENT_LOGS[kind]
    columns = CSV_SCHEMAS[kind]
    if not path.exists():
        raise IngestError(f"missing input file: {path}")
    data = path.read_bytes()
    header = _columnar_header(data) if _columnar(data) else None
    if header is not None:
        _check_header(path, header, columns)
    if header is None or len(header) != len(columns):
        # the csv module reads this file; duplicate header names land here too
        got = [_event_row(log, kind, path, line_no, row, index, handle)
               for line_no, row in _read_rows(path, kind)]
        got = [g for g in got if g is not None]
        student, ts, code, value = zip(*got) if got else ((),) * 4
        return EventColumns(students, np.array(student, np.int32), np.array(ts, np.int64),
                            np.array(code, np.int8), np.array(value, np.float64))

    scan = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(scan == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [scan.size]))
    if starts[-1] == scan.size:
        starts, ends = starts[:-1], ends[:-1]
    ends -= (ends > starts) & (scan[ends - 1] == ord("\r"))
    lines = starts.size                     # line i is physical line i + 1; line 0 is the header

    commas = np.flatnonzero(scan == ord(","))
    per_line = np.diff(np.append(np.searchsorted(commas, starts), commas.size))
    split = (per_line == len(columns) - 1) & (ends > starts)
    split[0] = False
    rows = np.flatnonzero(split)
    cuts = commas[np.repeat(split, per_line)].reshape(rows.size, len(columns) - 1)
    # field reads may run past a field's end but not past this padding
    buf = np.frombuffer(data + bytes(int((ends - starts).max()) + 32), dtype=np.uint8)
    bounds = {}
    for j, name in enumerate(header):
        bounds[name] = (starts[rows] if j == 0 else cuts[:, j - 1] + 1,
                        ends[rows] if j == len(columns) - 1 else cuts[:, j])

    student = np.full(lines, -1, dtype=np.int32)
    ts = np.zeros(lines, dtype=np.int64)
    code = np.zeros(lines, dtype=np.int8)
    value = np.zeros(lines, dtype=np.float64)
    got_student = _student_index(buf, *bounds["student_id"], students)
    ok, got_ts = _timestamps(buf, *bounds[log.time])
    ok &= got_student >= 0
    if log.code is not None:
        got_code = _codes(buf, *bounds[log.code], log.codes)
        number_ok, got_value = _numbers(buf, *bounds[log.value], log.decimal)
        ok &= (got_code >= 0) & number_ok
        code[rows[ok]] = got_code[ok]
        value[rows[ok]] = got_value[ok]
    student[rows[ok]] = got_student[ok]
    ts[rows[ok]] = got_ts[ok]

    slow = np.flatnonzero((student < 0) & (ends > starts))
    for line in slow[slow > 0].tolist():
        fields = data[starts[line]:ends[line]].decode().split(",")
        row = dict(zip(header, fields))
        row.update((name, None) for name in header[len(fields):])
        got = _event_row(log, kind, path, line + 1, row, index, handle)
        if got is not None:
            student[line], ts[line], code[line], value[line] = got
    keep = student >= 0
    return EventColumns(students, student[keep], ts[keep], code[keep], value[keep])


def read_demographics(path: Path, handle) -> dict[str, DemographicRecord]:
    """The demographics file; each bad row goes to handle(kind, path, line, reason),
    which raises it or skips it. A student's first valid row wins."""
    demographics: dict[str, DemographicRecord] = {}
    for line_no, row in _read_rows(path, "demographics"):
        sid = (row["student_id"] or "").strip()
        gender = (row["gender"] or "").strip()
        cohort = (row["cohort"] or "").strip()
        if not sid:
            handle("demographics", path, line_no, "empty student_id")
        elif gender not in GENDERS:
            handle("demographics", path, line_no, f"bad gender {gender!r}")
        elif cohort not in COHORTS:
            handle("demographics", path, line_no, f"bad cohort {cohort!r}")
        elif sid in demographics:
            handle("demographics", path, line_no, f"duplicate student {sid}")
        else:
            demographics[sid] = DemographicRecord(sid, gender, cohort)
    return demographics


def parse_logs(paths: LogPaths, strict: bool = False,
               gpa_max: float = DEFAULT_GPA_MAX) -> EventStore:
    """Load the five event-log CSVs.

    Malformed rows raise IngestError (with file and physical line) in strict
    mode and are skipped and counted otherwise. A student id that never
    appears in the demographics file is treated the same way. Files are read
    in a fixed order, so in strict mode the first bad row wins.
    """
    report = ParseReport()
    mapping = paths.as_dict()

    def handle(kind: str, path: Path, line_no: int, reason: str):
        if strict:
            raise IngestError(f"{path}:{line_no}: {reason}")
        report.note_skip(kind, reason)

    demographics = read_demographics(mapping["demographics"], handle)
    report.loaded["demographics"] = len(demographics)

    students = tuple(sorted(demographics))
    index = {sid: i for i, sid in enumerate(students)}
    events = {}
    for kind in _EVENT_LOGS:
        events[kind] = _read_events(mapping[kind], kind, students, index, handle)
        report.loaded[kind] = len(events[kind])

    grades: dict[str, float] = {}
    path = mapping["grades"]
    for line_no, row in _read_rows(path, "grades"):
        try:
            sid = (row["student_id"] or "").strip()
            gpa = float(row["gpa"])
            if not 0 <= gpa <= gpa_max:
                raise ValueError(f"gpa {gpa} outside [0, {gpa_max}]")
        except (ValueError, TypeError) as exc:
            handle("grades", path, line_no, str(exc))
            continue
        if sid not in index:
            handle("grades", path, line_no, f"unknown student {sid}")
            continue
        if sid in grades:
            handle("grades", path, line_no, f"duplicate student {sid}")
            continue
        grades[sid] = gpa
    report.loaded["grades"] = len(grades)

    return EventStore(events["net_sessions"], events["transactions"], events["borrows"],
                      grades, demographics, report)


def extract_bedtimes(sessions: EventColumns, cfg: NightWindowConfig) -> Bedtimes:
    """Latest in-window signal per student per night, mapped to its bin.

    Night indices count from the earliest night touched by any session, so
    they are comparable across students. Nights without an in-window signal
    yield no observation.
    """
    t = sessions.time
    day = t // DAY_US
    night = day - (t - day * DAY_US < _time_us(cfg.night_boundary))
    offset = t - night * DAY_US - _time_us(cfg.window_start)
    bin_us = cfg.bin_minutes * 60_000_000
    inside = (offset >= 0) & (offset < bin_us * cfg.bin_count)
    if not inside.any():
        empty = np.zeros(0, dtype=np.int64)
        return Bedtimes(sessions.students, empty, empty, empty)
    first = night.min()
    span = int(night.max() - first) + 1
    pair = sessions.student[inside].astype(np.int64) * span + (night[inside] - first)
    # the last signal of a night is its latest bin: keep the largest key per pair
    keys = np.sort(pair * cfg.bin_count + offset[inside] // bin_us)
    pair = keys // cfg.bin_count
    keys = keys[np.append(pair[1:] != pair[:-1], True)]
    pair = keys // cfg.bin_count
    return Bedtimes(sessions.students, pair // span, pair % span, keys % cfg.bin_count)


def aggregate_sleep_counts(bedtimes: Bedtimes, cfg: NightWindowConfig,
                           min_nights: int = DEFAULT_MIN_NIGHTS) -> dict[str, SleepCountVector]:
    """Per-student counts of nights per bin; thin students are dropped."""
    if min_nights < 1:
        raise ValueError("min_nights must be >= 1")
    if len(bedtimes) and (bedtimes.bin.min() < 0 or bedtimes.bin.max() >= cfg.bin_count):
        raise ValueError("bin index outside the configured window")
    n = len(bedtimes.students)
    counts = np.bincount(bedtimes.student * cfg.bin_count + bedtimes.bin,
                         minlength=n * cfg.bin_count).reshape(n, cfg.bin_count)
    return {
        bedtimes.students[i]: SleepCountVector(bedtimes.students[i], counts[i])
        for i in np.flatnonzero(counts.sum(axis=1) >= min_nights).tolist()
    }


def infer_study_days(store: EventStore) -> int:
    """Span in days covered by any timestamp in the store."""
    stamps = [c.time for c in (store.sessions, store.transactions, store.borrows) if len(c)]
    if not stamps:
        raise ValueError("no timestamped records to infer the study span from")
    first = min(int(s.min()) for s in stamps)
    last = max(int(s.max()) for s in stamps)
    return last // DAY_US - first // DAY_US + 1


def compute_raw_features(store: EventStore, study_days: int,
                         breakfast_window: tuple[time, time] = DEFAULT_BREAKFAST_WINDOW,
                         ) -> dict[str, RawFeatureRecord]:
    """Raw (pre-discretization) behavioral quantities per student.

    Students present in demographics but missing a grade record are omitted.
    Students with fewer than two bath transactions get a None
    bath_interval_variance; excluding them is the caller's call. Sums run
    in file order, as np.bincount adds its weights.
    """
    if study_days < 1:
        raise ValueError("study_days must be >= 1")
    students = store.students
    n = len(students)

    s = store.sessions
    surf = np.bincount(s.student, weights=s.value, minlength=n)
    game, video = (np.bincount(s.student[hit], weights=s.value[hit], minlength=n)
                   for hit in (s.code == APP_CATEGORIES.index("game"),
                               s.code == APP_CATEGORIES.index("video")))

    tx = store.transactions
    spend = np.bincount(tx.student, weights=tx.value, minlength=n)
    day = tx.time // DAY_US
    tod = tx.time - day * DAY_US
    morning = ((tx.code == VENUES.index("canteen")) & (tod >= _time_us(breakfast_window[0]))
               & (tod < _time_us(breakfast_window[1])))
    breakfast = np.zeros(n, dtype=np.int64)
    if morning.any():
        first = day[morning].min()
        span = int(day[morning].max() - first) + 1
        student_days = np.sort(tx.student[morning].astype(np.int64) * span + day[morning] - first)
        student_days = student_days[np.append(True, student_days[1:] != student_days[:-1])]
        breakfast = np.bincount(student_days // span, minlength=n)
    bath = tx.code == VENUES.index("bath")
    order = np.lexsort((tx.time[bath], tx.student[bath]))
    bath_days = day[bath][order]
    bath_from = np.searchsorted(tx.student[bath][order], np.arange(n + 1))

    borrowed = np.bincount(store.borrows.student, minlength=n)

    features: dict[str, RawFeatureRecord] = {}
    for i, sid in enumerate(students):
        gpa = store.grades.get(sid)
        if gpa is None:
            continue
        baths = bath_days[bath_from[i]:bath_from[i + 1]]
        variance = float(np.var(np.diff(baths))) if baths.size >= 2 else None
        features[sid] = RawFeatureRecord(
            student_id=sid,
            books_borrowed=int(borrowed[i]),
            mean_daily_surf_minutes=float(surf[i]) / study_days,
            game_minutes=float(game[i]),
            video_minutes=float(video[i]),
            breakfast_count=int(breakfast[i]),
            bath_interval_variance=variance,
            mean_daily_spend=float(spend[i]) / study_days,
            gpa=gpa,
            gender=store.demographics[sid].gender,
        )
    return features


@dataclass
class IngestResult:
    counts: dict[str, SleepCountVector]
    features: dict[str, RawFeatureRecord]
    demographics: dict[str, DemographicRecord]
    report: ParseReport

    def summary(self) -> dict:
        return {
            "loaded": self.report.loaded,
            "skipped": self.report.skipped,
            "students_with_counts": len(self.counts),
            "students_with_features": len(self.features),
        }


INGEST_OUTPUTS = ("sleep_counts.csv", "features.csv")


def ingest_logs(data_dir, out_dir, strict: bool = False, gpa_max: float = DEFAULT_GPA_MAX,
                min_nights: int = DEFAULT_MIN_NIGHTS) -> IngestResult:
    """The ingest stage: parse the five logs, write INGEST_OUTPUTS into out_dir."""
    store = parse_logs(LogPaths.from_dir(data_dir), strict=strict, gpa_max=gpa_max)
    night_cfg = NightWindowConfig()
    counts = aggregate_sleep_counts(extract_bedtimes(store.sessions, night_cfg),
                                    night_cfg, min_nights)
    features = compute_raw_features(store, infer_study_days(store))
    out_dir = Path(out_dir)
    write_sleep_counts_csv(out_dir / INGEST_OUTPUTS[0], counts, night_cfg.bin_count)
    write_features_csv(out_dir / INGEST_OUTPUTS[1], features)
    return IngestResult(counts, features, store.demographics, store.report)


def write_sleep_counts_csv(path, counts: Mapping[str, SleepCountVector], bin_count: int = 16):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id"] + [f"c{i}" for i in range(bin_count)])
        for sid in sorted(counts):
            writer.writerow([sid] + [int(x) for x in counts[sid].counts])


def read_sleep_counts_csv(path) -> dict[str, SleepCountVector]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        bins = len(reader.fieldnames or ()) - 1
        check_columns(path, reader.fieldnames,
                      ["student_id"] + [f"c{i}" for i in range(max(bins, 1))])
        columns = [f"c{i}" for i in range(bins)]
        return {v.student_id: v for v in stage_records(path, reader, lambda row: SleepCountVector(
            row["student_id"], np.array([int(row[c]) for c in columns])))}


FEATURE_COLUMNS = [
    "student_id", "books_borrowed", "mean_daily_surf_minutes", "game_minutes",
    "video_minutes", "breakfast_count", "bath_interval_variance",
    "mean_daily_spend", "gpa", "gender",
]


def write_features_csv(path, features: Mapping[str, RawFeatureRecord]):
    """One row per student; floats in shortest round-trip form, so a reader
    gets back the very values written, and a missing variance empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_COLUMNS)
        for sid in sorted(features):
            rec = features[sid]
            writer.writerow([
                rec.student_id, rec.books_borrowed, repr(rec.mean_daily_surf_minutes),
                repr(rec.game_minutes), repr(rec.video_minutes), rec.breakfast_count,
                "" if rec.bath_interval_variance is None else repr(rec.bath_interval_variance),
                repr(rec.mean_daily_spend), repr(rec.gpa), rec.gender,
            ])


def _feature_record(row) -> RawFeatureRecord:
    variance = row["bath_interval_variance"]
    return RawFeatureRecord(
        student_id=row["student_id"],
        books_borrowed=int(row["books_borrowed"]),
        mean_daily_surf_minutes=float(row["mean_daily_surf_minutes"]),
        game_minutes=float(row["game_minutes"]),
        video_minutes=float(row["video_minutes"]),
        breakfast_count=int(row["breakfast_count"]),
        bath_interval_variance=float(variance) if variance else None,
        mean_daily_spend=float(row["mean_daily_spend"]),
        gpa=float(row["gpa"]),
        gender=row["gender"],
    )


def read_features_csv(path) -> dict[str, RawFeatureRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        check_columns(path, reader.fieldnames, FEATURE_COLUMNS)
        return {r.student_id: r for r in stage_records(path, reader, _feature_record)}
