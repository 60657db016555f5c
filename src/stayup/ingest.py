"""Event-log ingestion: CSV parsing, bedtime extraction, count aggregation,
and raw behavioral features.

A "night" runs from noon (NIGHT_BOUNDARY) to the next day's noon, so
signals after midnight attach to the preceding evening. The bedtime of a
night is the end time of the last network session falling inside the
observation window, 16 half-hour bins from 21:00 (WINDOW_START, BIN_MINUTES,
BIN_COUNT); bins are half-open, so a signal exactly on a boundary lands in
the later bin. A breakfast is a canteen transaction in BREAKFAST_WINDOW.

The three event logs are read into numpy columns (``EventColumns``): a
student index, an int64 timestamp in microseconds since 1970-01-01 (naive
local time), a category or venue code and a duration or amount. Rows in a
narrow grammar are decoded with array ops: fixed-width
``YYYY-MM-DD[ T]HH:MM[:SS]`` timestamps, plain-digit durations, plain decimal
amounts and known ids without surrounding whitespace. Every other row goes
through the per-row checks, which accept what ``datetime.fromisoformat``,
``int`` and ``float`` accept and give each rejected row its reason.

Each event log is cut into blocks of whole lines, and the blocks are
decoded as jobs split over this process and one forked child
(``split.run_split``); logs that fit in one block in all are decoded in this
process. A log with any quote, NUL, bare carriage return or non-ASCII byte
is read whole by the csv module instead. A leading UTF-8
byte order mark is skipped in every file.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .split import _attempt, run_split

APP_CATEGORIES = ("game", "video", "other")
VENUES = ("canteen", "bath", "other")
GENDERS = ("male", "female")
COHORTS = ("freshman", "sophomore", "junior")

DEFAULT_MIN_NIGHTS = 20
DEFAULT_GPA_MAX = 5.0

NIGHT_BOUNDARY = time(12, 0)   # a night runs from this time to the next day's
WINDOW_START = time(21, 0)     # the bedtime window: BIN_COUNT bins of BIN_MINUTES from here
BIN_MINUTES = 30
BIN_COUNT = 16
BREAKFAST_WINDOW = (time(5, 0), time(9, 30))   # [start, end) of a canteen breakfast

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
    gpa: np.ndarray      # float64 grade of each of students; NaN: no grade
    gender: np.ndarray   # int8 index into GENDERS of each of students
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
    if header is None:
        raise IngestError(f"{path}: the file is empty; expected the header {','.join(columns)}")
    if set(header) != set(columns):
        raise IngestError(
            f"{path}: header {header!r} does not match expected columns {columns}"
        )


def stage_records(path, reader: csv.DictReader, columns, parse) -> tuple[tuple[str, ...], list]:
    """(ids, values): the student_id and parse(row) of each data row of a
    stage file, in file order.

    A header without one of columns raises ValueError("<path>: missing column
    'name'"). A row with fewer or more fields than the header, a student_id
    already seen, or a row that parse rejects with ValueError (a non-numeric
    count, say) raises ValueError("<path>: line N: <reason>"), N being the
    row's last physical line.
    """
    for name in columns:
        if name not in (reader.fieldnames or ()):
            raise ValueError(f"{path}: missing column {name!r}")
    found = {}
    for row in reader:
        try:
            if None in row.values():
                raise ValueError(f"fewer fields than the {len(reader.fieldnames)} of the header")
            if None in row:   # DictReader's key for the fields past the header's
                raise ValueError(f"more fields than the {len(reader.fieldnames)} of the header")
            if row["student_id"] in found:
                raise ValueError(f"duplicate student {row['student_id']}")
            found[row["student_id"]] = parse(row)
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return tuple(found), list(found.values())


def _read_rows(path: Path, kind: str):
    """(physical line number, row dict) of every non-blank record after the header."""
    columns = CSV_SCHEMAS[kind]
    if not path.exists():
        raise IngestError(f"missing input file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def _student_index(buf, lo, hi, keys: np.ndarray) -> np.ndarray:
    """Index into keys of each id field; -1 where it is none of them.

    keys holds the sorted students' ids in UTF-8, which sorts them too. Known
    ids hold no surrounding whitespace, so an id that needs stripping is not
    found here and takes the row path.
    """
    width = hi - lo
    index = np.full(width.size, -1, dtype=np.int32)
    if not keys.size or not width.size:
        return index
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
    index[found] = at[found]
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
    """Whether data is plain ASCII with no quote or NUL: read as lines of
    fields split by commas unless it holds a bare carriage return, which
    _decode_block looks for. Other logs are read by the csv module."""
    return data.isascii() and b'"' not in data and b"\0" not in data


def _columnar_header(data: bytes) -> list[str] | None:
    """The header ``csv.DictReader`` reads from a columnar file: None if it is empty."""
    if not data:
        return None
    end = data.find(b"\n")
    first = (data if end < 0 else data[:end]).rstrip(b"\r").decode()
    return first.split(",") if first else []


def _event_row(log: _EventLog, row, index: dict[str, int]):
    """(student, time, code, value) of a row that passes the checks, else the
    reason it is skipped."""
    try:
        sid, ts, code, value = log.check(row)
    except (ValueError, TypeError) as exc:
        return str(exc)
    student = index.get(sid)
    if student is None:
        return f"unknown student {sid}"
    return student, ts, code, value


def _read_events_by_rows(path: Path, kind: str, students: tuple[str, ...],
                         index: dict[str, int], handle) -> EventColumns:
    """Load one event log through the csv module, each row by the per-row checks."""
    got = []
    for line_no, row in _read_rows(path, kind):
        event = _event_row(_EVENT_LOGS[kind], row, index)
        if isinstance(event, str):
            handle(kind, path, line_no, event)
        else:
            got.append(event)
    student, ts, code, value = zip(*got) if got else ((),) * 4
    return EventColumns(students, np.array(student, np.int32), np.array(ts, np.int64),
                        np.array(code, np.int8), np.array(value, np.float64))


# Bytes of one decode job: an event log is cut at the first line break at or
# after every BLOCK_BYTES bytes (CHANGES.md gives the sweep it was chosen by)
BLOCK_BYTES = 1 << 20
_BOM = b"\xef\xbb\xbf"   # skipped at the head of a file, as encoding="utf-8-sig" skips it


@dataclass(frozen=True)
class _Cut:
    """One event log's bytes, cut into blocks of whole lines for _decode_block."""
    data: bytes
    start: int                   # where the text starts, past a leading BOM
    header: list[str] | None     # the first line's fields if they name each column once
    blocks: list[tuple[int, int]]   # (lo, hi) of each block; none without a header


def _cut(path: Path, kind: str) -> _Cut:
    """Read one event log and cut it into blocks if its first line can head
    the columnar path. Raises IngestError when the file does not exist."""
    if not path.exists():
        raise IngestError(f"missing input file: {path}")
    data = path.read_bytes()
    start = len(_BOM) if data.startswith(_BOM) else 0
    line = data[start:data.find(b"\n", start) + 1 or len(data)]
    header = _columnar_header(line) if _columnar(line) else None
    if header is None or sorted(header) != sorted(CSV_SCHEMAS[kind]):
        return _Cut(data, start, None, [])
    blocks, lo = [], start
    while lo < len(data):
        hi = data.find(b"\n", lo + BLOCK_BYTES - 1) + 1 or len(data)
        blocks.append((lo, hi))
        lo = hi
    return _Cut(data, start, header, blocks)


def _decode_block(log: _EventLog, cut: _Cut, lo: int, hi: int, keys: np.ndarray,
                  index: dict[str, int]):
    """Decode cut.data[lo:hi], whole lines of one event log; its line 0 is
    the header when lo is cut.start. keys and index map ids to students.

    Returns None when the block fails the columnar check, else (lines,
    columns, skips): its line count, the (student, time, code, value)
    columns of its loaded rows and the (line, reason) of each skipped row,
    lines counted from 0 at lo, in line order.
    """
    block, header = cut.data[lo:hi], cut.header
    if not _columnar(block):
        return None
    scan = np.frombuffer(block, dtype=np.uint8)
    breaks = np.flatnonzero(scan == ord("\n"))
    crlf = scan[np.maximum(breaks, 1) - 1] == ord("\r")   # a break at 0 has no byte before it
    if np.count_nonzero(crlf) != block.count(b"\r"):   # a bare carriage return
        return None
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks - crlf, [scan.size]))
    if starts[-1] == scan.size:
        starts, ends = starts[:-1], ends[:-1]
    lines = starts.size
    first = lo == cut.start

    commas = np.flatnonzero(scan == ord(","))
    per_line = np.diff(np.append(np.searchsorted(commas, starts), commas.size))
    split = (per_line == len(header) - 1) & (ends > starts)
    split[0] &= not first
    rows = np.flatnonzero(split)
    cuts = commas[np.repeat(split, per_line)].reshape(rows.size, len(header) - 1)
    # field reads may run past a field's end but not past this padding
    buf = np.frombuffer(block + bytes(int((ends - starts).max()) + 32), dtype=np.uint8)
    bounds = {}
    for j, name in enumerate(header):
        bounds[name] = (starts[rows] if j == 0 else cuts[:, j - 1] + 1,
                        ends[rows] if j == len(header) - 1 else cuts[:, j])

    student = np.full(lines, -1, dtype=np.int32)
    ts = np.zeros(lines, dtype=np.int64)
    code = np.zeros(lines, dtype=np.int8)
    value = np.zeros(lines, dtype=np.float64)
    got_student = _student_index(buf, *bounds["student_id"], keys)
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

    skips = []
    slow = np.flatnonzero((student < 0) & (ends > starts))
    if first:
        slow = slow[slow > 0]
    for line in slow.tolist():
        fields = block[starts[line]:ends[line]].decode().split(",")
        row = dict(zip(header, fields))
        row.update((name, None) for name in header[len(fields):])
        event = _event_row(log, row, index)
        if isinstance(event, str):
            skips.append((line, event))
        else:
            student[line], ts[line], code[line], value[line] = event
    keep = student >= 0
    return lines, (student[keep], ts[keep], code[keep], value[keep]), skips


def _assemble(path: Path, kind: str, cut: _Cut, decoded: list, students: tuple[str, ...],
              index: dict[str, int], handle) -> EventColumns:
    """One event log's columns from its decoded blocks, in file order; its
    skipped rows go to handle with their physical line numbers. A log that a
    block or its header keeps off the columnar path is read by the csv module."""
    if cut.header is None or None in decoded:
        # the csv module reads this file; duplicate header names land here too
        return _read_events_by_rows(path, kind, students, index, handle)
    lines, parts = 0, []
    for count, columns, skips in decoded:
        for line, reason in skips:
            handle(kind, path, lines + line + 1, reason)
        lines += count
        parts.append(columns)
    return EventColumns(students, *(np.concatenate(c) for c in zip(*parts)))


def _read_event_logs(paths: dict[str, Path], students: tuple[str, ...],
                     index: dict[str, int], handle) -> dict[str, EventColumns]:
    """Load each event log into columns, its blocks decoded as jobs split
    over two processes by run_split, or in this process when they hold at
    most BLOCK_BYTES in all. Bad rows, and a missing or mis-headed log, reach
    handle or raise in file order, one log after another."""
    cuts = {}
    for kind in _EVENT_LOGS:
        try:
            cuts[kind] = _cut(paths[kind], kind)
        except (OSError, IngestError) as exc:   # raised in this log's turn
            cuts[kind] = exc
    keys = np.array([s.encode() for s in students], dtype=bytes)   # sorted, as students are
    jobs, costs = [], []
    for kind, cut in cuts.items():
        for lo, hi in cut.blocks if isinstance(cut, _Cut) else ():
            jobs.append(functools.partial(_decode_block, _EVENT_LOGS[kind], cut, lo, hi,
                                          keys, index))
            costs.append(hi - lo)
    # each log's blocks in file order, log after log; a fork costs more than it
    # saves on logs that fit in one block
    outcomes = (run_split(jobs, costs) if sum(costs) > BLOCK_BYTES
                else [_attempt(job) for job in jobs])
    events, done = {}, 0
    for kind, cut in cuts.items():
        if isinstance(cut, Exception):
            raise cut
        decoded, done = outcomes[done:done + len(cut.blocks)], done + len(cut.blocks)
        for error, _ in decoded:
            if error is not None:
                raise error
        events[kind] = _assemble(paths[kind], kind, cut, [value for _, value in decoded],
                                 students, index, handle)
    return events


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
    events = _read_event_logs(mapping, students, index, handle)
    for kind in _EVENT_LOGS:
        report.loaded[kind] = len(events[kind])

    gpa = np.full(len(students), np.nan)   # NaN until a valid grade is read
    path = mapping["grades"]
    for line_no, row in _read_rows(path, "grades"):
        try:
            sid = (row["student_id"] or "").strip()
            grade = float(row["gpa"])
            if not 0 <= grade <= gpa_max:
                raise ValueError(f"gpa {grade} outside [0, {gpa_max}]")
        except (ValueError, TypeError) as exc:
            handle("grades", path, line_no, str(exc))
            continue
        if sid not in index:
            handle("grades", path, line_no, f"unknown student {sid}")
            continue
        if not np.isnan(gpa[index[sid]]):
            handle("grades", path, line_no, f"duplicate student {sid}")
            continue
        gpa[index[sid]] = grade
    report.loaded["grades"] = int((~np.isnan(gpa)).sum())

    gender = np.array([GENDERS.index(demographics[sid].gender) for sid in students], np.int8)
    return EventStore(events["net_sessions"], events["transactions"], events["borrows"],
                      gpa, gender, demographics, report)


def extract_bedtimes(sessions: EventColumns) -> Bedtimes:
    """Latest in-window signal per student per night, mapped to its bin.

    Night indices count from the earliest night touched by any session, so
    they are comparable across students. Nights without an in-window signal
    yield no observation.
    """
    t = sessions.time
    day = t // DAY_US
    night = day - (t - day * DAY_US < _time_us(NIGHT_BOUNDARY))
    offset = t - night * DAY_US - _time_us(WINDOW_START)
    bin_us = BIN_MINUTES * 60_000_000
    inside = (offset >= 0) & (offset < bin_us * BIN_COUNT)
    if not inside.any():
        empty = np.zeros(0, dtype=np.int64)
        return Bedtimes(sessions.students, empty, empty, empty)
    first = night.min()
    span = int(night.max() - first) + 1
    pair = sessions.student[inside].astype(np.int64) * span + (night[inside] - first)
    # the last signal of a night is its latest bin: keep the largest key per pair
    keys = np.sort(pair * BIN_COUNT + offset[inside] // bin_us)
    pair = keys // BIN_COUNT
    keys = keys[np.append(pair[1:] != pair[:-1], True)]
    pair = keys // BIN_COUNT
    return Bedtimes(sessions.students, pair // span, pair % span, keys % BIN_COUNT)


def aggregate_sleep_counts(bedtimes: Bedtimes, min_nights: int = DEFAULT_MIN_NIGHTS,
                           ) -> tuple[tuple[str, ...], np.ndarray]:
    """(ids, counts): the (N, BIN_COUNT) int64 counts of nights per bin of each
    student with at least min_nights, row i being ids[i], in id order."""
    if min_nights < 1:
        raise ValueError("min_nights must be >= 1")
    if len(bedtimes) and (bedtimes.bin.min() < 0 or bedtimes.bin.max() >= BIN_COUNT):
        raise ValueError("bin index outside the window")
    n = len(bedtimes.students)
    counts = np.bincount(bedtimes.student * BIN_COUNT + bedtimes.bin,
                         minlength=n * BIN_COUNT).reshape(n, BIN_COUNT)
    keep = np.flatnonzero(counts.sum(axis=1) >= min_nights)
    return tuple(bedtimes.students[i] for i in keep.tolist()), counts[keep]


def infer_study_days(store: EventStore) -> int:
    """Span in days covered by any timestamp in the store."""
    stamps = [c.time for c in (store.sessions, store.transactions, store.borrows) if len(c)]
    if not stamps:
        raise ValueError("no timestamped records to infer the study span from")
    first = min(int(s.min()) for s in stamps)
    last = max(int(s.max()) for s in stamps)
    return last // DAY_US - first // DAY_US + 1


def compute_raw_features(store: EventStore, study_days: int) -> tuple[tuple[str, ...], np.ndarray]:
    """(ids, values): raw (pre-discretization) behavioral quantities of each
    student with a grade, in id order, row i being ids[i].

    values is (N, 9) float64 with columns FEATURE_COLUMNS[1:]; gender is its
    index in GENDERS. A student with fewer than two bath transactions gets a
    NaN bath_interval_variance; excluding them is the caller's call. Sums run
    in file order, as np.bincount adds its weights. Raises ValueError naming
    the first student and feature whose sum of finite values passes the
    float range, since features.csv holds finite numbers only.
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
    morning = ((tx.code == VENUES.index("canteen")) & (tod >= _time_us(BREAKFAST_WINDOW[0]))
               & (tod < _time_us(BREAKFAST_WINDOW[1])))
    days = day[morning] - day[morning].min(initial=0)   # >= 0: one key per student-day
    span = int(days.max(initial=0)) + 1
    keys = np.sort(tx.student[morning] * np.int64(span) + days)
    breakfast = np.bincount(keys[np.diff(keys, prepend=-1) > 0] // span, minlength=n)
    bath = tx.code == VENUES.index("bath")
    order = np.lexsort((tx.time[bath], tx.student[bath]))
    bather, bath_days = tx.student[bath][order], day[bath][order]
    same = bather[1:] == bather[:-1]   # the gap between two baths of one student
    gap_of, gaps = bather[1:][same], np.diff(bath_days)[same]
    # k gaps with sum S and sum of squares Q have variance (kQ - S^2) / k^2. While kQ
    # and k^2 stay below 2**53 the sums, the int64 terms and their conversions are exact
    # and the one division rounds correctly, so the value ignores the order of the gaps.
    k = np.bincount(gap_of, minlength=n)
    total = np.bincount(gap_of, weights=gaps, minlength=n).astype(np.int64)
    squares = np.bincount(gap_of, weights=gaps * gaps, minlength=n).astype(np.int64)
    with np.errstate(invalid="ignore"):   # 0 / 0 is the NaN of fewer than two baths
        variance = (k * squares - total * total) / (k * k)   # each side converted to float64

    borrowed = np.bincount(store.borrows.student, minlength=n)
    keep = np.flatnonzero(~np.isnan(store.gpa))
    values = np.column_stack((borrowed, surf / study_days, game, video, breakfast, variance,
                              spend / study_days, store.gpa, store.gender))[keep]
    ids = tuple(students[i] for i in keep.tolist())
    lost = ~np.isfinite(values)
    lost[:, 5] &= k[keep] > 0   # column 5, the bath variance, is NaN by design without a gap
    if lost.any():
        row, col = np.argwhere(lost)[0]
        raise ValueError(f"student {ids[row]}: {FEATURE_COLUMNS[col + 1]} is {values[row, col]}, "
                         "a sum past the float range")
    return ids, values


@dataclass
class IngestResult:
    count_ids: tuple[str, ...]     # the student of each row of counts
    counts: np.ndarray
    feature_ids: tuple[str, ...]   # the student of each row of features
    features: np.ndarray           # columns FEATURE_COLUMNS[1:], as compute_raw_features
    demographics: dict[str, DemographicRecord]
    report: ParseReport

    def summary(self) -> dict:
        return {
            "loaded": self.report.loaded,
            "skipped": self.report.skipped,
            "students_with_counts": len(self.count_ids),
            "students_with_features": len(self.feature_ids),
        }


INGEST_OUTPUTS = ("sleep_counts.csv", "features.csv")


def ingest_logs(data_dir, out_dir, strict: bool = False, gpa_max: float = DEFAULT_GPA_MAX,
                min_nights: int = DEFAULT_MIN_NIGHTS) -> IngestResult:
    """The ingest stage: parse the five logs, write INGEST_OUTPUTS into out_dir."""
    store = parse_logs(LogPaths.from_dir(data_dir), strict=strict, gpa_max=gpa_max)
    ids, counts = aggregate_sleep_counts(extract_bedtimes(store.sessions), min_nights)
    feature_ids, features = compute_raw_features(store, infer_study_days(store))
    out_dir = Path(out_dir)
    write_sleep_counts_csv(out_dir / INGEST_OUTPUTS[0], ids, counts)
    write_features_csv(out_dir / INGEST_OUTPUTS[1], feature_ids, features)
    return IngestResult(ids, counts, feature_ids, features, store.demographics, store.report)


def write_sleep_counts_csv(path, ids: Sequence[str], counts: np.ndarray):
    """One row per student in id order, one column per bin of counts."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id"] + [f"c{i}" for i in range(counts.shape[1])])
        for i in sorted(range(len(ids)), key=ids.__getitem__):
            writer.writerow([ids[i], *counts[i].tolist()])


def _count_row(row) -> list[int]:
    counts = [int(row[f"c{i}"]) for i in range(len(row) - 1)]   # the header was checked
    if min(counts) < 0:
        raise ValueError("counts must be a non-negative vector")
    return counts


def read_sleep_counts_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """(ids, counts) of a sleep-counts file, rows in file order."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        bins = len(reader.fieldnames or ()) - 1
        columns = ["student_id"] + [f"c{i}" for i in range(max(bins, 1))]
        ids, rows = stage_records(path, reader, columns, _count_row)
    return ids, np.array(rows, dtype=np.int64).reshape(len(ids), bins)


FEATURE_COLUMNS = [
    "student_id", "books_borrowed", "mean_daily_surf_minutes", "game_minutes",
    "video_minutes", "breakfast_count", "bath_interval_variance",
    "mean_daily_spend", "gpa", "gender",
]


def write_features_csv(path, ids: Sequence[str], values: np.ndarray):
    """One row per student in id order, row i of values being ids[i]: floats in shortest
    round-trip form, counts as integers, a missing variance empty, gender as its word."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_COLUMNS)
        for i in sorted(range(len(ids)), key=ids.__getitem__):
            borrowed, surf, game, video, breakfast, variance, spend, gpa, gender = (
                values[i].tolist())
            writer.writerow([
                ids[i], int(borrowed), repr(surf), repr(game), repr(video), int(breakfast),
                "" if math.isnan(variance) else repr(variance), repr(spend), repr(gpa),
                GENDERS[int(gender)],
            ])


def _finite(row, column: str) -> float:
    value = float(row[column])
    if not math.isfinite(value):
        raise ValueError(f"non-finite {column} {row[column]!r}")
    return value


def _feature_row(row) -> list[float]:
    """A features row's values; an empty bath variance, the only missing
    value, reads as NaN."""
    gender = row["gender"]
    if gender not in GENDERS:
        raise ValueError(f"bad gender {gender!r}")
    variance = _finite(row, "bath_interval_variance") if row["bath_interval_variance"] else math.nan
    return [
        int(row["books_borrowed"]), _finite(row, "mean_daily_surf_minutes"),
        _finite(row, "game_minutes"), _finite(row, "video_minutes"), int(row["breakfast_count"]),
        variance, _finite(row, "mean_daily_spend"), _finite(row, "gpa"), GENDERS.index(gender),
    ]


def read_features_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """(ids, values) of a features file, rows in file order, values as
    compute_raw_features gives them."""
    with open(path, newline="") as fh:
        ids, rows = stage_records(path, csv.DictReader(fh), FEATURE_COLUMNS, _feature_row)
    return ids, np.array(rows, dtype=np.float64).reshape(len(ids), len(FEATURE_COLUMNS) - 1)
