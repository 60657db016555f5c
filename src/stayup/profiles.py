"""Discretize raw features and sleep labels into nine binary variables.

Continuous features split at the median: values strictly above the median
map to 1, values at or below map to 0 (the fixed "at-median-low" rule).
Bath orderliness inverts the direction so that 1 means regular (low
variance). App preference compares video minutes against game minutes,
with ties going to the game side.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bayesnet import DatasetTable, profile_variables
from .ingest import RawFeatureRecord, check_columns, stage_records
from .sleepmix import STAY_UP

# variable: (RawFeatureRecord attribute, high_is_one); False inverts the split direction
MEDIAN_SPLITS = {
    "R": ("books_borrowed", True),
    "T": ("mean_daily_surf_minutes", True),
    "Br": ("breakfast_count", True),
    "Ba": ("bath_interval_variance", False),
    "F": ("mean_daily_spend", True),
    "Ac": ("gpa", True),
}

SPLIT_VARIABLES = tuple(MEDIAN_SPLITS)


def _median(values) -> float:
    """np.median of a list of floats, bit for bit, without np.median's first-call
    import of numpy.ma: NaN if any value is NaN (or there is none), else the
    middle value or the mean (a + b) / 2 of the two middle values.

    np.median takes that mean with np.mean, whose sum starts from +0.0, so
    adding 0.0 gives a median of -0.0 the same sign.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    if n == 0 or np.isnan(ordered[-1]):   # np.sort puts NaN last
        return float("nan")
    mid = n // 2
    if n % 2:
        return float(0.0 + ordered[mid])
    return float((0.0 + ordered[mid - 1] + ordered[mid]) / 2)


def _split(values: np.ndarray, high_is_one: bool) -> tuple[np.ndarray, float]:
    """(bit of each value, the median): 1 above the median, or at or below it
    when not high_is_one."""
    med = _median(values)
    return (values > med) if high_is_one else (values <= med), med


def median_split(values: Mapping[str, float]) -> dict[str, int]:
    """Label 1 iff the value strictly exceeds the median (ties go low)."""
    if len(values) < 2:
        raise ValueError("median_split needs at least two students")
    bits, _ = _split(np.asarray(list(values.values()), dtype=np.float64), True)
    return dict(zip(values, bits.astype(int).tolist()))


@dataclass
class ProfileResult:
    ids: tuple[str, ...]   # the student of each row of table, in id order
    table: DatasetTable
    medians: dict[str, float]
    excluded: dict[str, str]


def _sleep_bit(label) -> int:
    return int(label == STAY_UP) if isinstance(label, str) else int(label)


def build_profiles(features: Mapping[str, RawFeatureRecord],
                   sleep_labels: Mapping[str, object]) -> ProfileResult:
    """Assemble the nine binary variables for every fully observed student.

    Students missing a feature record, a sleep label, or a defined bath
    interval variance are excluded and reported. Medians are computed over
    the included students only.
    """
    excluded: dict[str, str] = {}
    included: list[str] = []
    for sid in sorted(set(features) | set(sleep_labels)):
        if sid not in features:
            excluded[sid] = "missing feature record"
        elif sid not in sleep_labels:
            excluded[sid] = "missing sleep label"
        elif features[sid].bath_interval_variance is None:
            excluded[sid] = "bath interval variance undefined"
        else:
            included.append(sid)
    if len(included) < 2:
        raise ValueError("need at least two fully observed students to profile, "
                         f"got {len(included)}")

    records = [features[sid] for sid in included]
    columns = {
        "G": [rec.gender == "female" for rec in records],
        "A": [rec.video_minutes > rec.game_minutes for rec in records],
        "S": [_sleep_bit(sleep_labels[sid]) for sid in included],
    }
    medians: dict[str, float] = {}
    for name, (source, high_is_one) in MEDIAN_SPLITS.items():
        values = np.array([float(getattr(rec, source)) for rec in records])
        columns[name], medians[name] = _split(values, high_is_one)
    variables = profile_variables()
    table = DatasetTable(variables, np.column_stack([columns[name] for name in variables.names]))
    return ProfileResult(tuple(included), table, medians, excluded)


PROFILE_HEADER = ["student_id", "G", "R", "A", "T", "Br", "Ba", "F", "Ac", "S"]


def write_profiles_csv(path, ids: Sequence[str], table: DatasetTable):
    """One row per student in id order, one column per profile variable."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_HEADER)
        for i in sorted(range(len(ids)), key=ids.__getitem__):
            writer.writerow([ids[i], *table.values[i].tolist()])


def _profile_row(row) -> tuple[str, list[int]]:
    bits = [int(row[name]) for name in PROFILE_HEADER[1:]]
    for name, bit in zip(PROFILE_HEADER[1:], bits):
        if bit not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {bit}")
    return row["student_id"], bits


def read_profiles_csv(path) -> tuple[tuple[str, ...], DatasetTable]:
    """(ids, table) of a profiles file, rows in file order."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        check_columns(path, reader.fieldnames, PROFILE_HEADER)
        rows = list(stage_records(path, reader, _profile_row))
    variables = profile_variables()
    values = np.array([bits for _, bits in rows], dtype=np.uint8).reshape(len(rows), variables.n)
    return tuple(sid for sid, _ in rows), DatasetTable(variables, values)


def metadata_json(group_medians: Mapping[str, Mapping[str, float]]) -> dict:
    """Direction conventions plus the medians actually used, per group."""
    return {
        "tie_rule": "at-median-low",
        "directions": {
            name: {"source": source, "high_is_one": high_is_one}
            for name, (source, high_is_one) in sorted(MEDIAN_SPLITS.items())
        },
        "fixed_rules": {
            "G": "female = 1",
            "A": "video minutes > game minutes = 1 (ties to 0)",
            "S": "stay_up label = 1",
        },
        "group_medians": {g: dict(sorted(m.items())) for g, m in sorted(group_medians.items())},
    }
