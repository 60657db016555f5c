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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bayesnet import DatasetTable, profile_variables
from .ingest import FEATURE_COLUMNS, GENDERS, stage_records

# variable: (features.csv column, high_is_one); False inverts the split direction
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


@dataclass
class ProfileResult:
    ids: tuple[str, ...]   # the student of each row of table, in id order
    table: DatasetTable
    medians: dict[str, float]
    excluded: dict[str, str]


# the reasons to exclude a student, in order of precedence, and what each means
_EXCLUSIONS = {
    "missing feature record": " (no grade, so no row in features.csv)",
    "missing sleep label": "",
    "bath interval variance undefined": " (fewer than two baths)",
}


def too_few_message(n_included: int, reasons: Iterable[str]) -> str:
    """Why a scope of n_included fully observed students cannot be profiled,
    with the count of each exclusion reason among its other students."""
    reasons = list(reasons)
    counts = [f"{reasons.count(r)} {r}{meaning}" for r, meaning in _EXCLUSIONS.items()
              if r in reasons]
    return (f"need at least two fully observed students to profile, got {n_included}; "
            f"excluded: {', '.join(counts) or 'none'}")


_COLUMN = {name: j for j, name in enumerate(FEATURE_COLUMNS[1:])}   # in a features matrix


def build_profiles(feature_ids: Sequence[str], values: np.ndarray,
                   label_ids: Sequence[str], stay_up: np.ndarray) -> ProfileResult:
    """Assemble the nine binary variables for every fully observed student.

    Row i of values (columns FEATURE_COLUMNS[1:]) is feature_ids[i], and
    stay_up[j] is label_ids[j]'s sleep label. Students missing a feature
    record, a sleep label, or a defined bath interval variance are excluded
    and reported, in that order of precedence. Medians are computed over the
    included students only; rows follow id order.
    """
    feature_row = {sid: i for i, sid in enumerate(feature_ids)}
    label_row = {sid: i for i, sid in enumerate(label_ids)}
    undefined = np.isnan(values[:, _COLUMN["bath_interval_variance"]]).tolist()
    excluded: dict[str, str] = {}
    included: list[str] = []
    no_features, no_label, no_variance = _EXCLUSIONS
    for sid in sorted(feature_row.keys() | label_row.keys()):
        if sid not in feature_row:
            excluded[sid] = no_features
        elif sid not in label_row:
            excluded[sid] = no_label
        elif undefined[feature_row[sid]]:
            excluded[sid] = no_variance
        else:
            included.append(sid)
    if len(included) < 2:
        raise ValueError(too_few_message(len(included), excluded.values()))

    rows = values[[feature_row[sid] for sid in included]]
    columns = {
        "G": rows[:, _COLUMN["gender"]] == GENDERS.index("female"),
        "A": rows[:, _COLUMN["video_minutes"]] > rows[:, _COLUMN["game_minutes"]],
        "S": stay_up[[label_row[sid] for sid in included]],
    }
    medians: dict[str, float] = {}
    for name, (source, high_is_one) in MEDIAN_SPLITS.items():
        columns[name], medians[name] = _split(rows[:, _COLUMN[source]], high_is_one)
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


def _profile_row(row) -> list[int]:
    bits = [int(row[name]) for name in PROFILE_HEADER[1:]]
    for name, bit in zip(PROFILE_HEADER[1:], bits):
        if bit not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {bit}")
    return bits


def read_profiles_csv(path) -> tuple[tuple[str, ...], DatasetTable]:
    """(ids, table) of a profiles file, rows in file order."""
    with open(path, newline="") as fh:
        ids, rows = stage_records(path, csv.DictReader(fh), PROFILE_HEADER, _profile_row)
    variables = profile_variables()
    values = np.array(rows, dtype=np.uint8).reshape(len(ids), variables.n)
    return ids, DatasetTable(variables, values)


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
