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
from typing import Mapping

import numpy as np

from .bayesnet import DatasetTable, profile_variables
from .ingest import RawFeatureRecord, check_columns, stage_records
from .sleepmix import STAY_UP

TIE_AT_MEDIAN_LOW = "at-median-low"

SPLIT_VARIABLES = ("R", "T", "Br", "Ba", "F", "Ac")


@dataclass(frozen=True)
class VariableRule:
    source: str          # RawFeatureRecord attribute
    high_is_one: bool    # False inverts the split direction


@dataclass(frozen=True)
class DiscretizationSpec:
    rules: Mapping[str, VariableRule]
    tie_rule: str = TIE_AT_MEDIAN_LOW

    def __post_init__(self):
        if set(self.rules) != set(SPLIT_VARIABLES):
            raise ValueError(f"rules must cover exactly {SPLIT_VARIABLES}")
        if self.tie_rule != TIE_AT_MEDIAN_LOW:
            raise ValueError(f"unsupported tie rule {self.tie_rule!r}")


def default_discretization_spec() -> DiscretizationSpec:
    return DiscretizationSpec({
        "R": VariableRule("books_borrowed", True),
        "T": VariableRule("mean_daily_surf_minutes", True),
        "Br": VariableRule("breakfast_count", True),
        "Ba": VariableRule("bath_interval_variance", False),
        "F": VariableRule("mean_daily_spend", True),
        "Ac": VariableRule("gpa", True),
    })


@dataclass
class StudentProfile:
    student_id: str
    G: int
    R: int
    A: int
    T: int
    Br: int
    Ba: int
    F: int
    Ac: int
    S: int

    def bits(self) -> tuple[int, ...]:
        return (self.G, self.R, self.A, self.T, self.Br, self.Ba, self.F, self.Ac, self.S)


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


def _split(values: Mapping[str, float], high_is_one: bool) -> tuple[dict[str, int], float]:
    med = _median(list(values.values()))
    if high_is_one:
        return {k: int(v > med) for k, v in values.items()}, med
    return {k: int(v <= med) for k, v in values.items()}, med


def median_split(values: Mapping[str, float], tie_rule: str = TIE_AT_MEDIAN_LOW) -> dict[str, int]:
    """Label 1 iff the value strictly exceeds the median (ties go low)."""
    if tie_rule != TIE_AT_MEDIAN_LOW:
        raise ValueError(f"unsupported tie rule {tie_rule!r}")
    if len(values) < 2:
        raise ValueError("median_split needs at least two students")
    labels, _ = _split(values, True)
    return labels


@dataclass
class ProfileResult:
    profiles: list[StudentProfile]
    medians: dict[str, float]
    excluded: dict[str, str]


def build_profiles(features: Mapping[str, RawFeatureRecord],
                   sleep_labels: Mapping[str, object],
                   spec: DiscretizationSpec | None = None) -> ProfileResult:
    """Assemble the nine binary variables for every fully observed student.

    Students missing a feature record, a sleep label, or a defined bath
    interval variance are excluded and reported. Medians are computed over
    the included students only.
    """
    spec = spec or default_discretization_spec()
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
        raise ValueError("need at least two fully observed students to profile")

    bits: dict[str, dict[str, int]] = {}
    medians: dict[str, float] = {}
    for name, rule in spec.rules.items():
        values = {sid: float(getattr(features[sid], rule.source)) for sid in included}
        bits[name], medians[name] = _split(values, rule.high_is_one)

    def sleep_bit(sid: str) -> int:
        label = sleep_labels[sid]
        if isinstance(label, str):
            return int(label == STAY_UP)
        return int(label)

    profiles = []
    for sid in included:
        rec = features[sid]
        profiles.append(StudentProfile(
            student_id=sid,
            G=int(rec.gender == "female"),
            R=bits["R"][sid],
            A=int(rec.video_minutes > rec.game_minutes),
            T=bits["T"][sid],
            Br=bits["Br"][sid],
            Ba=bits["Ba"][sid],
            F=bits["F"][sid],
            Ac=bits["Ac"][sid],
            S=sleep_bit(sid),
        ))
    return ProfileResult(profiles, medians, excluded)


def profiles_to_table(profiles: list[StudentProfile]) -> tuple[DatasetTable, tuple[str, ...]]:
    variables = profile_variables()
    values = np.array([p.bits() for p in profiles], dtype=np.uint8).reshape(len(profiles), 9)
    return DatasetTable(variables, values), tuple(p.student_id for p in profiles)


PROFILE_HEADER = ["student_id", "G", "R", "A", "T", "Br", "Ba", "F", "Ac", "S"]


def write_profiles_csv(path, profiles: list[StudentProfile]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_HEADER)
        for p in sorted(profiles, key=lambda p: p.student_id):
            writer.writerow([p.student_id, *p.bits()])


def read_profiles_csv(path) -> list[StudentProfile]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        check_columns(path, reader.fieldnames, PROFILE_HEADER)
        return list(stage_records(path, reader, lambda row: StudentProfile(
            student_id=row["student_id"], **{k: int(row[k]) for k in PROFILE_HEADER[1:]})))


def metadata_json(spec: DiscretizationSpec, group_medians: Mapping[str, Mapping[str, float]]) -> dict:
    """Direction conventions plus the medians actually used, per group."""
    return {
        "tie_rule": spec.tie_rule,
        "directions": {
            name: {"source": rule.source, "high_is_one": rule.high_is_one}
            for name, rule in sorted(spec.rules.items())
        },
        "fixed_rules": {
            "G": "female = 1",
            "A": "video minutes > game minutes = 1 (ties to 0)",
            "S": "stay_up label = 1",
        },
        "group_medians": {g: dict(sorted(m.items())) for g, m in sorted(group_medians.items())},
    }
