import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stayup import bayesnet as bn
from stayup import profiles as pr
from stayup.pipeline import write_json

import reference
from reference import RawFeatureRecord


def record(sid, **overrides):
    base = dict(
        student_id=sid, books_borrowed=3, mean_daily_surf_minutes=20.0,
        game_minutes=100.0, video_minutes=50.0, breakfast_count=10,
        bath_interval_variance=1.0, mean_daily_spend=12.0, gpa=3.0, gender="male",
    )
    base.update(overrides)
    return RawFeatureRecord(**base)


def build(features: dict[str, RawFeatureRecord], labels: dict[str, str]) -> pr.ProfileResult:
    """build_profiles on records and label words, in their array form."""
    label_ids = tuple(labels)
    stay_up = np.array([labels[sid] == "stay_up" for sid in label_ids], dtype=bool)
    return pr.build_profiles(*reference.feature_arrays(features), label_ids, stay_up)


def bits_by_id(result) -> dict[str, dict[str, int]]:
    """Each profiled student's bit per variable name."""
    names = result.table.variables.names
    return {sid: dict(zip(names, row.tolist()))
            for sid, row in zip(result.ids, result.table.values)}


# few distinct values, so that features tie at the median
TIES = st.sampled_from([0.0, 1.0, 1.5, 2.0])


@st.composite
def profile_inputs(draw) -> tuple[dict[str, RawFeatureRecord], dict[str, bool]]:
    """Up to eight students, each with features, a sleep label or both; some
    with an undefined bath variance."""
    features, labels = {}, {}
    for i in range(draw(st.integers(0, 8))):
        sid = f"s{i}"
        has = draw(st.sampled_from(["both", "both", "both", "features", "label"]))
        if has != "label":
            features[sid] = RawFeatureRecord(
                sid, draw(st.integers(0, 2)), draw(TIES), draw(TIES), draw(TIES),
                draw(st.integers(0, 2)), draw(st.none() | TIES), draw(TIES), draw(TIES),
                draw(st.sampled_from(["male", "female"])))
        if has != "features":
            labels[sid] = draw(st.booleans())
    return features, labels


class TestMedianSplit:
    def test_clean_median(self):
        got = reference.median_split({"a": 1, "b": 2, "c": 3, "d": 4})
        assert got == {"a": 0, "b": 0, "c": 1, "d": 1}

    def test_at_median_goes_low(self):
        got = reference.median_split({"a": 1, "b": 2, "c": 2, "d": 3})
        assert got == {"a": 0, "b": 0, "c": 0, "d": 1}

    def test_all_equal_all_low(self):
        got = reference.median_split({"a": 5, "b": 5, "c": 5})
        assert got == {"a": 0, "b": 0, "c": 0}

    # few distinct values, so that draws tie; both zeros, infinities and NaN among them
    TIED = st.sampled_from([-2.5, -0.0, 0.0, 0.1, 0.30000000000000004, 7.0, 1e308,
                            float("inf"), float("-inf"), float("nan")])

    @pytest.mark.parametrize("parity", [0, 1])
    @given(values=st.lists(TIED | st.floats(), min_size=1, max_size=30))
    def test_median_is_np_median_bit_for_bit(self, parity, values):
        if len(values) % 2 != parity:
            values = values + values[:1]
        with np.errstate(all="ignore"):
            want = float(np.median(values))
            got = pr._median(values)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == want and np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reference.median_split({})

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = {f"s{i}": float(v) for i, v in enumerate(rng.normal(size=31))}
            transformed = {k: np.expm1(3 * v) for k, v in values.items()}
            assert reference.median_split(values) == reference.median_split(transformed)

    def test_label_one_fraction_at_most_half(self):
        rng = np.random.default_rng(1)
        for n in (10, 11, 50, 101):
            values = {f"s{i}": float(v) for i, v in enumerate(rng.normal(size=n))}
            labels = reference.median_split(values)
            assert sum(labels.values()) <= n / 2
            # with all-distinct values the split is within one student of half
            assert sum(labels.values()) >= n / 2 - 1


class TestBuildProfiles:
    def _inputs(self):
        features = {
            "s1": record("s1", video_minutes=300.0, game_minutes=100.0, gpa=3.8,
                         gender="female", breakfast_count=20),
            "s2": record("s2", video_minutes=100.0, game_minutes=100.0, gpa=2.0,
                         breakfast_count=5),
            "s3": record("s3", video_minutes=10.0, game_minutes=200.0, gpa=3.1,
                         breakfast_count=12, bath_interval_variance=9.0),
        }
        labels = {"s1": "stay_up", "s2": "non_stay_up", "s3": "stay_up"}
        return features, labels

    def test_app_preference(self):
        features, labels = self._inputs()
        by_id = bits_by_id(build(features, labels))
        assert by_id["s1"]["A"] == 1          # video ahead
        assert by_id["s2"]["A"] == 0          # tie goes to game
        assert by_id["s3"]["A"] == 0

    def test_sleep_label_pass_through(self):
        features, labels = self._inputs()
        by_id = bits_by_id(build(features, labels))
        assert by_id["s1"]["S"] == 1 and by_id["s2"]["S"] == 0 and by_id["s3"]["S"] == 1

    def test_gender_convention(self):
        features, labels = self._inputs()
        by_id = bits_by_id(build(features, labels))
        assert by_id["s1"]["G"] == 1 and by_id["s2"]["G"] == 0

    def test_bath_orderliness_low_variance_is_one(self):
        features, labels = self._inputs()
        by_id = bits_by_id(build(features, labels))
        # variances 1, 1, 9 -> median 1; at or below median counts as orderly
        assert by_id["s1"]["Ba"] == 1 and by_id["s2"]["Ba"] == 1 and by_id["s3"]["Ba"] == 0

    def test_missing_sources_reported(self):
        features, labels = self._inputs()
        features["s4"] = record("s4", bath_interval_variance=None)
        labels["s4"] = "stay_up"
        labels["s5"] = "non_stay_up"
        del labels["s3"]
        result = build(features, labels)
        assert result.excluded["s4"] == "bath interval variance undefined"
        assert result.excluded["s5"] == "missing feature record"
        assert result.excluded["s3"] == "missing sleep label"
        assert result.ids == ("s1", "s2") and result.table.n_rows == 2

    def test_deterministic(self):
        features, labels = self._inputs()
        a = build(features, labels)
        b = build(features, labels)
        assert a.ids == b.ids and a.medians == b.medians
        np.testing.assert_array_equal(a.table.values, b.table.values)

    def test_medians_recorded_for_split_variables(self):
        features, labels = self._inputs()
        result = build(features, labels)
        assert set(result.medians) == set(pr.SPLIT_VARIABLES)

    def test_table_columns_follow_the_header(self):
        features, labels = self._inputs()
        result = build(features, labels)
        assert result.table.variables.names == tuple(pr.PROFILE_HEADER[1:])
        assert result.ids == ("s1", "s2", "s3")
        np.testing.assert_array_equal(result.table.values[0], [1, 0, 1, 0, 1, 1, 0, 1, 1])

    def test_too_few_students_rejected(self):
        features, labels = self._inputs()
        with pytest.raises(ValueError):
            build({"s1": features["s1"]}, {"s1": labels["s1"]})

    def test_too_few_students_counts_each_exclusion(self):
        features, labels = self._inputs()
        features["s3"] = record("s3", bath_interval_variance=None)
        with pytest.raises(ValueError) as err:
            build({"s1": features["s1"], "s3": features["s3"]}, labels)
        assert str(err.value) == (
            "need at least two fully observed students to profile, got 1; excluded: "
            "1 missing feature record (no grade, so no row in features.csv), "
            "1 bath interval variance undefined (fewer than two baths)")

    @given(inputs=profile_inputs(), data=st.data())
    def test_matches_the_dict_form(self, inputs, data):
        features, labels = inputs
        ids, values = reference.feature_arrays(features)
        order = data.draw(st.permutations(range(len(ids))))   # rows in any order
        label_ids = tuple(data.draw(st.permutations(list(labels))))
        args = (tuple(ids[i] for i in order), values[list(order)],
                label_ids, np.array([labels[sid] for sid in label_ids], dtype=bool))
        try:
            want = reference.build_profiles(features, labels)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}; excluded: "):
                pr.build_profiles(*args)
            return
        got = pr.build_profiles(*args)
        assert got.ids == want.ids
        assert list(got.excluded.items()) == list(want.excluded.items())
        np.testing.assert_array_equal(got.table.values, want.table.values)
        assert got.medians.keys() == want.medians.keys()
        for name, median in want.medians.items():
            assert np.float64(got.medians[name]).tobytes() == np.float64(median).tobytes()


class TestTableAndCsv:
    def test_csv_round_trip(self, tmp_path):
        values = np.random.default_rng(2).integers(0, 2, size=(10, 9))
        ids = tuple(f"s{i:02d}" for i in range(10))[::-1]
        table = bn.DatasetTable(bn.profile_variables(), values)
        path = tmp_path / "profiles.csv"
        pr.write_profiles_csv(path, ids, table)
        header = path.read_text().splitlines()[0]
        assert header == "student_id,G,R,A,T,Br,Ba,F,Ac,S"
        again_ids, again = pr.read_profiles_csv(path)   # rows are written in id order
        assert again_ids == ids[::-1]
        np.testing.assert_array_equal(again.values, values[::-1])

    def test_metadata_json(self, tmp_path):
        path = tmp_path / "meta.json"
        write_json(path, pr.metadata_json({"freshman": {"R": 3.0}}))
        import json

        meta = json.loads(path.read_text())
        assert meta["tie_rule"] == "at-median-low"
        assert {name: (d["source"], d["high_is_one"]) for name, d in meta["directions"].items()} == {
            "R": ("books_borrowed", True), "T": ("mean_daily_surf_minutes", True),
            "Br": ("breakfast_count", True), "Ba": ("bath_interval_variance", False),
            "F": ("mean_daily_spend", True), "Ac": ("gpa", True)}
        assert list(meta["directions"]) == sorted(pr.SPLIT_VARIABLES)
        assert meta["group_medians"]["freshman"]["R"] == 3.0
