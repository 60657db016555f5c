import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stayup import profiles as pr
from stayup.ingest import RawFeatureRecord
from stayup.pipeline import write_json


def record(sid, **overrides):
    base = dict(
        student_id=sid, books_borrowed=3, mean_daily_surf_minutes=20.0,
        game_minutes=100.0, video_minutes=50.0, breakfast_count=10,
        bath_interval_variance=1.0, mean_daily_spend=12.0, gpa=3.0, gender="male",
    )
    base.update(overrides)
    return RawFeatureRecord(**base)


class TestMedianSplit:
    def test_clean_median(self):
        got = pr.median_split({"a": 1, "b": 2, "c": 3, "d": 4})
        assert got == {"a": 0, "b": 0, "c": 1, "d": 1}

    def test_at_median_goes_low(self):
        got = pr.median_split({"a": 1, "b": 2, "c": 2, "d": 3})
        assert got == {"a": 0, "b": 0, "c": 0, "d": 1}

    def test_all_equal_all_low(self):
        got = pr.median_split({"a": 5, "b": 5, "c": 5})
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
            pr.median_split({})

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = {f"s{i}": float(v) for i, v in enumerate(rng.normal(size=31))}
            transformed = {k: np.expm1(3 * v) for k, v in values.items()}
            assert pr.median_split(values) == pr.median_split(transformed)

    def test_label_one_fraction_at_most_half(self):
        rng = np.random.default_rng(1)
        for n in (10, 11, 50, 101):
            values = {f"s{i}": float(v) for i, v in enumerate(rng.normal(size=n))}
            labels = pr.median_split(values)
            assert sum(labels.values()) <= n / 2
            # with all-distinct values the split is within one student of half
            assert sum(labels.values()) >= n / 2 - 1

    def test_unknown_tie_rule_rejected(self):
        with pytest.raises(ValueError):
            pr.median_split({"a": 1, "b": 2}, tie_rule="coin-flip")


class TestDiscretizationSpec:
    def test_default_covers_six_variables(self):
        spec = pr.default_discretization_spec()
        assert set(spec.rules) == set(pr.SPLIT_VARIABLES)

    def test_partial_coverage_rejected(self):
        rules = dict(pr.default_discretization_spec().rules)
        del rules["Ba"]
        with pytest.raises(ValueError):
            pr.DiscretizationSpec(rules)


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
        result = pr.build_profiles(features, labels)
        by_id = {p.student_id: p for p in result.profiles}
        assert by_id["s1"].A == 1          # video ahead
        assert by_id["s2"].A == 0          # tie goes to game
        assert by_id["s3"].A == 0

    def test_sleep_label_pass_through(self):
        features, labels = self._inputs()
        by_id = {p.student_id: p for p in pr.build_profiles(features, labels).profiles}
        assert by_id["s1"].S == 1 and by_id["s2"].S == 0 and by_id["s3"].S == 1

    def test_gender_convention(self):
        features, labels = self._inputs()
        by_id = {p.student_id: p for p in pr.build_profiles(features, labels).profiles}
        assert by_id["s1"].G == 1 and by_id["s2"].G == 0

    def test_bath_orderliness_low_variance_is_one(self):
        features, labels = self._inputs()
        result = pr.build_profiles(features, labels)
        by_id = {p.student_id: p for p in result.profiles}
        # variances 1, 1, 9 -> median 1; at or below median counts as orderly
        assert by_id["s1"].Ba == 1 and by_id["s2"].Ba == 1 and by_id["s3"].Ba == 0

    def test_missing_sources_reported(self):
        features, labels = self._inputs()
        features["s4"] = record("s4", bath_interval_variance=None)
        labels["s4"] = "stay_up"
        labels["s5"] = "non_stay_up"
        del labels["s3"]
        result = pr.build_profiles(features, labels)
        assert result.excluded["s4"] == "bath interval variance undefined"
        assert result.excluded["s5"] == "missing feature record"
        assert result.excluded["s3"] == "missing sleep label"
        assert {p.student_id for p in result.profiles} == {"s1", "s2"}

    def test_integer_sleep_labels_accepted(self):
        features, _ = self._inputs()
        result = pr.build_profiles(features, {"s1": 1, "s2": 0, "s3": 1})
        by_id = {p.student_id: p for p in result.profiles}
        assert by_id["s1"].S == 1 and by_id["s2"].S == 0

    def test_deterministic(self):
        features, labels = self._inputs()
        a = pr.build_profiles(features, labels)
        b = pr.build_profiles(features, labels)
        assert a.profiles == b.profiles and a.medians == b.medians

    def test_medians_recorded_for_split_variables(self):
        features, labels = self._inputs()
        result = pr.build_profiles(features, labels)
        assert set(result.medians) == set(pr.SPLIT_VARIABLES)

    def test_too_few_students_rejected(self):
        features, labels = self._inputs()
        with pytest.raises(ValueError):
            pr.build_profiles({"s1": features["s1"]}, {"s1": labels["s1"]})


class TestTableAndCsv:
    def _profiles(self):
        rng = np.random.default_rng(2)
        out = []
        for i in range(10):
            bits = rng.integers(0, 2, size=9)
            out.append(pr.StudentProfile(f"s{i:02d}", *map(int, bits)))
        return out

    def test_table_matches_bits(self):
        rows = self._profiles()
        table, ids = pr.profiles_to_table(rows)
        assert table.variables.names == ("G", "R", "A", "T", "Br", "Ba", "F", "Ac", "S")
        assert ids == tuple(p.student_id for p in rows)
        np.testing.assert_array_equal(table.values[0], rows[0].bits())

    def test_csv_round_trip(self, tmp_path):
        rows = self._profiles()
        path = tmp_path / "profiles.csv"
        pr.write_profiles_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "student_id,G,R,A,T,Br,Ba,F,Ac,S"
        assert pr.read_profiles_csv(path) == sorted(rows, key=lambda p: p.student_id)

    def test_metadata_json(self, tmp_path):
        spec = pr.default_discretization_spec()
        path = tmp_path / "meta.json"
        write_json(path, pr.metadata_json(spec, {"freshman": {"R": 3.0}}))
        import json

        meta = json.loads(path.read_text())
        assert meta["directions"]["Ba"]["high_is_one"] is False
        assert meta["group_medians"]["freshman"]["R"] == 3.0
