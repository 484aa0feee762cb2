"""Profiling-database JSON persistence."""

import json

import pytest

from repro.core.database import FitKind, ProfilingDatabase
from repro.core.persistence import (
    FORMAT_VERSION,
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.errors import ConfigurationError

KEY = ("E5-2620", "SPECjbb")
SAMPLES = [(100.0, 11000.0), (112.0, 15500.0), (125.0, 19000.0), (150.0, 24000.0)]


@pytest.fixture
def db():
    out = ProfilingDatabase(fit_kind=FitKind.QUADRATIC, max_samples=64)
    out.ingest_training_run(KEY, 88.0, SAMPLES)
    out.ingest_training_run(
        ("i5-4460", "SPECjbb"), 47.0,
        [(55.0, 7300.0), (67.0, 12800.0), (80.0, 16600.0)],
    )
    return out


class TestRoundTrip:
    def test_dict_round_trip(self, db):
        restored = database_from_dict(database_to_dict(db))
        assert restored.keys() == db.keys()
        assert restored.fit_kind is db.fit_kind
        assert restored.max_samples == db.max_samples

    def test_fits_survive(self, db):
        restored = database_from_dict(database_to_dict(db))
        for key in db.keys():
            original = db.projection(key)
            loaded = restored.projection(key)
            assert loaded.coefficients == pytest.approx(original.coefficients)
            assert loaded.min_power_w == original.min_power_w
            assert loaded.max_power_w == original.max_power_w
            assert loaded.kind is original.kind

    def test_samples_survive_and_refit_matches(self, db):
        restored = database_from_dict(database_to_dict(db))
        assert restored.sample_count(KEY) == db.sample_count(KEY)
        a = restored.refit(KEY)
        b = db.refit(KEY)
        assert a.coefficients == pytest.approx(b.coefficients)

    def test_file_round_trip(self, db, tmp_path):
        path = tmp_path / "profiles.json"
        save_database(db, path)
        restored = load_database(path)
        assert restored.keys() == db.keys()
        # Document is human-readable JSON.
        doc = json.loads(path.read_text())
        assert doc["format_version"] == FORMAT_VERSION

    def test_restored_db_keeps_learning(self, db):
        restored = database_from_dict(database_to_dict(db))
        restored.add_sample(KEY, 140.0, 22000.0)
        fit = restored.refit(KEY)
        assert fit.n_samples >= 5

    def test_entry_without_fit_survives(self):
        db = ProfilingDatabase()
        db.ensure_entry(KEY, 88.0, 150.0)
        restored = database_from_dict(database_to_dict(db))
        assert not restored.has(*KEY)
        assert KEY in restored.keys()


class TestValidation:
    def test_version_mismatch_rejected(self, db):
        doc = database_to_dict(db)
        doc["format_version"] = 999
        with pytest.raises(ConfigurationError):
            database_from_dict(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigurationError):
            database_from_dict({"format_version": FORMAT_VERSION})

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(ConfigurationError):
            load_database(path)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ConfigurationError):
            load_database(path)

    def test_non_dict_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            load_database(path)

    @pytest.mark.parametrize("column", ["powers", "perfs"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_sample_in_document_rejected(self, db, tmp_path, column, literal):
        # Python's json writes and reads these non-standard literals.
        doc = database_to_dict(db)
        doc["entries"][0][column][1] = float(literal.replace("Infinity", "inf"))
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert literal in path.read_text()
        with pytest.raises(ConfigurationError):
            load_database(path)


class TestPredictorPersistence:
    def _primed(self):
        from repro.core.predictor import HoltPredictor

        p = HoltPredictor(alpha=0.6, beta=0.3)
        for v in (120.0, 150.0, 170.0, 160.0):
            p.observe(v)
        return p

    def test_round_trip_bit_identical(self):
        from repro.core.persistence import predictor_from_dict, predictor_to_dict

        p = self._primed()
        restored = predictor_from_dict(predictor_to_dict(p))
        assert restored.state_dict() == p.state_dict()
        assert restored.predict(4) == p.predict(4)

    def test_json_round_trip(self):
        from repro.core.persistence import predictor_from_dict, predictor_to_dict

        p = self._primed()
        document = json.loads(json.dumps(predictor_to_dict(p)))
        assert predictor_from_dict(document).state_dict() == p.state_dict()

    def test_version_mismatch_rejected(self):
        from repro.core.persistence import predictor_from_dict, predictor_to_dict

        document = predictor_to_dict(self._primed())
        document["format_version"] = 99
        with pytest.raises(ConfigurationError):
            predictor_from_dict(document)

    def test_malformed_rejected(self):
        from repro.core.persistence import predictor_from_dict

        with pytest.raises(ConfigurationError):
            predictor_from_dict({"format_version": FORMAT_VERSION})


class TestPublicSurfaceOnly:
    def test_database_to_dict_uses_snapshot_api(self, db):
        """Serialisation must survive a database exposing only its public API."""

        class Facade:
            fit_kind = db.fit_kind
            max_samples = db.max_samples

            def snapshot(self):
                return db.snapshot()

        assert database_to_dict(Facade()) == database_to_dict(db)
