"""The state protocol's file side: versioned documents and database files."""

import json
import os
import stat

import pytest

from repro.core.database import FitKind, ProfilingDatabase
from repro.core.persistence import (
    FORMAT_VERSION,
    load_database,
    read_document,
    save_database,
    write_document,
)
from repro.core.predictor import HoltPredictor
from repro.errors import ConfigurationError
from tests.core.samples import sample_count

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


def reloaded(db):
    """A fresh database with ``db``'s state installed."""
    out = ProfilingDatabase()
    out.load_state_dict(db.state_dict())
    return out


class TestRoundTrip:
    def test_dict_round_trip(self, db):
        restored = reloaded(db)
        assert restored.keys() == db.keys()
        assert restored.fit_kind is db.fit_kind
        assert restored.max_samples == db.max_samples

    def test_fits_survive(self, db):
        restored = reloaded(db)
        for key in db.keys():
            original = db.projection(key)
            loaded = restored.projection(key)
            assert loaded.coefficients == pytest.approx(original.coefficients)
            assert loaded.min_power_w == original.min_power_w
            assert loaded.max_power_w == original.max_power_w
            assert loaded.kind is original.kind

    def test_samples_survive_and_refit_matches(self, db):
        restored = reloaded(db)
        assert sample_count(restored, KEY) == sample_count(db, KEY)
        a = restored.refit(KEY)
        b = db.refit(KEY)
        assert a.coefficients == pytest.approx(b.coefficients)

    def test_file_round_trip(self, db, tmp_path):
        path = tmp_path / "profiles.json"
        save_database(db, path)
        restored = load_database(path)
        assert restored.keys() == db.keys()
        # Document is plain JSON.
        doc = json.loads(path.read_text())
        assert doc["format_version"] == FORMAT_VERSION

    def test_file_is_compact(self, db, tmp_path):
        path = tmp_path / "profiles.json"
        save_database(db, path)
        text = path.read_text()
        # One line, no indentation, no space after a separator.
        assert "\n" not in text
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert load_database(path).state_dict() == db.state_dict()

    def test_restored_db_keeps_learning(self, db):
        restored = reloaded(db)
        restored.add_samples(KEY, (140.0,), (22000.0,))
        fit = restored.refit(KEY)
        assert fit.n_samples >= 5

    def test_entry_without_fit_survives(self):
        db = ProfilingDatabase()
        db.ensure_entry(KEY, 88.0, 150.0)
        restored = reloaded(db)
        assert not KEY in restored
        assert KEY in restored.keys()

    def test_load_replaces_existing_records(self, db):
        target = ProfilingDatabase(fit_kind=FitKind.LINEAR)
        target.ensure_entry(("other", "Mcf"), 10.0, 50.0)
        target.load_state_dict(db.state_dict())
        assert target.keys() == db.keys()
        assert target.fit_kind is FitKind.QUADRATIC


class TestValidation:
    def test_version_mismatch_rejected(self, db, tmp_path):
        path = tmp_path / "profiles.json"
        save_database(db, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError):
            load_database(path)

    def test_version_one_rejected(self, db, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({**db.state_dict(), "format_version": 1}))
        with pytest.raises(ConfigurationError, match="version 1"):
            load_database(path)

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfilingDatabase().load_state_dict({})

    def test_malformed_state_installs_nothing(self, db):
        state = db.state_dict()
        state["entries"][1]["powers"] = "oops"
        target = ProfilingDatabase()
        with pytest.raises(ConfigurationError):
            target.load_state_dict(state)
        assert len(target) == 0

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(ConfigurationError):
            load_database(path)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ConfigurationError):
            load_database(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_bytes(b'{"format_version": 2, "x": "\xff\xfe"}')
        with pytest.raises(ConfigurationError):
            read_document(path, "state")

    def test_non_dict_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            load_database(path)

    @pytest.mark.parametrize("column", ["powers", "perfs"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_sample_in_document_rejected(self, db, tmp_path, column, literal):
        # Python's json writes and reads these non-standard literals.
        doc = {"format_version": FORMAT_VERSION, **db.state_dict()}
        doc["entries"][0][column][1] = float(literal.replace("Infinity", "inf"))
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert literal in path.read_text()
        with pytest.raises(ConfigurationError):
            load_database(path)


    @pytest.mark.parametrize("field,index,value", [
        ("coefficients", 1, float("nan")),
        ("min_power_w", None, float("nan")),
        ("max_power_w", None, float("inf")),
        ("coefficients", None, [-1.0, 2.0, 3.0, 4.0]),
    ], ids=["nan-coefficient", "nan-min-power", "inf-max-power", "four-coefficients"])
    def test_malformed_fit_rejected(self, db, field, index, value):
        # Each one would drive allocations: a NaN coefficient zeroes them,
        # an infinite plateau allocates past the envelope.
        state = db.state_dict()
        fit = state["entries"][0]["fit"]
        if index is None:
            fit[field] = value
        else:
            fit[field][index] = value
        target = ProfilingDatabase()
        with pytest.raises(ConfigurationError, match="fit"):
            target.load_state_dict(state)
        assert len(target) == 0

    def test_cubic_fit_kind_rejected(self, db):
        state = db.state_dict()
        state["entries"][0]["fit"]["kind"] = "CUBIC"
        with pytest.raises(ConfigurationError, match="CUBIC"):
            ProfilingDatabase().load_state_dict(state)


class TestDurableWrite:
    def test_data_is_synced_before_the_rename_commits_it(
        self, db, tmp_path, monkeypatch
    ):
        """fsync(file) -> rename -> fsync(directory), and nothing left over."""
        path = tmp_path / "db.json"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            mode = os.fstat(fd).st_mode
            events.append("fsync dir" if stat.S_ISDIR(mode) else "fsync file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_database(db, path)
        assert events == ["fsync file", "rename", "fsync dir"]
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]
        assert load_database(path).state_dict() == db.state_dict()


class TestPredictorPersistence:
    def _primed(self):
        p = HoltPredictor(alpha=0.6, beta=0.3)
        for v in (120.0, 150.0, 170.0, 160.0):
            p.observe(v)
        return p

    def test_round_trip_bit_identical(self):
        p = self._primed()
        restored = HoltPredictor()
        restored.load_state_dict(p.state_dict())
        assert restored.state_dict() == p.state_dict()
        assert restored.predict(4) == p.predict(4)

    def test_json_round_trip(self, tmp_path):
        p = self._primed()
        path = tmp_path / "state.json"
        write_document(path, {"predictor": p.state_dict()})
        restored = HoltPredictor()
        restored.load_state_dict(read_document(path, "state")["predictor"])
        assert restored.state_dict() == p.state_dict()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        write_document(path, {"predictor": self._primed().state_dict()})
        document = json.loads(path.read_text())
        document["format_version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError):
            read_document(path, "state")

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            HoltPredictor().load_state_dict({})

    def test_non_finite_level_rejected(self):
        state = self._primed().state_dict()
        state["level"] = float("nan")
        with pytest.raises(ConfigurationError):
            HoltPredictor().load_state_dict(state)
