"""TuningDB semantics: keys, round-trips, corruption recovery, env default."""

import dataclasses
import json

import numpy as np
import pytest

from repro.autotune import Strategy, Tuner, TuningDB, default_db, resolve_db
from repro.autotune.db import (
    DB_HEADER,
    DEFAULT_DB_MAX,
    ENV_DB_DIR,
    ENV_DB_MAX,
    tuning_key,
)
from repro.data import generate_image, hotspot_single


@pytest.fixture()
def db(tmp_path):
    return TuningDB(tmp_path / "tuning", max_entries=4)


def _key(n: int) -> str:
    return f"{n:064x}"


class TestRecords:
    def test_round_trip(self, db):
        record = {"app": "gaussian", "entries": [{"speedup": 1.25, "error": 0.01}]}
        assert db.get(_key(1)) is None
        assert db.put(_key(1), record)
        assert db.get(_key(1)) == record
        assert db.stats.hits == 1
        assert db.stats.misses == 1

    def test_floats_round_trip_bit_exactly(self, db):
        values = [0.1 + 0.2, 1.0 / 3.0, 2.0**-1074, 1e308, 36.973808237]
        db.put(_key(2), {"values": values})
        assert db.get(_key(2))["values"] == values

    def test_corrupt_body_is_dropped(self, db):
        db.put(_key(3), {"ok": True})
        path = db.store._path(_key(3))
        path.write_text(DB_HEADER + "\n{torn json", encoding="utf-8")
        assert db.get(_key(3)) is None
        assert len(db) == 0  # entry removed

    def test_wrong_header_is_dropped(self, db):
        db.put(_key(4), {"ok": True})
        db.store._path(_key(4)).write_text("not a record", encoding="utf-8")
        assert db.get(_key(4)) is None

    def test_non_dict_body_is_dropped(self, db):
        db.store.put(_key(5), DB_HEADER + "\n[1, 2, 3]\n")
        assert db.get(_key(5)) is None

    def test_lru_bound(self, db):
        import os

        for n in range(6):
            db.put(_key(n), {"n": n})
            os.utime(db.store._path(_key(n)), (n, n))
        db.store._evict()
        assert len(db) == 4
        assert db.stats.evictions >= 2


class TestKeys:
    def test_tuning_key_is_canonical(self):
        a = tuning_key(app="gaussian", seed=0, space="abc")
        b = tuning_key(space="abc", seed=0, app="gaussian")
        assert a == b
        assert a != tuning_key(app="gaussian", seed=1, space="abc")
        assert json.loads('"x"') == "x"  # sanity: canonical via json

    def test_input_signature_is_content_based(self, db):
        """Records are keyed by the inputs' content, not by their identity."""
        tuner = Tuner(db=db)
        app = tuner.engine.resolve_app("gaussian")

        def key(inputs):
            return tuner._record_key(app, inputs, kind="tune")

        a = generate_image("natural", size=16, seed=3)
        b = generate_image("natural", size=16, seed=3)
        c = generate_image("natural", size=16, seed=4)
        assert key(a) == key(b)  # equal content, new array
        assert key(a) != key(c)
        assert key([a, b]) != key([a])
        assert key(a) != key(a.astype("float32"))

    @staticmethod
    def _counting_strategy():
        """A strategy stub that evaluates nothing and records the inputs of
        every tune the database did not answer."""

        class Counting(Strategy):
            name = "counting"

            def __init__(self):
                self.tuned = []

            def tune(self, task, rng):
                self.tuned.append(task.inputs)

        return Counting()

    def test_hotspot_inputs_differing_inside_the_grid_get_their_own_records(self, db):
        """A ``HotspotInput``'s repr shows NumPy's truncated grids; keys
        fingerprint the content, so no input is answered with another's record."""
        base = hotspot_single(size=64, seed=1)
        power = base.power.copy()
        power[32, 32] += 1.0
        temperature = base.temperature.copy()
        temperature[0, 0] += 1e-12
        inputs = [
            base,
            dataclasses.replace(base, power=power),
            dataclasses.replace(base, temperature=temperature),
        ]
        strategy = self._counting_strategy()
        tuner = Tuner(db=db)
        for inputs_ in inputs + inputs:  # the second round replays records
            tuner.tune("hotspot", inputs_, strategy=strategy)
        assert len(strategy.tuned) == 3
        assert all(seen is given for seen, given in zip(strategy.tuned, inputs))
        assert db.stats.hits == 3 and db.stats.puts == 3

    def test_an_input_without_a_fingerprint_bypasses_the_database(self, db):
        class Opaque:
            """Array-like (so it has a global size), but no content fingerprint."""

            def __array__(self, dtype=None, copy=None):
                return np.zeros((16, 16))

        opaque = Opaque()
        strategy = self._counting_strategy()
        tuner = Tuner(db=db)
        tuner.tune("gaussian", opaque, strategy=strategy)
        tuner.tune("gaussian", opaque, strategy=strategy)
        assert strategy.tuned == [opaque, opaque]
        assert db.stats.lookups == 0 and len(db) == 0


class TestSharedDirectory:
    """Every handle on one directory reads the same records, as processes
    sharing the default database do."""

    def test_concurrent_readers_see_identical_records(self, db):
        from concurrent.futures import ThreadPoolExecutor

        records = {_key(n): {"n": n, "v": [0.1 * n]} for n in range(4)}
        for key, record in records.items():
            db.put(key, record)
        readers = [TuningDB(db.root, max_entries=4) for _ in range(6)]

        def sweep(reader):
            return {key: reader.get(key) for key in records}

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(sweep, readers))
        assert all(result == records for result in results)
        assert all(reader.stats.hits == 4 for reader in readers)
        assert len(db) == 4


class TestDefaults:
    def test_env_override_and_shared_instance(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DB_DIR, str(tmp_path / "db"))
        monkeypatch.delenv(ENV_DB_MAX, raising=False)
        db = default_db()
        assert db is not None
        assert str(db.root) == str(tmp_path / "db")
        assert default_db() is db

    def test_disabled_values(self, monkeypatch):
        for value in ("0", "off", "NONE", " disabled "):
            monkeypatch.setenv(ENV_DB_DIR, value)
            assert default_db() is None

    def test_max_entries_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DB_DIR, str(tmp_path / "db"))
        monkeypatch.setenv(ENV_DB_MAX, "9")
        assert default_db().store.max_entries == 9
        monkeypatch.setenv(ENV_DB_MAX, "bogus")
        assert default_db().store.max_entries == DEFAULT_DB_MAX

    def test_resolve_db(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DB_DIR, "off")
        assert resolve_db(None) is None  # environment disables the default
        assert resolve_db(False) is None
        assert resolve_db("off") is None
        db = TuningDB(tmp_path / "x")
        assert resolve_db(db) is db
        opened = resolve_db(tmp_path / "y")
        assert isinstance(opened, TuningDB)
        assert str(opened.root) == str(tmp_path / "y")
