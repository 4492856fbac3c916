"""Dataset persistence: round-trip, checksums, schema validation, extension."""

import dataclasses

import pytest

import zetasums
from zetasums import datasets
from zetasums.datasets import (
    cache_dir,
    cached_dataset,
    cached_ordinates,
    extend_dataset,
    load_dataset,
    save_dataset,
)
from zetasums.errors import CacheWarning, ChecksumError, SchemaError
from zetasums.special import FunctionId
from zetasums.zeros import ZeroDataset, scan_zeros, with_real_axis_records


@pytest.fixture(scope="module")
def small_ds():
    ds = scan_zeros(FunctionId.T_MINUS, 0.0, 60.0)
    return with_real_axis_records(ds)


def test_round_trip(tmp_path, small_ds):
    path = tmp_path / "tm.csv"
    save_dataset(small_ds, path)
    back = load_dataset(path)
    assert back.function is small_ds.function
    assert back.t_max_scanned == small_ds.t_max_scanned
    assert len(back.records) == len(small_ds.records)
    for a, b in zip(back.records, small_ds.records):
        assert a.t_or_x == b.t_or_x  # exact: repr round-trips binary floats
        assert a.location_kind == b.location_kind


def test_checksum_tamper(tmp_path, small_ds):
    path = tmp_path / "tm.csv"
    save_dataset(small_ds, path)
    text = path.read_text()
    path.write_text(text.replace("7.66", "7.67", 1))
    with pytest.raises(ChecksumError):
        load_dataset(path)


def test_missing_manifest(tmp_path, small_ds):
    path = tmp_path / "tm.csv"
    save_dataset(small_ds, path)
    path.with_suffix(".csv.manifest.json").unlink()
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_extend_noop_at_same_height(small_ds):
    same = extend_dataset(small_ds, small_ds.t_max_scanned)
    assert len(same.records) == len(small_ds.records)


def test_extend_matches_fresh_scan(small_ds):
    extended = extend_dataset(small_ds, 80.0)
    fresh = with_real_axis_records(scan_zeros(FunctionId.T_MINUS, 0.0, 80.0))
    assert len(extended.records) == len(fresh.records)
    for a, b in zip(extended.ordinates(), fresh.ordinates()):
        assert a == pytest.approx(b, abs=1e-10)


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path / "cachetest"))
    assert str(cache_dir()) == str(tmp_path / "cachetest")
    ds = cached_dataset(FunctionId.XI, 30.0)
    assert len(ds.records) == 3  # zeros at 14.13, 21.02, 25.01
    # two calls hit the same file and agree exactly
    ds2 = cached_dataset(FunctionId.XI, 30.0)
    assert [r.t_or_x for r in ds.records] == [r.t_or_x for r in ds2.records]


def test_cache_key_keeps_every_digit_of_t_max(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    cached_dataset(FunctionId.XI, 30.0)
    cached_dataset(FunctionId.XI, 30.00001)  # "30" under the :g format
    assert len(list(tmp_path.glob("*.csv"))) == 2


def test_cached_ordinates_reload_only_changed_files(tmp_path, monkeypatch, small_ds):
    loads = []
    real = datasets.load_dataset
    monkeypatch.setattr(datasets, "load_dataset", lambda p: loads.append(p) or real(p))

    def rewrite(path, drop):
        cut = small_ds.records[:-2 - drop] + small_ds.records[-2:]  # keep the real-axis records
        cut = [dataclasses.replace(r, index=i + 1) for i, r in enumerate(cut)]
        save_dataset(ZeroDataset(small_ds.function, cut, small_ds.t_max_scanned), path)

    n = len(small_ds.ordinates())
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path / "a"))
    cached_dataset(FunctionId.T_MINUS, 60.0, include_real_axis=True)
    (path,) = (tmp_path / "a").glob("*.csv")
    # two calls make one load
    assert len(cached_ordinates(FunctionId.T_MINUS, 60.0, True)[0]) == n
    assert len(cached_ordinates(FunctionId.T_MINUS, 60.0, True)[0]) == n
    assert len(loads) == 1
    # rewriting the dataset reloads it
    rewrite(path, 1)
    assert len(cached_ordinates(FunctionId.T_MINUS, 60.0, True)[0]) == n - 1
    assert len(loads) == 2
    # another cache directory never gets this one's arrays
    (tmp_path / "b").mkdir()
    rewrite(tmp_path / "b" / path.name, 2)
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path / "b"))
    assert len(cached_ordinates(FunctionId.T_MINUS, 60.0, True)[0]) == n - 2
    assert len(loads) == 3


def test_cache_never_serves_another_kernel(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    stale = ZeroDataset(FunctionId.XI, [], 30.0)
    save_dataset(stale, tmp_path / "xi_t30.0_sauto_cl.csv")  # the name before kernels were tagged
    with monkeypatch.context() as m:
        m.setattr(datasets, "KERNEL", datasets.KERNEL - 1)
        save_dataset(stale, datasets._cache_path(FunctionId.XI, 30.0, None, False))
    path = datasets._cache_path(FunctionId.XI, 30.0, None, False)
    assert path.name.endswith(f"_v{zetasums.__version__}k{datasets.KERNEL}.csv")
    assert len(cached_dataset(FunctionId.XI, 30.0).records) == 3
    assert len(load_dataset(path).records) == 3


def test_corrupt_cache_file_warns_and_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    ds = cached_dataset(FunctionId.XI, 30.0)
    (path,) = tmp_path.glob("*.csv")
    path.write_text(path.read_text().replace("14.13", "14.14", 1))
    with pytest.warns(CacheWarning, match="checksum mismatch"):
        again = cached_dataset(FunctionId.XI, 30.0)
    assert [r.t_or_x for r in again.records] == [r.t_or_x for r in ds.records]
    assert len(load_dataset(path).records) == 3  # the rebuild was saved


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, small_ds):
    path = tmp_path / "tm.csv"

    def disk_full(*args, **kwargs):
        raise OSError("no space left on device")

    # the CSV is written, the manifest fails: nothing reaches the target
    monkeypatch.setattr(datasets.json, "dump", disk_full)
    with pytest.raises(OSError):
        save_dataset(small_ds, path)
    assert list(tmp_path.iterdir()) == []
    # over an existing dataset, the old files stay whole
    monkeypatch.undo()
    save_dataset(small_ds, path)
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    monkeypatch.setattr(datasets.json, "dump", disk_full)
    with pytest.raises(OSError):
        save_dataset(ZeroDataset(small_ds.function, [], 1.0), path)
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
