"""Dataset persistence: round-trip, checksums, schema validation, caching."""

import json
import warnings

import numpy as np
import pytest

import zetasums
from zetasums import datasets
from zetasums.datasets import (
    cache_dir,
    cached_dataset,
    cached_ordinates,
    dataset_rows,
    load_dataset,
    save_dataset,
)
from zetasums.errors import CacheWarning, ChecksumError, DomainError, SchemaError
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
    assert len(back) == len(small_ds)
    for a, b in zip(dataset_rows(back), dataset_rows(small_ds)):
        assert a[3] == b[3]  # exact: repr round-trips binary floats
        assert a[2] == b[2]


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


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path / "cachetest"))
    assert str(cache_dir()) == str(tmp_path / "cachetest")
    ds = cached_dataset(FunctionId.XI, 30.0)
    assert len(ds) == 3  # zeros at 14.13, 21.02, 25.01
    # two calls hit the same file and agree exactly
    ds2 = cached_dataset(FunctionId.XI, 30.0)
    assert [r[3] for r in dataset_rows(ds)] == [r[3] for r in dataset_rows(ds2)]


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
        n = small_ds.line.size - drop  # keep the real-axis zeros
        residuals = np.concatenate((small_ds.residuals[:n], small_ds.residuals[-2:]))
        cut = ZeroDataset(small_ds.function, line=small_ds.line[:n], real=small_ds.real,
                          residuals=residuals, t_max_scanned=small_ds.t_max_scanned)
        save_dataset(cut, path)

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


def test_real_axis_zeros_only_for_a_function_that_has_them(tmp_path, monkeypatch):
    # T_minus's real zeros used to be appended to any dataset, and cached
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    with pytest.raises(DomainError):
        cached_dataset(FunctionId.XI, 20.0, include_real_axis=True)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(DomainError):
        with_real_axis_records(scan_zeros(FunctionId.T_PLUS, 0.0, 20.0))


def test_cache_never_serves_another_kernel(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    stale = ZeroDataset(FunctionId.XI, t_max_scanned=30.0)
    save_dataset(stale, tmp_path / "xi_t30.0_sauto_cl.csv")  # the name before kernels were tagged
    with monkeypatch.context() as m:
        m.setattr(datasets, "KERNEL", datasets.KERNEL - 1)
        save_dataset(stale, datasets._cache_path(FunctionId.XI, 30.0, None, False))
    path = datasets._cache_path(FunctionId.XI, 30.0, None, False)
    assert path.name.endswith(f"_v{zetasums.__version__}k{datasets.KERNEL}.csv")
    assert len(cached_dataset(FunctionId.XI, 30.0)) == 3
    assert len(load_dataset(path)) == 3


def test_corrupt_cache_file_warns_and_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    ds = cached_dataset(FunctionId.XI, 30.0)
    (path,) = tmp_path.glob("*.csv")
    path.write_text(path.read_text().replace("14.13", "14.14", 1))
    with pytest.warns(CacheWarning, match="checksum mismatch"):
        again = cached_dataset(FunctionId.XI, 30.0)
    assert [r[3] for r in dataset_rows(again)] == [r[3] for r in dataset_rows(ds)]
    assert len(load_dataset(path)) == 3  # the rebuild was saved


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
        save_dataset(ZeroDataset(small_ds.function, t_max_scanned=1.0), path)
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_rows_out_of_kind_order_are_refused(tmp_path, small_ds):
    path = tmp_path / "tm.csv"
    manifest = save_dataset(small_ds, path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    rows = [rows[-1]] + rows[:-1]  # a real-axis row first
    for i, row in enumerate(rows, 1):
        row[1] = str(i)
    path.write_text("\r\n".join(",".join(r) for r in [header] + rows) + "\r\n")
    mpath = path.with_suffix(".csv.manifest.json")
    meta = json.loads(mpath.read_text())
    meta["checksum"] = datasets._checksum(meta["function"], meta["t_max"], rows)
    mpath.write_text(json.dumps(meta))
    assert meta["count"] == manifest.count
    with pytest.raises(SchemaError, match="rows must be"):
        load_dataset(path)


def test_manifest_height_is_checksummed(tmp_path, monkeypatch):
    # a t_max edited from 100 to 30 used to load, and moved the anchored tail
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    ds = cached_dataset(FunctionId.XI, 100.0)
    (mpath,) = tmp_path.glob("*.manifest.json")
    mpath.write_text(mpath.read_text().replace('"t_max": 100.0', '"t_max": 30.0'))
    with pytest.raises(ChecksumError):
        load_dataset(mpath.with_name(mpath.name.removesuffix(".manifest.json")))
    with pytest.warns(CacheWarning, match="checksum mismatch"):
        again = cached_dataset(FunctionId.XI, 100.0)
    assert again.t_max_scanned == ds.t_max_scanned == 100.0
    assert json.loads(mpath.read_text())["t_max"] == 100.0  # the rebuild was saved


def test_old_schema_cache_file_warns_once_and_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    ds = cached_dataset(FunctionId.XI, 30.0)
    (mpath,) = tmp_path.glob("*.manifest.json")
    meta = json.loads(mpath.read_text())
    mpath.write_text(json.dumps({**meta, "schema_version": 1}))
    with pytest.warns(CacheWarning, match="unsupported schema_version 1"):
        again = cached_dataset(FunctionId.XI, 30.0)
    assert again.ordinates().tolist() == ds.ordinates().tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cached_dataset(FunctionId.XI, 30.0)


@pytest.mark.parametrize("t_max", [0.0, -5.0])
def test_empty_height_writes_no_cache_file(tmp_path, monkeypatch, t_max):
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    with pytest.raises(DomainError):
        cached_dataset(FunctionId.XI, t_max)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "manifest",
    [
        "{",
        '{"schema_version": 2}',
        "[]",
        lambda meta: json.dumps({**meta, "t_max": "x"}),
    ],
    ids=["truncated", "no-keys", "not-an-object", "t_max-not-a-number"],
)
def test_malformed_manifest_warns_once_and_is_rebuilt(tmp_path, monkeypatch, manifest):
    # each used to escape cached_dataset as a JSONDecodeError, KeyError,
    # AttributeError or ValueError
    monkeypatch.setenv("ZETASUMS_CACHE_DIR", str(tmp_path))
    ds = cached_dataset(FunctionId.XI, 30.0)
    (mpath,) = tmp_path.glob("*.manifest.json")
    meta = json.loads(mpath.read_text())
    mpath.write_text(manifest(meta) if callable(manifest) else manifest)
    with pytest.raises(SchemaError, match="malformed manifest"):
        load_dataset(mpath.with_name(mpath.name.removesuffix(".manifest.json")))
    with pytest.warns(CacheWarning, match="malformed manifest") as record:
        again = cached_dataset(FunctionId.XI, 30.0)
    assert len(record) == 1
    assert dataset_rows(again) == dataset_rows(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cached_dataset(FunctionId.XI, 30.0)
