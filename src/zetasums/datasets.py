"""Persistence, caching, and integrity of zero datasets.

A dataset is a CSV of records plus a JSON sidecar manifest carrying a
checksum of the record stream. Floats are written in shortest round-trip
form so save/load is bit-identical. Both files are written whole or not at
all, and cache file names carry the kernel that wrote them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import CacheWarning, ChecksumError, DomainError, SchemaError
from .special import SPECS, FunctionId
from .zeros import (
    CRITICAL_LINE,
    REAL_AXIS,
    ZeroDataset,
    ZeroRecord,
    scan_zeros,
    with_real_axis_records,
)

SCHEMA_VERSION = 1
_HEADER = ["function", "index", "kind", "t_or_x", "residual"]
CACHE_ENV = "ZETASUMS_CACHE_DIR"
# Zero-finding kernel number, in every cache file name with the package
# version: a change that can move a written ordinate bumps it, so that no
# file written by an older kernel is served. 2: separable scan grid;
# 3: term-table Bernoulli corrections and Lanczos sum.
KERNEL = 3


@dataclass(frozen=True)
class DatasetManifest:
    function: FunctionId
    count: int
    t_max: float
    checksum: str
    generator_metadata: str
    schema_version: int


def _manifest_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".manifest.json")


def _record_rows(ds: ZeroDataset):
    for r in ds.records:
        yield [ds.function.value, str(r.index), r.location_kind, repr(r.t_or_x), repr(r.residual)]


def _stream_checksum(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def save_dataset(ds: ZeroDataset, path) -> DatasetManifest:
    """Write the dataset CSV and its sidecar manifest; returns the manifest.

    Both are written to temporary files beside the targets and then moved
    over them, the CSV first, so a write that fails leaves no partial file
    at either path.
    """
    path = Path(path)
    mpath = _manifest_path(path)
    rows = list(_record_rows(ds))
    manifest = DatasetManifest(
        function=ds.function,
        count=len(rows),
        t_max=ds.t_max_scanned,
        checksum=_stream_checksum(rows),
        generator_metadata=ds.generator_metadata,
        schema_version=SCHEMA_VERSION,
    )
    temps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in (path, mpath)]
    try:
        with open(temps[0], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_HEADER)
            w.writerows(rows)
        with open(temps[1], "w") as fh:
            json.dump({**asdict(manifest), "function": manifest.function.value}, fh, indent=2)
            fh.write("\n")
        os.replace(temps[0], path)
        os.replace(temps[1], mpath)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
    return manifest


def load_dataset(path) -> ZeroDataset:
    """Load and validate a dataset written by save_dataset.

    Raises SchemaError for a missing/mismatched manifest, out-of-order or
    duplicate records; ChecksumError if the record stream was modified.
    """
    path = Path(path)
    mpath = _manifest_path(path)
    if not mpath.exists():
        raise SchemaError(
            f"missing manifest {mpath}; datasets must be written by save_dataset"
        )
    with open(mpath) as fh:
        meta = json.load(fh)
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {meta.get('schema_version')}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _HEADER:
            raise SchemaError(f"unexpected CSV header {header}")
        rows = list(reader)
    if _stream_checksum(rows) != meta["checksum"]:
        raise ChecksumError(f"checksum mismatch for {path}")
    if len(rows) != meta["count"]:
        raise SchemaError("manifest count does not match record count")
    function = FunctionId(meta["function"])
    records = []
    prev_t = None
    for row in rows:
        if len(row) != 5 or row[0] != function.value:
            raise SchemaError(f"malformed row {row}")
        rec = ZeroRecord(function, int(row[1]), row[2], float(row[3]), float(row[4]))
        if rec.location_kind not in (CRITICAL_LINE, REAL_AXIS):
            raise SchemaError(f"unknown location kind {rec.location_kind}")
        if rec.location_kind == CRITICAL_LINE:
            if prev_t is not None and rec.t_or_x <= prev_t:
                raise SchemaError("critical-line ordinates out of order")
            prev_t = rec.t_or_x
        records.append(rec)
    indices = [r.index for r in records]
    if indices != list(range(1, len(records) + 1)):
        raise SchemaError("record ordinals must be consecutive starting at 1")
    return ZeroDataset(
        function=function,
        records=records,
        t_max_scanned=float(meta["t_max"]),
        generator_metadata=meta["generator_metadata"],
    )


def extend_dataset(ds: ZeroDataset, t_new_max: float) -> ZeroDataset:
    """Continue the scan of ds up to t_new_max; ordinals continue.

    The scan grid is aligned to step multiples, so extending equals a fresh
    scan over the union range.
    """
    if t_new_max < ds.t_max_scanned:
        raise DomainError("t_new_max must not be below the scanned range")
    if t_new_max == ds.t_max_scanned:
        return ds
    cl = [r for r in ds.records if r.location_kind == CRITICAL_LINE]
    ra = [r for r in ds.records if r.location_kind == REAL_AXIS]
    more = scan_zeros(ds.function, ds.t_max_scanned, t_new_max)
    known = {round(r.t_or_x, 9) for r in cl}
    new_cl = [r for r in more.records if round(r.t_or_x, 9) not in known]
    records = []
    idx = 0
    for r in cl + new_cl:
        idx += 1
        records.append(ZeroRecord(ds.function, idx, CRITICAL_LINE, r.t_or_x, r.residual))
    for r in ra:
        idx += 1
        records.append(ZeroRecord(ds.function, idx, REAL_AXIS, r.t_or_x, r.residual))
    return ZeroDataset(
        function=ds.function,
        records=records,
        t_max_scanned=more.t_max_scanned,
        generator_metadata=ds.generator_metadata + f" extended to {t_new_max}",
    )


def cache_dir() -> Path:
    """Dataset cache directory; override with the ZETASUMS_CACHE_DIR env var."""
    root = os.environ.get(CACHE_ENV)
    if root is None:
        root = os.path.join(os.path.expanduser("~"), ".cache", "zetasums")
    p = Path(root)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _cache_path(f: FunctionId, t_max: float, grid_step, include_real_axis: bool) -> Path:
    tag = "ra" if include_real_axis else "cl"
    step = grid_step if grid_step is not None else "auto"
    # repr keeps every digit: t_max values that differ must not share a file
    name = f"{FunctionId(f).value}_t{float(t_max)!r}_s{step}_{tag}_v{__version__}k{KERNEL}.csv"
    return cache_dir() / name


def cached_dataset(
    f: FunctionId,
    t_max: float,
    grid_step: Optional[float] = None,
    include_real_axis: bool = False,
) -> ZeroDataset:
    """Scan-once-then-reuse helper keyed by the whole request: function, t_max,
    step, flag, and the kernel. A cache file that fails its checks warns
    CacheWarning and is rebuilt. include_real_axis for a function with no
    real-axis zeros raises DomainError before any file is read or written."""
    f = FunctionId(f)
    if include_real_axis and not SPECS[f].real_axis:
        raise DomainError(f"{f.value} has no real-axis zeros")
    path = _cache_path(f, t_max, grid_step, include_real_axis)
    if path.exists():
        try:
            return load_dataset(path)
        except (ChecksumError, SchemaError) as exc:
            warnings.warn(f"rebuilding corrupt cache file {path}: {exc}", CacheWarning)
    ds = scan_zeros(f, 0.0, t_max, grid_step)
    if include_real_axis:
        ds = with_real_axis_records(ds)
    save_dataset(ds, path)
    return ds


def default_dataset(f: FunctionId) -> ZeroDataset:
    """cached_dataset at the default height of f, with its real-axis zeros if it has them."""
    return cached_dataset(f, SPECS[f].t_max, None, SPECS[f].real_axis)


_ORDINATES: dict = {}


def cached_ordinates(f: FunctionId, t_max: float, include_real_axis: bool = False):
    """(ordinates(), t_max_scanned) of cached_dataset(f, t_max, None, include_real_axis).

    Memoized per cache file: the file is read again, through load_dataset
    and its checksum, only when the CSV or its manifest changed on disk
    (st_mtime_ns or st_size); another cache directory is another file.
    """
    path = _cache_path(f, t_max, None, include_real_axis)

    def stamp():
        try:
            return [(st.st_mtime_ns, st.st_size) for st in map(os.stat, (path, _manifest_path(path)))]
        except FileNotFoundError:
            return None

    before = stamp()
    memo = _ORDINATES.get(path)
    if before is None or memo is None or memo[0] != before:
        ds = cached_dataset(f, t_max, None, include_real_axis)
        ordinates = ds.ordinates()
        ordinates.flags.writeable = False  # every caller shares this array
        memo = _ORDINATES[path] = (before or stamp(), (ordinates, ds.t_max_scanned))
    return memo[1]
