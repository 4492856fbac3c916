"""Persistence, caching, and integrity of zero datasets.

A dataset is a CSV with one row per zero (dataset_rows, the only producer
of the row format) plus a JSON sidecar manifest carrying a checksum of the
function, the scanned height and the rows. Floats are written in shortest
round-trip form so save/load is bit-identical. Both files are written whole
or not at all, and cache file names carry the kernel that wrote them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .errors import CacheWarning, ChecksumError, DomainError, SchemaError
from .special import SPECS, FunctionId
from .zeros import ZeroDataset, scan_zeros, with_real_axis_records

# 2: the checksum covers the function and t_max as well as the rows;
# 3: four columns, a row holds its zero and nothing else
SCHEMA_VERSION = 3
HEADER = ("function", "index", "kind", "t_or_x")
CRITICAL_LINE = "critical_line"
REAL_AXIS = "real_axis"
CACHE_ENV = "ZETASUMS_CACHE_DIR"
# Zero-finding kernel number, in every cache file name with the package
# version: a change that can move a written ordinate bumps it, so that no
# file written by an older kernel is served. 2: separable scan grid;
# 3: term-table Bernoulli corrections and Lanczos sum; 4: Taylor-jet
# refinement; 5: one table of Taylor jets per scan chunk, for its grid
# points and its refinement; 6: brackets start from the chunk's jet values,
# with no pointwise re-read of their ends; 7: long-double anchor phases in
# the jets, inverse-cubic bracket starts and a regula falsi end point;
# 8: per-point Euler-Maclaurin cutoffs, fewer terms below |Im s| ~ 37.
KERNEL = 8


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


def dataset_rows(ds: ZeroDataset) -> List[Tuple[str, int, str, float]]:
    """The rows of ds under HEADER: line zeros, then real-axis zeros, with
    1-based ordinals."""
    kinds = [CRITICAL_LINE] * ds.line.size + [REAL_AXIS] * ds.real.size
    columns = zip(kinds, np.concatenate((ds.line, ds.real)).tolist())
    return [(ds.function.value, i, *row) for i, row in enumerate(columns, 1)]


def _checksum(function: str, t_max: float, rows) -> str:
    h = hashlib.sha256(f"{function},{float(t_max)!r}\n".encode())
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
    rows = [[str(v) for v in row] for row in dataset_rows(ds)]
    manifest = DatasetManifest(
        function=ds.function,
        count=len(rows),
        t_max=ds.t_max_scanned,
        checksum=_checksum(ds.function.value, ds.t_max_scanned, rows),
        generator_metadata=ds.generator_metadata,
        schema_version=SCHEMA_VERSION,
    )
    temps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in (path, mpath)]
    try:
        with open(temps[0], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(HEADER)
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

    Raises SchemaError for a missing, unreadable or mismatched manifest or
    rows out of order (ordinals, kinds or ordinates); ChecksumError if the
    function, the height or the rows were modified.
    """
    path = Path(path)
    mpath = _manifest_path(path)
    if not mpath.exists():
        raise SchemaError(
            f"missing manifest {mpath}; datasets must be written by save_dataset"
        )
    try:
        with open(mpath) as fh:
            meta = json.load(fh)
        if meta.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {meta.get('schema_version')}")
        name, t_max, count = meta["function"], float(meta["t_max"]), meta["count"]
        checksum, metadata = meta["checksum"], meta["generator_metadata"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"malformed manifest {mpath}: {exc!r}") from exc
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(HEADER):
            raise SchemaError(f"unexpected CSV header {header}")
        rows = list(reader)
    if _checksum(name, t_max, rows) != checksum:
        raise ChecksumError(f"checksum mismatch for {path}")
    if len(rows) != count:
        raise SchemaError("manifest count does not match the row count")
    function = FunctionId(name)
    if any(len(row) != len(HEADER) or row[0] != function.value for row in rows):
        raise SchemaError(f"malformed row, or a row of another function than {function.value}")
    _, ordinals, kinds, points = zip(*rows) if rows else [()] * len(HEADER)
    if ordinals != tuple(map(str, range(1, len(rows) + 1))):
        raise SchemaError("row ordinals must be consecutive starting at 1")
    n = kinds.count(CRITICAL_LINE)
    if kinds != (CRITICAL_LINE,) * n + (REAL_AXIS,) * (len(rows) - n):
        raise SchemaError(f"rows must be {CRITICAL_LINE} rows, then {REAL_AXIS} rows")
    points = np.array(points, dtype=float)
    if not np.all(np.diff(points[:n]) > 0.0):
        raise SchemaError("critical-line ordinates out of order")
    return ZeroDataset(
        function,
        line=points[:n],
        real=points[n:],
        t_max_scanned=t_max,
        generator_metadata=metadata,
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


# Per cache file: the bytes of its CSV and manifest, and the set parsed
# from them or saved as them.
_DATASETS: dict = {}


def _contents(path: Path) -> Optional[Tuple[bytes, bytes]]:
    """The bytes of the CSV at path and of its manifest; None if either is missing."""
    try:
        return path.read_bytes(), _manifest_path(path).read_bytes()
    except FileNotFoundError:
        return None


def cached_dataset(
    f: FunctionId,
    t_max: float,
    grid_step: Optional[float] = None,
    include_real_axis: bool = False,
) -> ZeroDataset:
    """Scan-once-then-reuse helper keyed by the whole request: function, t_max,
    step, flag, and the kernel. A cache file that fails its checks warns
    CacheWarning and is rebuilt. include_real_axis for a function with no
    real-axis zeros, or a t_max that is not positive and finite, raises
    DomainError before any file is read or written.

    Memoized per cache file on the bytes of the CSV and its manifest: every
    call reads both, and while they hold the bytes the set was parsed from
    or saved as, it returns that same read-only set; a changed byte is
    loaded, or rebuilt, as above. Another cache directory is another file."""
    f = FunctionId(f)
    if not 0.0 < t_max < np.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if include_real_axis and not SPECS[f].real_axis:
        raise DomainError(f"{f.value} has no real-axis zeros")
    path = _cache_path(f, t_max, grid_step, include_real_axis)
    held = _contents(path)
    memo = _DATASETS.get(path)
    if memo is not None and memo[0] == held:  # no entry is filed under None
        return memo[1]
    ds = None
    if path.exists():
        try:
            ds = load_dataset(path)
        except (ChecksumError, SchemaError) as exc:
            warnings.warn(f"rebuilding corrupt cache file {path}: {exc}", CacheWarning)
    if ds is None:
        ds = scan_zeros(f, 0.0, t_max, grid_step)
        if include_real_axis:
            ds = with_real_axis_records(ds)
        save_dataset(ds, path)
        held = _contents(path)  # the bytes ds was saved as
    elif _contents(path) != held:
        return ds  # the files changed around the parse: file ds under neither version
    if held is not None:
        _DATASETS[path] = (held, ds)
    return ds


def default_dataset(f: FunctionId) -> ZeroDataset:
    """cached_dataset at the default height of f, with its real-axis zeros if it has them."""
    return cached_dataset(f, SPECS[f].t_max, None, bool(SPECS[f].real_axis))
