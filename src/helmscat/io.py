"""On-disk formats: HSF1 field binaries, measurement/history/bench CSVs,
and the flat key=value run configuration."""

from __future__ import annotations

import csv
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

_MAGIC = b"HSF1"

# key -> (type, required-by commands, default)
_SCHEMA = {
    "side_length_cm": (float, {"simulate", "reconstruct", "bench"}, None),
    "grid_points": (int, {"simulate", "reconstruct", "bench"}, None),
    "wavelength_cm": (float, {"simulate", "reconstruct", "bench"}, None),
    "eta_b": (float, set(), 1.0),
    "abl_points": (int, set(), 0),
    "beta": (float, set(), 0.0),
    "mg_levels": (int, set(), 2),
    "nu1": (int, set(), 1),
    "nu2": (int, set(), 1),
    "omega_s": (float, set(), 0.8),
    "cycle_type": (int, set(), 1),
    "solver_tol": (float, set(), 1e-6),
    "solver_max_iter": (int, set(), 500),
    "model": (str, set(), "mgh"),
    "num_views": (int, {"simulate", "reconstruct"}, None),
    "num_sensors": (int, {"simulate", "reconstruct"}, None),
    "sensor_radius_cm": (float, {"simulate", "reconstruct"}, None),
    "active_sensors": (int, set(), 0),
    "scene": (str, set(), "disk"),
    "disk_radius_cm": (float, set(), 0.0),
    "disk_eta": (float, set(), 1.0),
    "phantom_disks": (str, set(), ""),
    "scene_file": (str, set(), ""),
    "measurements_file": (str, {"reconstruct"}, None),
    "ground_truth_file": (str, set(), ""),
    "gamma": (float, {"reconstruct"}, None),
    "tau": (float, {"reconstruct"}, None),
    "iterations": (int, {"reconstruct"}, None),
    "subset_size": (int, set(), 0),
    "seed": (int, set(), 0),
    "inner_prox_iterations": (int, set(), 50),
    "contrast_list": (str, set(), ""),
    "radius_list_lambda": (str, set(), ""),
    "bench_models": (str, set(), "lis,mgh"),
}


class ConfigError(ValueError):
    pass


def parse_config(path: str | Path, command: str) -> SimpleNamespace:
    """Parse a flat key=value document; unknown keys, non-finite floats and
    missing keys that ``command`` requires are rejected."""
    values = {}
    text = Path(path).read_text()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        caster = _SCHEMA[key][0]
        try:
            values[key] = caster(val)
        except ValueError:
            raise ConfigError(
                f"line {ln}: cannot parse {val!r} as {caster.__name__}"
            ) from None
        if caster is float and not np.isfinite(values[key]):
            raise ConfigError(f"line {ln}: {key} must be finite, got {val!r}")
    for key, (_, required_by, default) in _SCHEMA.items():
        if key in values:
            continue
        if command in required_by:
            raise ConfigError(f"missing required key {key!r}")
        values[key] = default
    return SimpleNamespace(**values)


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def write_field(path: str | Path, arr: np.ndarray):
    """HSF1 binary: magic, little-endian u32 rows, u32 cols, u8 kind
    (0 = real float64, 1 = complex interleaved float64), row-major payload."""
    arr = np.ascontiguousarray(arr)
    if arr.ndim != 2:
        raise ValueError("field must be 2-D")
    if np.iscomplexobj(arr):
        kind = 1
        payload = arr.astype(np.complex128)
        raw = np.empty(arr.shape + (2,), dtype="<f8")
        raw[..., 0] = payload.real
        raw[..., 1] = payload.imag
        body = raw.tobytes()
    else:
        kind = 0
        body = arr.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIB", arr.shape[0], arr.shape[1], kind))
        fh.write(body)


def read_field(path: str | Path) -> np.ndarray:
    """Inverse of :func:`write_field`.  Raises ``ValueError`` naming the
    file on a wrong magic, a truncated header, an unknown kind, or a body
    whose length does not match the header."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not an HSF1 field file")
        header = fh.read(9)
        if len(header) != 9:
            raise ValueError(f"{path}: truncated HSF1 header "
                             f"({len(header)} of 9 bytes)")
        rows, cols, kind = struct.unpack("<IIB", header)
        body = fh.read()
    if kind not in (0, 1):
        raise ValueError(f"{path}: unknown field kind {kind}")
    size = rows * cols * 8 * (1 + kind)
    if len(body) != size:
        raise ValueError(f"{path}: HSF1 body has {len(body)} bytes, the "
                         f"{rows}x{cols} header needs {size}")
    raw = np.frombuffer(body, dtype="<f8")
    if kind == 0:
        return raw.reshape(rows, cols).copy()
    raw = raw.reshape(rows, cols, 2)
    return raw[..., 0] + 1j * raw[..., 1]


def _fmt(x) -> str:
    # repr of a Python float is the shortest round-trip representation
    return repr(float(x))


def write_measurements_csv(path: str | Path, geometry, views: list[np.ndarray]):
    """One row per active sensor per view, header view,sensor,re,im.
    Raises ``ValueError``, before the file is opened, when the number of
    views or a view's number of values does not match the geometry."""
    if len(views) != geometry.num_views:
        raise ValueError(f"{len(views)} measurement views for a geometry "
                         f"of {geometry.num_views}")
    for q, y in enumerate(views):
        count = int(np.count_nonzero(geometry.active[q]))
        if len(y) != count:
            raise ValueError(f"view {q}: {len(y)} values for {count} "
                             f"active sensors")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["view", "sensor", "re", "im"])
        for q, y in enumerate(views):
            sensor_ids = np.flatnonzero(geometry.active[q])
            for sid, val in zip(sensor_ids, y):
                w.writerow([q, sid, _fmt(val.real), _fmt(val.imag)])


def read_measurements_csv(path: str | Path, geometry):
    """Inverse of :func:`write_measurements_csv`.  Raises ``ValueError``
    on a missing column, an unparsable value, a view or sensor index out
    of range, a row for a sensor that is not active in its view, a
    duplicate row, or a missing active sensor."""
    from .forward import MeasurementSet
    num_views, num_sensors = geometry.active.shape
    per_view = {q: {} for q in range(num_views)}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"view", "sensor", "re", "im"} - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            ln = reader.line_num
            try:
                q, sid = int(row["view"]), int(row["sensor"])
                val = float(row["re"]) + 1j * float(row["im"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}, line {ln}: cannot parse "
                                 f"{list(row.values())}") from None
            if not 0 <= q < num_views:
                raise ValueError(f"{path}, line {ln}: view {q} out of range "
                                 f"[0, {num_views})")
            if not 0 <= sid < num_sensors:
                raise ValueError(f"{path}, line {ln}: sensor {sid} out of "
                                 f"range [0, {num_sensors})")
            if not geometry.active[q, sid]:
                raise ValueError(f"{path}, line {ln}: sensor {sid} is not "
                                 f"active in view {q}")
            if sid in per_view[q]:
                raise ValueError(f"{path}, line {ln}: duplicate row for "
                                 f"view {q}, sensor {sid}")
            per_view[q][sid] = val
    views = []
    for q in range(num_views):
        sensor_ids = np.flatnonzero(geometry.active[q])
        missing = [int(s) for s in sensor_ids if s not in per_view[q]]
        if missing:
            raise ValueError(f"view {q}: missing sensors {missing[:5]}")
        views.append(np.array([per_view[q][s] for s in sensor_ids]))
    return MeasurementSet(views)


def write_rows_csv(path: str | Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
