"""On-disk formats: HSF1 field binaries, measurement/history/bench CSVs,
and the flat key=value run configuration."""

from __future__ import annotations

import csv
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .forward import (HelmholtzForward, LisForward, MeasurementSet,
                      SolverConfig, _check_measurement_count)
from .inverse import ReconstructionConfig

_MAGIC = b"HSF1"
_KINDS = ("<f8", "<c16")  # HSF1 kind byte -> payload dtype


class ConfigError(ValueError):
    pass


def _items(text: str, sep: str = ",") -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(sep) if tok.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _items(text))


def _disks(text: str) -> tuple[tuple[float, ...], ...]:
    """``;``-separated ``x,y,radius,eta`` entries."""
    disks = []
    for entry in _items(text, ";"):
        try:
            disk = _floats(entry)
        except ValueError:
            disk = ()
        if (len(disk) != 4 or not np.all(np.isfinite(disk))
                or min(disk[2:]) <= 0.0):
            raise ConfigError(f"entry {entry!r} must be four finite numbers "
                              f"x,y,radius,eta, radius and eta above 0")
        disks.append(disk)
    return tuple(disks)


def _choice(*names: str):
    """Parser of a value that must be one of ``names``."""
    listed = f"{', '.join(names[:-1])} or {names[-1]}"

    def parse(text: str) -> str:
        if text not in names:
            raise ConfigError(f"must be {listed}, got {text!r}")
        return text
    return parse


# model name -> forward model: multigrid Helmholtz or Lippmann-Schwinger
_MODELS = {"mgh": HelmholtzForward, "lis": LisForward}
_model = _choice(*_MODELS)

# solver config key -> the SolverConfig field it sets and defaults to
_SOLVER_KEYS = {"abl_points": "abl_points", "beta": "beta",
                "mg_levels": "levels", "nu1": "nu1", "nu2": "nu2",
                "omega_s": "omega", "cycle_type": "cycle_type",
                "solver_tol": "tol", "solver_max_iter": "max_iter"}


def _optional(default) -> tuple:
    """Schema entry of an optional key parsed by its default's type."""
    return type(default), set(), default


# key -> (type or list parser, required-by commands, default)
_SCHEMA = {
    "side_length_cm": (float, {"simulate", "reconstruct", "bench"}, None),
    "grid_points": (int, {"simulate", "reconstruct", "bench"}, None),
    "wavelength_cm": (float, {"simulate", "reconstruct", "bench"}, None),
    "eta_b": (float, set(), 1.0),
    **{key: _optional(getattr(SolverConfig, name))
       for key, name in _SOLVER_KEYS.items()},
    "model": (_model, set(), "mgh"),
    "num_views": (int, {"simulate", "reconstruct"}, None),
    "num_sensors": (int, {"simulate", "reconstruct"}, None),
    "sensor_radius_cm": (float, {"simulate", "reconstruct"}, None),
    "active_sensors": (int, set(), 0),
    "scene": (_choice("disk", "phantom", "file"), set(), "disk"),
    "disk_radius_cm": (float, set(), 0.0),
    "disk_eta": (float, set(), 1.0),
    "phantom_disks": (_disks, set(), ()),
    "scene_file": (str, set(), ""),
    "measurements_file": (str, {"reconstruct"}, None),
    "ground_truth_file": (str, set(), ""),
    "gamma": (float, {"reconstruct"}, None),
    "tau": (float, {"reconstruct"}, None),
    "iterations": (int, {"reconstruct"}, None),
    "subset_size": (int, set(), 0),
    "seed": _optional(ReconstructionConfig.seed),
    "inner_prox_iterations": _optional(
        ReconstructionConfig.inner_prox_iterations),
    "contrast_list": (_floats, set(), ()),
    "radius_list_lambda": (_floats, set(), ()),
    "bench_models": (lambda text: tuple(map(_model, _items(text))), set(),
                     tuple(sorted(_MODELS))),
}


def parse_config(path: str | Path, command: str) -> SimpleNamespace:
    """Parse a flat key=value document, list keys into tuples; ``#``
    starts a comment anywhere on a line, so no value holds one.  Unknown
    keys, non-finite floats and missing keys ``command`` requires are
    rejected."""
    values = {}
    text = Path(path).read_text()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
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
        except ConfigError as exc:
            raise ConfigError(f"line {ln}: {key} {exc}") from None
        except ValueError:
            raise ConfigError(f"line {ln}: cannot parse {key} value {val!r}"
                              ) from None
        if caster in (float, _floats) and not np.all(np.isfinite(values[key])):
            raise ConfigError(f"line {ln}: {key} must be finite, got {val!r}")
    for key, (_, required_by, default) in _SCHEMA.items():
        if key in values:
            continue
        if command in required_by:
            raise ConfigError(f"missing required key {key!r}")
        values[key] = default
    return SimpleNamespace(**values)


def write_field(path: str | Path, arr: np.ndarray):
    """HSF1 binary: magic, little-endian u32 rows, u32 cols, u8 kind
    (0 = real ``<f8``, 1 = complex ``<c16``), row-major payload."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("field must be 2-D")
    kind = int(np.iscomplexobj(arr))
    body = arr.astype(_KINDS[kind]).tobytes()
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
    return np.frombuffer(body, dtype=_KINDS[kind]).reshape(rows, cols).copy()


def write_measurements_csv(path: str | Path, geometry, views: list[np.ndarray]):
    """One row per active sensor per view, header view,sensor,re,im, written
    by :func:`write_rows_csv`.  Raises ``ValueError``, before the file is
    opened, when the number of views or a view's number of values does not
    match the geometry."""
    if len(views) != geometry.num_views:
        raise ValueError(f"{len(views)} measurement views for a geometry "
                         f"of {geometry.num_views}")
    for q, y in enumerate(views):
        _check_measurement_count(geometry, q, y)
    # float(): a complex64 view's parts are np.float32, not float
    write_rows_csv(path, ["view", "sensor", "re", "im"],
                   ([q, sid, float(val.real), float(val.imag)]
                    for q, y in enumerate(views)
                    for sid, val in zip(np.flatnonzero(geometry.active[q]), y)))


def read_measurements_csv(path: str | Path, geometry):
    """Inverse of :func:`write_measurements_csv`.  Raises ``ValueError``
    on a missing column, an unparsable or non-finite value, a view or
    sensor index out of range, a row for a sensor that is not active in its
    view, a duplicate row, or a missing active sensor."""
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
            if not np.isfinite(val):
                raise ValueError(f"{path}, line {ln}: non-finite value re "
                                 f"= {row['re']}, im = {row['im']}")
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


def write_rows_csv(path: str | Path, header: list[str], rows):
    """The package's one CSV writer: ``header``, then each of the iterable
    ``rows``, a ``float`` as its shortest round-trip ``repr`` and any other
    value as ``csv`` writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v
                        for v in row])
