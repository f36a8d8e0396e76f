import csv
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from helmscat import ReconstructionConfig, SolverConfig, io
from helmscat.cli import _solver_config, main


# ---------- field binaries ----------

def test_field_round_trip_real(tmp_path):
    path = tmp_path / "a.hsf"
    arr = np.random.default_rng(0).standard_normal((7, 5))
    io.write_field(path, arr)
    back = io.read_field(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_field_round_trip_complex(tmp_path):
    path = tmp_path / "c.hsf"
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    io.write_field(path, arr)
    np.testing.assert_array_equal(io.read_field(path), arr)


def test_field_round_trip_complex_special_values(tmp_path):
    path = tmp_path / "s.hsf"
    arr = np.array([[complex(-0.0, 1.0), complex(1.0, np.inf)],
                    [complex(np.nan, -np.inf), complex(-np.inf, -0.0)]])
    io.write_field(path, arr)
    # the body is the re,im pairs as little-endian float64
    pairs = np.stack([arr.real, arr.imag], axis=-1).astype("<f8")
    assert path.read_bytes()[13:] == pairs.tobytes()
    back = io.read_field(path)
    assert back.dtype == np.complex128
    assert back.tobytes() == arr.tobytes()


def test_field_header(tmp_path):
    path = tmp_path / "h.hsf"
    io.write_field(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:4] == b"HSF1"
    assert raw[4:13] == (2).to_bytes(4, "little") + \
        (3).to_bytes(4, "little") + bytes([0])
    assert len(raw) == 13 + 6 * 8


def test_field_bad_magic(tmp_path):
    path = tmp_path / "bad.hsf"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValueError):
        io.read_field(path)


def test_field_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        io.write_field(tmp_path / "x.hsf", np.zeros(5))


# ---------- configs ----------

def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


BASE = """
side_length_cm = 16.0
grid_points = 17
wavelength_cm = 10.0
num_views = 2
num_sensors = 8
sensor_radius_cm = 40.0
"""


def test_config_defaults_and_comments(tmp_path):
    p = _write(tmp_path, BASE + "# a comment\n\n")
    cfg = io.parse_config(p, "simulate")
    assert cfg.grid_points == 17
    assert cfg.eta_b == 1.0
    assert cfg.omega_s == 0.8
    assert cfg.scene == "disk"


def test_omitted_solver_keys_take_the_config_class_defaults(tmp_path):
    cfg = io.parse_config(_write(tmp_path, BASE), "simulate")
    assert _solver_config(cfg) == SolverConfig()
    assert cfg.seed == ReconstructionConfig.seed
    assert (cfg.inner_prox_iterations
            == ReconstructionConfig.inner_prox_iterations)


def test_solver_keys_name_every_solver_field_once():
    fields = dataclasses.fields(SolverConfig)
    assert sorted(io._SOLVER_KEYS.values()) == sorted(f.name for f in fields)
    # the schema parses each key by its default's type
    for f in fields:
        assert type(f.default).__name__ == f.type, f.name


def test_config_unknown_key(tmp_path):
    p = _write(tmp_path, BASE + "mystery = 3\n")
    with pytest.raises(io.ConfigError, match="unknown key"):
        io.parse_config(p, "simulate")


def test_config_duplicate_key(tmp_path):
    p = _write(tmp_path, BASE + "eta_b = 1.0\neta_b = 2.0\n")
    with pytest.raises(io.ConfigError, match="duplicate"):
        io.parse_config(p, "simulate")


def test_config_missing_required(tmp_path):
    p = _write(tmp_path, "side_length_cm = 16.0\n")
    with pytest.raises(io.ConfigError, match="missing required"):
        io.parse_config(p, "simulate")


def test_config_bad_value(tmp_path):
    p = _write(tmp_path, BASE + "abl_points = four\n")
    with pytest.raises(io.ConfigError, match="cannot parse"):
        io.parse_config(p, "simulate")


def test_config_bad_line(tmp_path):
    p = _write(tmp_path, BASE + "just some words\n")
    with pytest.raises(io.ConfigError, match="key=value"):
        io.parse_config(p, "simulate")


def test_config_list_keys_are_tuples(tmp_path):
    defaults = io.parse_config(_write(tmp_path, BASE), "simulate")
    assert defaults.contrast_list == ()
    assert defaults.radius_list_lambda == ()
    assert defaults.phantom_disks == ()
    assert defaults.bench_models == ("lis", "mgh")
    cfg = io.parse_config(_write(tmp_path, BASE + """
contrast_list = 0.5, 1
radius_list_lambda = 0.5,
phantom_disks = 0,0,4,1.15; 2,1,1.5,1.05;
bench_models = mgh
"""), "simulate")
    assert cfg.contrast_list == (0.5, 1.0)
    assert cfg.radius_list_lambda == (0.5,)
    assert cfg.phantom_disks == ((0.0, 0.0, 4.0, 1.15), (2.0, 1.0, 1.5, 1.05))
    assert cfg.bench_models == ("mgh",)


# ---------- CLI ----------

SIM = BASE + """
abl_points = 4
beta = 0.15
mg_levels = 2
scene = disk
disk_radius_cm = 5.0
disk_eta = 1.2
"""


def test_simulate_runs(tmp_path, capsys):
    cfg = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    assert (out / "measurements.csv").exists()
    rows = (out / "reports.csv").read_text().splitlines()
    assert rows[0] == "view,iterations,converged,final_rel_residual," \
                      "work_units,seconds"
    for line in rows[1:]:
        assert line.split(",")[2] == "1"   # converged
        assert line.split(",")[5] == "0.0"  # timings zeroed by default


def test_simulate_wall_time_shares_the_batch_time(tmp_path):
    cfg = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--wall-time"]) == 0
    rows = (out / "reports.csv").read_text().splitlines()[1:]
    seconds = {line.split(",")[5] for line in rows}
    # all views are solved as one batch, each charged an equal share
    assert len(rows) == 2 and len(seconds) == 1
    assert float(seconds.pop()) > 0.0


def test_simulate_zero_contrast(tmp_path):
    cfg = _write(tmp_path, SIM.replace("disk_eta = 1.2", "disk_eta = 1.0"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    geom_rows = (out / "measurements.csv").read_text().splitlines()[1:]
    for line in geom_rows:
        _, _, re, im = line.split(",")
        assert float(re) == 0.0 and float(im) == 0.0


def test_simulate_measurement_round_trip(tmp_path):
    cfg = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    import helmscat as hs
    rc = io.parse_config(cfg, "simulate")
    geom = hs.make_circular_geometry(rc.num_views, rc.num_sensors,
                                     rc.sensor_radius_cm, rc.wavelength_cm)
    ms = io.read_measurements_csv(out / "measurements.csv", geom)
    assert ms.num_views == 2
    # shortest-round-trip decimals parse back exactly; rewriting the same
    # data is byte-identical
    io.write_measurements_csv(out / "again.csv", geom, ms.views)
    assert (out / "again.csv").read_bytes() == \
        (out / "measurements.csv").read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, SIM.replace("wavelength_cm = 10.0", ""))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    assert not (out / "measurements.csv").exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.usefixtures("multigrid_path")
def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, SIM + "solver_max_iter = 1\nsolver_tol = 1e-14\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 3
    assert not (out / "measurements.csv").exists()
    assert not (out / "reports.csv").exists()


def test_zero_smoother_diagonal_exit_code(tmp_path, capsys):
    # h = 1 and k0 * eta_b = 2: the background diagonal 4/h^2 - (k0 eta_b)^2
    # is 0, and the 91^2 grid takes the multigrid path, whose smoother
    # divides by it
    cfg = _write(tmp_path, """
side_length_cm = 90
grid_points = 91
wavelength_cm = 6.283185307179586
eta_b = 2.0
num_views = 1
num_sensors = 4
sensor_radius_cm = 80
disk_radius_cm = 5
disk_eta = 2.1
""")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "solver failure: operator has a zero diagonal entry\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    cfg = _write(tmp_path, SIM)
    out = tmp_path / "thout"
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(out), "--threads", threads],
                        f"--threads must be at least 1, got {threads}")
    assert not out.exists()


def test_lis_model_simulate(tmp_path):
    cfg = _write(tmp_path, SIM + "model = lis\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    assert (out / "measurements.csv").exists()


def _reconstruct_cfg(tmp_path, meas, iters, extra=""):
    return _write(tmp_path, BASE + f"""
abl_points = 4
mg_levels = 2
measurements_file = {meas}
gamma = 0.05
tau = 0.001
iterations = {iters}
seed = 3
""" + extra, name=f"rec{iters}.cfg")


def test_reconstruct_zero_iterations(tmp_path):
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 0)
    rout = tmp_path / "rout"
    assert main(["reconstruct", "--config", str(rec),
                 "--out-dir", str(rout)]) == 0
    eta = io.read_field(rout / "eta.hsf")
    np.testing.assert_array_equal(eta, 1.0)  # background everywhere
    np.testing.assert_array_equal(io.read_field(rout / "f.hsf"), 0.0)
    hist = (rout / "history.csv").read_text().splitlines()
    assert hist == ["iter,objective,snr_db,work_units,seconds"]


def test_reconstruct_deterministic(tmp_path):
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    main(["simulate", "--config", str(sim), "--out-dir", str(out)])
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 3,
                           extra="subset_size = 1\n")
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["reconstruct", "--config", str(rec),
                 "--out-dir", str(r1)]) == 0
    assert main(["reconstruct", "--config", str(rec),
                 "--out-dir", str(r2)]) == 0
    for name in ["eta.hsf", "f.hsf", "history.csv"]:
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes()


@pytest.mark.parametrize("model, needle", [
    ("lis", "reconstruct requires model = mgh, got lis"),
    ("foo", "line 16: model must be mgh or lis, got 'foo'")])
def test_reconstruct_rejects_models_other_than_mgh(tmp_path, capsys, model,
                                                   needle):
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 2,
                           extra=f"model = {model}\n")
    rout = tmp_path / "rout"
    _assert_input_error(capsys, ["reconstruct", "--config", str(rec),
                                 "--out-dir", str(rout)], needle)
    assert list(rout.glob("*")) == []


@pytest.mark.parametrize("command, line, needle", [
    ("simulate", "model = foo", "model must be mgh or lis, got 'foo'"),
    ("bench", "model = foo", "model must be mgh or lis, got 'foo'"),
    ("simulate", "scene = blob",
     "scene must be disk, phantom or file, got 'blob'"),
    ("bench", "scene = blob",
     "scene must be disk, phantom or file, got 'blob'"),
    ("bench", "bench_models = mgh, foo",
     "bench_models must be mgh or lis, got 'foo'")])
def test_choice_keys_reject_unknown_names(tmp_path, capsys, command, line,
                                         needle):
    key = line.split(" = ")[0]
    lines = [ln for ln in (BENCH if command == "bench" else SIM).splitlines()
             if not ln.startswith(key)] + [line]
    cfg = _write(tmp_path, "\n".join(lines) + "\n")
    out = tmp_path / "cout"
    _assert_input_error(capsys, [command, "--config", str(cfg),
                                 "--out-dir", str(out)],
                        f"line {len(lines)}: {needle}")
    assert list(out.glob("*")) == []


def test_huge_sensor_radius_is_an_input_error(tmp_path, capsys):
    cfg = _write(tmp_path, SIM.replace("sensor_radius_cm = 40.0",
                                       "sensor_radius_cm = 1e200"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                     "--out-dir", str(out)],
                            "sensor radius 1e+200 is too large")
    assert list(out.glob("*")) == []


def test_reconstruct_rejects_oversized_subset(tmp_path, capsys):
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 2,
                           extra="subset_size = 99\n")
    rout = tmp_path / "rout"
    _assert_input_error(capsys, ["reconstruct", "--config", str(rec),
                                 "--out-dir", str(rout)],
                        "subset_size 99 exceeds the 2 views")
    assert not (rout / "eta.hsf").exists()


@pytest.mark.parametrize("iters, extra, needle", [
    (-2, "subset_size = -5\n", "subset_size must be nonnegative"),
    (-2, "", "iterations must be nonnegative"),
    (0, "subset_size = -5\n", "subset_size must be nonnegative"),
    (2, "inner_prox_iterations = -3\n", "inner_prox_iterations must be"),
    (0, "inner_prox_iterations = 0\n", "inner_prox_iterations must be"),
    (0, "subset_size = 99\n", "subset_size 99 exceeds the 2 views"),
])
def test_reconstruct_rejects_negative_counts(tmp_path, capsys, iters, extra,
                                             needle):
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", iters,
                           extra=extra)
    rout = tmp_path / "rout"
    _assert_input_error(capsys, ["reconstruct", "--config", str(rec),
                                 "--out-dir", str(rout)], needle)
    assert not (rout / "eta.hsf").exists()
    assert not (rout / "history.csv").exists()


def test_reconstruct_subset_size_zero_means_all_views(tmp_path):
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    outs = []
    for size in (0, 2):
        rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 2,
                               extra=f"subset_size = {size}\n")
        outs.append(tmp_path / f"r{size}")
        assert main(["reconstruct", "--config", str(rec),
                     "--out-dir", str(outs[-1])]) == 0
    assert ((outs[0] / "f.hsf").read_bytes()
            == (outs[1] / "f.hsf").read_bytes())


def test_seed_override_changes_subsets(tmp_path):
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    main(["simulate", "--config", str(sim), "--out-dir", str(out)])
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 2,
                           extra="subset_size = 1\n")
    r1, r2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["reconstruct", "--config", str(rec), "--out-dir", str(r1),
                 "--seed", "3"]) == 0
    assert main(["reconstruct", "--config", str(rec), "--out-dir", str(r2),
                 "--seed", "5"]) == 0
    # same config seed reproduces; a different override changes the run
    assert (r1 / "history.csv").read_bytes() != \
        (r2 / "history.csv").read_bytes()


def test_bench_single_point(tmp_path):
    cfg = _write(tmp_path, BASE + """
abl_points = 4
beta = 0.15
mg_levels = 2
contrast_list = 0.5
radius_list_lambda = 0.5
bench_models = lis,mgh
""", name="bench.cfg")
    out = tmp_path / "bout"
    assert main(["bench", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    rows = (out / "bench.csv").read_text().splitlines()
    assert rows[0] == ("contrast,radius_lambda,model,iterations,"
                       "wall_seconds,relative_error_vs_analytic")
    assert len(rows) == 3
    for line in rows[1:]:
        err = float(line.split(",")[-1])
        assert err < 0.05


def test_phantom_scene(tmp_path):
    cfg = _write(tmp_path, SIM.replace("scene = disk", "scene = phantom")
                 + "phantom_disks = 0,0,4,1.15; 2,1,1.5,1.05\n")
    out = tmp_path / "pout"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0


def test_scene_file(tmp_path):
    eta = np.ones((17, 17))
    eta[6:10, 6:10] = 1.1
    io.write_field(tmp_path / "eta_in.hsf", eta)
    cfg = _write(tmp_path, SIM.replace("scene = disk", "scene = file")
                 + f"scene_file = {tmp_path / 'eta_in.hsf'}\n")
    out = tmp_path / "fout"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0


# ---------- malformed inputs: exit 2 with a one-line message ----------

def _assert_input_error(capsys, argv, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err
    assert "Traceback" not in err


def _reconstruct_with_rows(tmp_path, edit):
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    meas = out / "measurements.csv"
    lines = meas.read_text().splitlines()
    meas.write_text("\n".join(edit(lines)) + "\n")
    rec = _reconstruct_cfg(tmp_path, meas, 1)
    return ["reconstruct", "--config", str(rec),
            "--out-dir", str(tmp_path / "rout")]


def test_measurements_view_out_of_range(tmp_path, capsys):
    argv = _reconstruct_with_rows(
        tmp_path, lambda lines: lines + ["2,0,1.0,0.0"])
    _assert_input_error(capsys, argv, "view 2 out of range")


def test_measurements_sensor_out_of_range(tmp_path, capsys):
    argv = _reconstruct_with_rows(
        tmp_path, lambda lines: lines + ["0,8,1.0,0.0"])
    _assert_input_error(capsys, argv, "sensor 8 out of range")


def test_measurements_duplicate_row(tmp_path, capsys):
    argv = _reconstruct_with_rows(tmp_path, lambda lines: lines + [lines[3]])
    _assert_input_error(capsys, argv, "duplicate row")


def test_measurements_missing_row(tmp_path, capsys):
    # lines[1] is view 0, sensor 0
    argv = _reconstruct_with_rows(tmp_path,
                                  lambda lines: lines[:1] + lines[2:])
    _assert_input_error(capsys, argv, "view 0: missing sensors [0]")


def test_measurements_unparsable_row(tmp_path, capsys):
    argv = _reconstruct_with_rows(tmp_path, lambda lines: lines + ["1,2"])
    _assert_input_error(capsys, argv, "cannot parse")


@pytest.mark.parametrize("re, im", [("nan", "0.0"), ("1.0", "1e999")])
def test_measurements_non_finite_value(tmp_path, capsys, re, im):
    # lines[1] is view 0, sensor 0
    argv = _reconstruct_with_rows(
        tmp_path, lambda lines: lines[:1] + [f"0,0,{re},{im}"] + lines[2:])
    _assert_input_error(capsys, argv, f"measurements.csv, line 2: "
                                      f"non-finite value re = {re}, im = {im}")
    assert list((tmp_path / "rout").glob("*")) == []


def test_measurements_inactive_sensor(tmp_path):
    import helmscat as hs
    path = tmp_path / "m.csv"
    path.write_text("view,sensor,re,im\n0,0,1.0,0.0\n")
    geom = hs.make_circular_geometry(1, 4, 40.0, 10.0, active_count=2)
    assert not geom.active[0, 0]
    with pytest.raises(ValueError, match="not active"):
        io.read_measurements_csv(path, geom)


def test_scene_file_non_finite(tmp_path, capsys):
    eta = np.ones((17, 17))
    eta[8, 8] = np.nan
    io.write_field(tmp_path / "eta_nan.hsf", eta)
    cfg = _write(tmp_path, SIM.replace("scene = disk", "scene = file")
                 + f"scene_file = {tmp_path / 'eta_nan.hsf'}\n")
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "nout")],
                        "non-finite")


@pytest.mark.parametrize("line", ["num_views = 2", "num_sensors = 8"])
def test_counts_below_one(tmp_path, capsys, line):
    assert line in SIM
    cfg = _write(tmp_path, SIM.replace(line, line[:-1] + "0"))
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "cout")],
                        f"{line.split()[0]} must be at least 1, got 0")


@pytest.mark.parametrize("lengths", [(3, 4), (4, 6), ((4, 2), 4),
                                     ((4, 1), 4)])
def test_write_measurements_rejects_wrong_view_length(tmp_path, lengths):
    import helmscat as hs
    geom = hs.make_circular_geometry(2, 8, 40.0, 10.0, active_count=4)
    views = [np.ones(n, dtype=complex) for n in lengths]
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="values for 4 active sensors"):
        io.write_measurements_csv(path, geom, views)
    assert not path.exists()


def test_write_measurements_bytes(tmp_path):
    # view 1's sensor 1 is inactive; a complex64 view's float32 parts are
    # written as the float64 values they widen to
    from types import SimpleNamespace
    geom = SimpleNamespace(num_views=2, active=np.array(
        [[True, True, True], [True, False, True]]))
    views = [np.array([0.1 + 0.5j, -2.0, 1e-8 - 3.25j], dtype=np.complex64),
             np.array([complex(-0.0, 0.1 + 0.2), 1e300 - 1e-300j])]
    path = tmp_path / "m.csv"
    io.write_measurements_csv(path, geom, views)
    assert path.read_bytes() == (
        b"view,sensor,re,im\r\n"
        b"0,0,0.10000000149011612,0.5\r\n"
        b"0,1,-2.0,0.0\r\n"
        b"0,2,9.99999993922529e-09,-3.25\r\n"
        b"1,0,-0.0,0.30000000000000004\r\n"
        b"1,2,1e+300,-1e-300\r\n")


@pytest.mark.parametrize("count", [1, 3])
def test_write_measurements_rejects_wrong_view_count(tmp_path, count):
    import helmscat as hs
    geom = hs.make_circular_geometry(2, 8, 40.0, 10.0, active_count=4)
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="measurement views"):
        io.write_measurements_csv(path, geom, [np.ones(4)] * count)
    assert not path.exists()


def test_active_sensors_above_num_sensors(tmp_path, capsys):
    cfg = _write(tmp_path, SIM + "active_sensors = 9\n")
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "aout")],
                        "active sensor count 9 out of range [1, 8]")


def test_negative_background_index(tmp_path, capsys):
    # y0 of a negative argument is NaN: every measurement would be nan
    cfg = _write(tmp_path, SIM + "eta_b = -1\n")
    out = tmp_path / "eout"
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(out)],
                        "eta_b must be finite and positive, got -1.0")
    assert not (out / "measurements.csv").exists()


@pytest.mark.parametrize("line, needle", [
    ("omega_s = 0", "omega must be in (0, 1]"),
    ("omega_s = 1.5", "omega must be in (0, 1]"),
    ("nu1 = -1", "nu1 must be nonnegative, got -1"),
    ("nu2 = -1", "nu2 must be nonnegative, got -1"),
    ("solver_tol = 0", "tol must be positive"),
    ("solver_tol = 1", "tol must be positive and less than 1"),
    ("solver_tol = 2", "tol must be positive and less than 1"),
    ("solver_max_iter = 0", "max_iter must be at least 1"),
    ("active_sensors = -1", "active_sensors must be nonnegative")])
def test_solver_settings_checked_on_the_direct_path(tmp_path, capsys, line,
                                                    needle):
    # the 17^2 grid is solved by one LU, which reads none of these keys
    cfg = _write(tmp_path, SIM + line + "\n")
    out = tmp_path / "sout"
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(out)], needle)
    assert not (out / "measurements.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("mg_levels = 0", "mg_levels = 0: levels must be at least 1, got 0"),
    ("omega_s = 1.5", "omega_s = 1.5: omega must be in (0, 1], got 1.5"),
    ("solver_tol = 2", "solver_tol = 2.0: tol must be positive and less "
                       "than 1, got 2.0"),
    ("solver_max_iter = 0", "solver_max_iter = 0: max_iter must be at least "
                            "1, got 0"),
    ("nu1 = -1", "nu1 = -1: nu1 must be nonnegative, got -1")])
def test_solver_setting_errors_name_their_key(tmp_path, capsys, line,
                                              message):
    key = line.split(" = ")[0]
    text = "".join(row + "\n" for row in SIM.splitlines()
                   if not row.startswith(key + " "))
    cfg = _write(tmp_path, text + line + "\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "kout")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line", ["disk_eta = nan", "disk_eta = inf",
                                  "eta_b = nan"])
def test_non_finite_config_value(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    cfg = _write(tmp_path, SIM.replace("disk_eta = 1.2", "") + line + "\n")
    out = tmp_path / "nfout"
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(out)],
                        f"{key} must be finite")
    assert not (out / "measurements.csv").exists()
    assert not (out / "reports.csv").exists()


BENCH = BASE + """
abl_points = 4
mg_levels = 2
radius_list_lambda = 0.5
"""


@pytest.mark.parametrize("line", [
    "contrast_list = -2", "contrast_list = 0.5, -1", "contrast_list = nan",
    "bench_models = ,", "bench_models = mgh, fdtd", "bench_models = foo",
    "radius_list_lambda = inf", "radius_list_lambda = 0.5, -0.5"])
def test_bench_rejects_bad_lists(tmp_path, capsys, monkeypatch, line):
    from helmscat import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a bench list was checked after a solve")

    monkeypatch.setattr(cli, "analytic_disk_field", no_solve)
    key = line.split(" = ")[0]
    lines = [ln for ln in BENCH.splitlines() if not ln.startswith(key)]
    cfg = _write(tmp_path, "\n".join(lines + [line]) + "\n",
                 name="bench.cfg")
    out = tmp_path / "bout"
    _assert_input_error(capsys, ["bench", "--config", str(cfg),
                                 "--out-dir", str(out)], key)
    assert not (out / "bench.csv").exists()


@pytest.mark.parametrize("command, line, needle", [
    ("bench", "contrast_list = 0.5,abc",
     "cannot parse contrast_list value '0.5,abc'"),
    ("bench", "radius_list_lambda = 0.5,x",
     "cannot parse radius_list_lambda value '0.5,x'"),
    ("bench", "radius_list_lambda = 0.5, nan",
     "radius_list_lambda must be finite"),
    # list keys are parsed for every command, also where they are unused
    ("simulate", "contrast_list = 0.5,abc",
     "cannot parse contrast_list value '0.5,abc'")])
def test_list_parse_errors_name_the_key_and_line(tmp_path, capsys, command,
                                                 line, needle):
    key = line.split(" = ")[0]
    lines = [ln for ln in (BENCH if command == "bench" else SIM).splitlines()
             if not ln.startswith(key)] + [line]
    cfg = _write(tmp_path, "\n".join(lines) + "\n")
    _assert_input_error(capsys, [command, "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "lout")],
                        f"line {len(lines)}: {needle}")


@pytest.mark.parametrize("radius", ["1e9", "1.5"])
def test_bench_rejects_disks_outside_the_domain(tmp_path, capsys,
                                                monkeypatch, radius):
    # the analytic field is for the whole disk; 1e9 wavelengths would
    # also size the series beyond memory
    from helmscat import cli

    def no_series(*args, **kwargs):
        raise AssertionError("a radius was checked after a series")

    monkeypatch.setattr(cli, "analytic_disk_field", no_series)
    cfg = _write(tmp_path, BENCH.replace("lambda = 0.5",
                                         f"lambda = 0.5, {radius}"),
                 name="bench.cfg")
    out = tmp_path / "bout"
    _assert_input_error(capsys, ["bench", "--config", str(cfg),
                                 "--out-dir", str(out)],
                        "radius_list_lambda")
    assert not (out / "bench.csv").exists()


@pytest.mark.parametrize("old, new, needle", [
    ("disk_eta = 1.2", "disk_eta = -1", "disk_eta > 0"),
    ("disk_eta = 1.2", "disk_eta = -1.2", "disk_eta > 0"),
    ("disk_eta = 1.2", "disk_eta = 0", "disk_eta > 0"),
    ("scene = disk", "scene = phantom\nphantom_disks = 0,0,3,-1.5",
     "phantom_disks entry"),
    ("scene = disk", "scene = phantom\nphantom_disks = 0,0,-3,1.1",
     "phantom_disks entry"),
    ("scene = disk", "scene = file", "scene_file indices must be positive")])
def test_nonpositive_index_or_phantom_radius(tmp_path, capsys, old, new,
                                             needle):
    # the potential reads eta^2 only: -1.2 would simulate the scene of 1.2
    eta = np.ones((17, 17))
    eta[6:10, 6:10] = -1.3
    io.write_field(tmp_path / "neg.hsf", eta)
    assert old in SIM
    cfg = _write(tmp_path, SIM.replace(old, new)
                 + f"scene_file = {tmp_path / 'neg.hsf'}\n")
    out = tmp_path / "iout"
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(out)], needle)
    assert not (out / "measurements.csv").exists()


@pytest.mark.parametrize("entry", ["0,0,4,nan", "0,0,nan,1.1", "inf,0,4,1.1",
                                   "0,0,four,1.1", "0,0,4"])
def test_phantom_disks_reject_bad_entries(tmp_path, capsys, entry):
    cfg = _write(tmp_path, SIM.replace("scene = disk", "scene = phantom")
                 + f"phantom_disks = 2,1,1.5,1.05; {entry}\n")
    out = tmp_path / "pout"
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(out)],
                        f"phantom_disks entry {entry!r}")
    assert not (out / "measurements.csv").exists()


@pytest.mark.parametrize("cut", [6, 12, 13 + 17 * 17 * 8 - 1, None])
def test_field_truncated_or_overlong(tmp_path, cut):
    path = tmp_path / "t.hsf"
    io.write_field(path, np.ones((17, 17)))
    raw = path.read_bytes()
    path.write_bytes(raw[:cut] if cut is not None else raw + bytes(8))
    with pytest.raises(ValueError, match="t.hsf"):
        io.read_field(path)


def test_scene_file_truncated(tmp_path, capsys):
    (tmp_path / "short.hsf").write_bytes(b"HSF1\x11\x00")
    cfg = _write(tmp_path, SIM.replace("scene = disk", "scene = file")
                 + f"scene_file = {tmp_path / 'short.hsf'}\n")
    _assert_input_error(capsys, ["simulate", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "tout")],
                        "short.hsf: truncated HSF1 header")


@pytest.mark.parametrize("truth, needle", [
    (np.ones((16, 16)), "must be a real field on the 17x17 grid"),
    (np.ones((17, 17), dtype=complex), "must be a real field"),
    (np.where(np.eye(17) > 0, np.nan, 1.0), "non-finite values"),
    (np.zeros((17, 17)), "ground_truth_file indices must be positive"),
    (np.where(np.eye(17) > 0, -1.0, 1.0),
     "ground_truth_file indices must be positive"),
    (None, "truncated HSF1 header")])
def test_ground_truth_checked_before_any_solve(tmp_path, capsys, monkeypatch,
                                               truth, needle):
    from helmscat import cli
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    path = tmp_path / "truth.hsf"
    if truth is None:
        path.write_bytes(b"HSF1\x11\x00")
    else:
        io.write_field(path, truth)

    def no_solve(*args, **kwargs):
        raise AssertionError("ground truth checked after a solve")

    monkeypatch.setattr(cli, "reconstruct_fbs", no_solve)
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 2,
                           extra=f"ground_truth_file = {path}\n")
    rout = tmp_path / "rout"
    _assert_input_error(capsys, ["reconstruct", "--config", str(rec),
                                 "--out-dir", str(rout)], needle)
    assert not (rout / "history.csv").exists()


@pytest.mark.parametrize("index", [1e200, 1e154])
def test_large_ground_truth_gives_a_finite_snr(tmp_path, capsys, index):
    # the squared norm of this ground truth overflows a float
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    path = tmp_path / "truth.hsf"
    io.write_field(path, np.full((17, 17), index))
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 1,
                           extra=f"ground_truth_file = {path}\n")
    rout = tmp_path / "rout"
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(rec),
                 "--out-dir", str(rout)]) == 0
    assert capsys.readouterr().err == ""
    with open(rout / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and np.isfinite(float(rows[0]["snr_db"]))


def test_reconstruct_names_a_step_that_leaves_the_physical_range(tmp_path,
                                                                 capsys):
    # a step this large overshoots: the extrapolated point of a later
    # iteration falls below -k0^2 eta_b^2
    sim = _write(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim),
                 "--out-dir", str(out)]) == 0
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 10)
    rec.write_text(rec.read_text().replace("gamma = 0.05", "gamma = 30.0"))
    rout = tmp_path / "rout"
    _assert_input_error(capsys, ["reconstruct", "--config", str(rec),
                                 "--out-dir", str(rout)],
                        "the extrapolated potential makes eta^2 nonpositive "
                        "(gamma = 30.0 may be too large)")
    assert not (rout / "eta.hsf").exists()


# ---------- unusable paths, and what a failed run removes ----------

def _simulate(tmp_path, text=SIM):
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(_write(tmp_path, text)),
            "--out-dir", str(out)]
    return argv, out


@pytest.mark.parametrize("kind", ["measurements_file", "scene_file",
                                  "config"])
def test_directory_as_input_file(tmp_path, capsys, kind):
    folder = tmp_path / "folder"
    folder.mkdir()
    if kind == "measurements_file":
        argv = ["reconstruct", "--config",
                str(_reconstruct_cfg(tmp_path, folder, 1)),
                "--out-dir", str(tmp_path / "rout")]
    elif kind == "scene_file":
        argv, _ = _simulate(tmp_path, SIM.replace("scene = disk",
                                                  "scene = file")
                            + f"scene_file = {folder}\n")
    else:
        argv = ["simulate", "--config", str(folder),
                "--out-dir", str(tmp_path / "out")]
    _assert_input_error(capsys, argv, f"Is a directory: '{folder}'")


def test_file_as_out_dir(tmp_path, capsys):
    argv, out = _simulate(tmp_path)
    out.write_text("not a directory\n")
    _assert_input_error(capsys, argv, f"File exists: '{out}'")
    assert out.read_text() == "not a directory\n"


def test_failed_rerun_keeps_earlier_outputs(tmp_path, capsys):
    argv, out = _simulate(tmp_path)
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["measurements.csv", "reports.csv"]
    Path(argv[2]).write_text(SIM + "mystery = 3\n")
    _assert_input_error(capsys, argv, "unknown key 'mystery'")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_write_removes_only_what_it_began(tmp_path, capsys):
    argv, out = _simulate(tmp_path)
    (out / "reports.csv").mkdir(parents=True)
    (out / "other.txt").write_text("kept\n")
    _assert_input_error(capsys, argv, "Is a directory")
    assert not (out / "measurements.csv").exists()
    assert (out / "reports.csv").is_dir()
    assert (out / "other.txt").read_text() == "kept\n"


# ---------- trailing comments, overflowing inputs, failed allocations ----------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_config_runs(tmp_path):
    # the README's example puts comments after values; it must run as given
    text = README.read_text()
    start = text.index("```ini\n") + len("```ini\n")
    example = text[start:text.index("```", start)]
    assert "# or lis" in example
    argv, out = _simulate(tmp_path, example)
    assert main(argv) == 0
    assert (out / "measurements.csv").exists()


@pytest.mark.parametrize("line, needle", [
    ("wavelength_cm = 1e-300", "wavelength must be positive and finite, "
                               "with a finite k0^2, got 1e-300"),
    ("side_length_cm = 1e-300", "side_length 1e-300 gives a mesh size"),
    ("side_length_cm = 1e-160", "whose h^2 or 1/h^2 is zero or not finite"),
    ("eta_b = 1e200", "eta_b = 1e+200 has no finite square"),
    ("wavelength_cm = 1e300", "wavelength 1e+300 gives k0^2 = 0"),
    ("eta_b = 1e-300", "eta_b = 1e-300 has a square of 0"),
])
def test_overflowing_scales_exit_2(tmp_path, capsys, line, needle):
    key = line.split()[0]
    text = "".join(ln + "\n" for ln in SIM.splitlines()
                   if not ln.startswith(key + " "))
    argv, out = _simulate(tmp_path, text + line + "\n")
    _assert_input_error(capsys, argv, needle)
    assert not any(out.iterdir())


def _simulate_with_index(tmp_path, key, value):
    """simulate's argv and output directory for the test config whose
    index ``value`` is held by config key ``key``: the disk, one phantom
    disk, or a block of a scene file."""
    old, new = {"disk_eta": ("disk_eta = 1.2", f"disk_eta = {value}"),
                "phantom_disks": ("scene = disk", f"scene = phantom\n"
                                  f"phantom_disks = 0,0,3,{value}"),
                "scene_file": ("scene = disk", "scene = file")}[key]
    eta = np.ones((17, 17))
    eta[6:10, 6:10] = float(value)
    io.write_field(tmp_path / "eta.hsf", eta)
    return _simulate(tmp_path, SIM.replace(old, new)
                     + f"scene_file = {tmp_path / 'eta.hsf'}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["disk_eta", "phantom_disks", "scene_file"])
def test_index_with_overflowing_potential_exits_2(tmp_path, capsys, key):
    # numpy would print its overflow warning before the error; the error
    # mark makes that warning fail the run where pytest would hide it
    argv, out = _simulate_with_index(tmp_path, key, "1e200")
    _assert_input_error(capsys, argv, f"{key} holds an index 1e+200 whose "
                                      f"potential")
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["disk_eta", "phantom_disks", "scene_file"])
def test_index_with_underflowing_square_exits_2(tmp_path, capsys, key):
    argv, out = _simulate_with_index(tmp_path, key, "1e-300")
    _assert_input_error(capsys, argv, f"{key} holds an index 1e-300 whose "
                                      f"square is 0")
    assert not any(out.iterdir())


def test_negative_sensor_radius_exits_2(tmp_path, capsys):
    # the active sensors would move to the side the waves come from
    text = SIM.replace("sensor_radius_cm = 40.0", "sensor_radius_cm = -40")
    argv, out = _simulate(tmp_path, text + "active_sensors = 3\n")
    _assert_input_error(capsys, argv, "sensor_radius must be positive and "
                                      "finite, got -40.0")
    assert not any(out.iterdir())


def test_memory_error_exits_2_and_removes_begun_outputs(tmp_path, capsys,
                                                        monkeypatch):
    write_rows_csv = io.write_rows_csv

    def no_memory(path, *args):
        if Path(path).name == "reports.csv":
            raise MemoryError("Unable to allocate 298. GiB for an array")
        write_rows_csv(path, *args)

    # reports.csv is written after measurements.csv, which must go
    monkeypatch.setattr(io, "write_rows_csv", no_memory)
    argv, out = _simulate(tmp_path)
    _assert_input_error(capsys, argv, "out of memory: Unable to allocate")
    assert not (out / "measurements.csv").exists()


@pytest.mark.parametrize("lists, needle", [
    ("contrast_list = 1e10\nradius_list_lambda = 0.5\n",
     "disk of radius 5 cm and index 100000: the series cannot be sized"),
    ("contrast_list = 0.5\nradius_list_lambda = 1e-300\n",
     "disk of radius 1e-299 cm and index 1.22474: series coefficient of "
     "order 1 is not finite"),
])
def test_bench_names_a_disk_whose_series_breaks_down(tmp_path, capsys,
                                                     lists, needle):
    cfg = _write(tmp_path, BASE + "abl_points = 4\nbench_models = lis,mgh\n"
                 + lists, name="bench.cfg")
    out = tmp_path / "bout"
    _assert_input_error(capsys, ["bench", "--config", str(cfg),
                                 "--out-dir", str(out)], needle)
    assert not (out / "bench.csv").exists()


@pytest.mark.parametrize("seed, flags", [("-1", []),
                                         ("3", ["--seed", "-1"])])
def test_reconstruct_rejects_negative_seed(tmp_path, capsys, seed, flags):
    argv, out = _simulate(tmp_path)
    assert main(argv) == 0
    rec = _reconstruct_cfg(tmp_path, out / "measurements.csv", 1)
    rec.write_text(rec.read_text().replace("seed = 3", f"seed = {seed}"))
    rout = tmp_path / "rout"
    _assert_input_error(capsys, ["reconstruct", "--config", str(rec),
                                 "--out-dir", str(rout)] + flags,
                        "seed must be nonnegative, got -1")
    assert not any(rout.iterdir())
