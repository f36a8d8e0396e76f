"""helmscat benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from ``--seed``
(and cached under ``.bench_cache/``) outside every timed region.  Each
batch job runs in a fresh worker process with BLAS/OpenMP pools pinned to
one thread; jobs repeat, one after another (a closed loop with a single
client), until ``--seconds`` have passed and at least ``MIN_JOBS`` ran.
Every output is checked against the analytic oracle.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over the jobs).  ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics; it also checks that the traced jobs repeat
their counts exactly and agree with the untraced ones.  The last line of
standard output is the JSON result.
"""

import os

PINNED_THREADS = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"
MIN_JOBS = 3           # jobs per untraced run
MIN_PAIRS = 2          # (untraced, traced) job pairs per traced run
RUN_LIMIT_S = 170.0    # a run must end within 180 s


def _fail(msg: str):
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "helmscat" / "__init__.py").is_file():
    _fail(f"no helmscat sources under {ROOT / 'src'}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import helmscat as hs  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import is_count  # noqa: E402


def machine_info() -> dict:
    """Processor, caches, library versions and the pinned thread pools."""
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": PINNED_THREADS}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = \
                (idx / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    return info


def run_job(inputs: Path, tag: str, traced: bool, deadline: float) -> dict:
    """Runs one worker to completion; returns its summary (and outputs),
    or ``{"crashed": reason}``."""
    out = CACHE / "jobs" / f"{tag}.npz"
    spans = CACHE / "spans" / f"{tag}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--out", str(out)]
    if traced:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:     # run() kills and reaps the worker
        return {"crashed": f"worker exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"crashed": f"worker exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}"}
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with np.load(out) as npz:
        summary["outputs"] = {k: npz[k] for k in npz.files}
    out.unlink()
    summary["traced"] = traced
    return summary


def check_job(job: dict, p: dict, refs) -> tuple[list, float]:
    """Per-operation failure reasons (None on a pass) and the job's
    result error, from the oracle."""
    o = job["outputs"]
    if p["kind"] == "forward":
        reasons, errs = wl.check_forward(hs, o["u"], o["y"], o["converged"],
                                         refs)
        reasons = [e or r for e, r in zip(job["errors"], reasons)]
        return reasons, max(errs)
    reason, err = wl.check_reconstruction(hs, o["f"], p, refs)
    return [e or reason for e in job["errors"]], err


def count_mismatches(jobs: list[dict]) -> list[str]:
    """Counts that differ between jobs of one run, or between the traced
    spans and the solver's own reports."""
    bad = []
    first = jobs[0]["counts"]
    for j in jobs[1:]:
        if j["counts"] != first:
            bad.append(f"counts differ between jobs: {first} vs {j['counts']}")
    traced = [j["layers"] for j in jobs if j["traced"]]
    for t in traced[1:]:
        for k in filter(is_count, t):
            if t[k] != traced[0][k]:
                bad.append(f"{k} differs between traced jobs: "
                           f"{traced[0][k]} vs {t[k]}")
    pairs = [("krylov.iterations", "krylov.iterations"),
             ("multigrid.work_units", "multigrid.work_units"),
             ("solves", "krylov.bicgstab.calls")]
    for ck, lk in pairs:
        if ck in first and first[ck] != traced[0][lk]:
            bad.append(f"traced {lk} = {traced[0][lk]} but the untraced "
                       f"reports give {first[ck]}")
    return bad


def metric_specs(section: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def measure(inputs: Path, name: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> tuple[list[dict], list[dict]]:
    """Closed loop with one client: each job starts when the previous one
    ends.  Returns the finished jobs and the crashed ones."""
    jobs, crashed = [], []
    min_jobs = 2 * MIN_PAIRS if trace else MIN_JOBS
    t0 = time.monotonic()
    while True:
        for traced in ((False, True) if trace else (False,)):
            tag = f"{name}-seed{seed}-{len(jobs) + len(crashed)}"
            job = run_job(inputs, tag, traced, deadline)
            (crashed if "crashed" in job else jobs).append(job)
        n = len(jobs) + len(crashed)
        elapsed = time.monotonic() - t0
        if crashed or time.monotonic() + 2 * elapsed / n > deadline:
            return jobs, crashed
        if n >= min_jobs and elapsed >= seconds:
            return jobs, crashed


def judge(jobs, crashed, p, refs, trace: bool) -> tuple[int, int, list, list]:
    """Attempted and failed operations, failure messages, and each job's
    result error."""
    ops = wl.ops_per_batch(p)
    attempted = ops * (len(jobs) + len(crashed))
    failed = ops * len(crashed)
    failures = [f"job crashed: {c['crashed']}" for c in crashed]
    errs = []
    for i, job in enumerate(jobs):
        reasons, err = check_job(job, p, refs)
        errs.append(err)
        failed += sum(1 for r in reasons if r)
        failures += [f"job {i}: {r}" for r in reasons if r]
        print(f"job {i}{' traced' if job['traced'] else ''}: "
              f"wall {job['wall_s']:.4f} s, setup {job['setup_s']:.4f} s, "
              f"{job['ops']} ops, "
              f"rss {job['peak_rss_mb']:.1f} MiB, result_err {err:.6e}, "
              f"counts {json.dumps(job['counts'])}")
    if len({j["counts"]["output_sha256"] for j in jobs}) > 1:
        failures.append("jobs produced different outputs from one input")
    if trace and {j["traced"] for j in jobs} == {False, True}:
        failures += count_mismatches(jobs)
    return attempted, failed, failures, errs


def e2e_metrics(untraced: list[dict], errs: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(j["wall_s"] for j in untraced),
        "setup_s": med(j["setup_s"] for j in untraced),
        "ops_per_s": med(j["ops"] / (j["wall_s"] - j["setup_s"])
                         for j in untraced),
        "peak_rss_mb": med(j["peak_rss_mb"] for j in untraced),
        "result_err": max(errs),
    }


def layer_values(traced: list[dict], untraced_wall: float) -> dict:
    """Counts from the first traced job (they repeat exactly), medians of
    the times, and the tracing overhead."""
    layers = {k: v if is_count(k) else
              statistics.median(t["layers"][k] for t in traced)
              for k, v in traced[0]["layers"].items()}
    layers["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced) - untraced_wall)
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    inputs, p, digest = wl.prepare_inputs(hs, args.workload, args.seed, CACHE)
    refs = (wl.forward_references(hs, p, CACHE) if p["kind"] == "forward"
            else wl.true_index(hs, p))
    print(f"inputs sha256 {digest} (centre shift {p['shift']} cells, "
          f"prepared in {time.monotonic() - start:.1f} s, untimed)")

    jobs, crashed = measure(inputs, args.workload, args.seed, args.seconds,
                            bool(args.trace), start + RUN_LIMIT_S)
    attempted, failed, failures, errs = judge(jobs, crashed, p, refs,
                                              bool(args.trace))
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4f} "
          "(failed operations / attempted)")
    untraced = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    if not untraced or (args.trace and not traced):
        _fail("no job completed")

    e2e = e2e_metrics(untraced, errs)
    for name, v in e2e.items():
        how = "worst job" if name == "result_err" else \
            f"median of {len(untraced)} jobs"
        print(f"e2e {name} = {v:.6g} ({how})")
    if args.trace:
        values = layer_values(traced, e2e["wall_s"])
        _print_kernel_table(values)
        specs = metric_specs("per_layer")
    else:
        values, specs = e2e, metric_specs("end_to_end")

    metrics = {}
    for s in specs:
        if s["name"] not in values:
            _fail(f"metric {s['name']} was not measured")
        v = values[s["name"]]
        metrics[s["name"]] = {"value": v if math.isfinite(v) else None,
                              "unit": s["unit"]}
        if args.trace:
            print(f"layer {s['name']} = {v:.6g} {s['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


KERNELS = [
    ("stencil apply", "helmholtz.apply.ms_per_call"),
    ("Jacobi sweep", "multigrid.damped_jacobi.ms_per_sweep"),
    ("restriction", "multigrid.restrict.ms_per_call"),
    ("coarsest LU solve", "multigrid.coarsest_solve.ms_per_call"),
    ("V-cycle", "multigrid.mg_cycle.ms_per_call"),
    ("Bi-CGSTAB iteration", "krylov.bicgstab.ms_per_iter"),
    ("sensor operator", "forward.sensor_op.ms_per_call"),
    ("FFT Green convolution", "lis.green_conv.ms_per_call"),
    ("tv_prox", "inverse.tv_prox.ms_per_call"),
]


def _print_kernel_table(layers: dict):
    """Per-call time of the ROADMAP's kernel list, at the finest grid each
    kernel ran on (kernels this workload does not run are left out)."""
    for label, key in KERNELS:
        if layers[key]:
            print(f"kernel {label}: {layers[key]:.4f} ms per call")


if __name__ == "__main__":
    main()
