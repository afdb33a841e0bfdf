"""Benchmark of the pitcal loop: three closed-loop workloads, with per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload coverage-ex1 --seed 1 --seconds 35 --trace 0

The workload's inputs come from ``--seed``. Units of the workload run one
after another for ``--seconds`` seconds. With ``--trace 0`` the last stdout
line carries the end-to-end metrics, measured with tracing off; with
``--trace 1`` untraced and traced units alternate and the last line carries
the per-layer metrics and the tracing overhead. End-to-end timings are
gauged: scaled by a fixed probe run around and during each timed segment
(gauge.py), so that they hold still when the host's speed changes. Earlier lines record the
environment, the workload's reason, every failed check, and the figures under
the names perfbench/README.md maps them to. Outputs are checked against
``reference.json`` and against per-unit invariants; a failed check counts in
``failed``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up starts before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups, one in-process

E2E_UNITS = {
    "setup_s": "s",
    "unit_s": "s",
    "points_per_s": "1/s",
    "coverage_abs_err": "fraction",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> (span names summed, statistic); span names are
# "<layer>.<function>" or "<layer>.<Class>.<method>"
SPAN_METRICS = {
    "grid.invert_cdf.calls": (["grid.invert_cdf"], "calls"),
    "grid.invert_cdf.self_s": (["grid.invert_cdf"], "self_s"),
    "grid.invert_cdf.incl_share": (["grid.invert_cdf"], "incl_share"),
    "grid.spline_eval.calls": (["grid.MonotoneSpline.__call__"], "calls"),
    "grid.fit_monotone_spline.calls": (["grid.fit_monotone_spline"], "calls"),
    "grid.fit_monotone_spline.self_s": (["grid.fit_monotone_spline"], "self_s"),
    "grid.pit_matrix.self_s": (["grid.pit_matrix"], "self_s"),
    "models.density_matrix.self_s": ([f"models.{c}.density_matrix" for c in (
        "GaussianInitialModel", "UniformInitialModel", "MarginalHistogramModel")], "self_s"),
    "models.model_cdf.calls": (["models.model_cdf"], "calls"),
    "models.model_cdf.self_s": (["models.model_cdf"], "self_s"),
    "calibrate.compute_pit_values.self_s": (["calibrate.compute_pit_values"], "self_s"),
    "calibrate.augment.self_s": (["calibrate.augment"], "self_s"),
    "rng.row_philox.calls": (["rng.row_philox"], "calls"),
    "calibrate.local_predict_curve.calls": (["calibrate.LocalEmpiricalModel.predict_curve"], "calls"),
    "calibrate.local_predict_curve.self_s": (["calibrate.LocalEmpiricalModel.predict_curve"], "self_s"),
    "calibrate.fit_local_empirical.calls": (["calibrate.fit_local_empirical"], "calls"),
    "diagnose.null_refits": (["calibrate.LocalEmpiricalModel.with_pit_values"], "calls"),
    "diagnose.mc_p_value.self_s": (["diagnose.mc_p_value"], "self_s"),
    "diagnose.mc_confidence_band.self_s": (["diagnose.mc_confidence_band"], "self_s"),
    "diagnose.local_test_statistic.calls": (["diagnose.local_test_statistic"], "calls"),
    "rng.derived_rng.calls": (["rng.derived_rng"], "calls"),
    "calibrate.recalibrate.calls": (["calibrate.recalibrate"], "calls"),
    "calibrate.recalibrate.self_s": (["calibrate.recalibrate"], "self_s"),
    "calibrate.calpit_interval.self_s": (["calibrate.calpit_interval"], "self_s"),
    "calibrate.calpit_hpd.self_s": (["calibrate.calpit_hpd"], "self_s"),
    "monotone_net.fit_monotone_net.self_s": (["monotone_net.fit_monotone_net"], "self_s"),
    "monotone_net.predict_curve.calls": (["monotone_net.MonotoneNetModel.predict_curve"], "calls"),
    "monotone_net.predict_curve.self_s": (["monotone_net.MonotoneNetModel.predict_curve"], "self_s"),
    "baselines.dcp_predict_set.calls": (["baselines.DcpModel.predict_set"], "calls"),
    "baselines.dcp_predict_set.self_s": (["baselines.DcpModel.predict_set"], "self_s"),
    "synthgen.oracle_sample.calls": (["synthgen.Example1Oracle.sample",
                                      "synthgen.Example2Oracle.sample"], "calls"),
    "synthgen.oracle_sample.self_s": (["synthgen.Example1Oracle.sample",
                                       "synthgen.Example2Oracle.sample"], "self_s"),
    "bench.run_experiment.self_s": (["bench.run_experiment"], "self_s"),
    "cli.main.self_s": (["cli.main"], "self_s"),
    "dataio.read_calibration_csv.self_s": (["dataio.read_calibration_csv"], "self_s"),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "incl_share": "fraction"}

def _quantile(values, q: float) -> float:
    """Nearest-rank quantile (the value with a share q of samples at or below it)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _set_latencies_ms(units) -> list:
    """Every set latency of net-ex2's units in ms, times the unit's point scale
    (1 when the gauge is off; empty on other workloads)."""
    return [1e3 * t * u.point_scale for u in units
            for t in u.extra.get("set_latencies_s", [])]


def _openblas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None when not found."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "libscipy_openblas*"))):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _scaled_setup(wall_s: float) -> float:
    """The set-up's wall time scaled by probes run just after it (gauge.py).

    The probe's first call pays for its own page faults and is not counted.
    """
    import gauge

    gauge.probe()
    return wall_s * gauge.scale_now()


def _setup_in_child(args) -> float:
    """Repeat the set-up in a fresh interpreter and return its time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _run_units(workload, seconds: float, traced: bool, log):
    """Closed loop of units for ``seconds``; alternate with traced units if asked.

    Untraced, each unit's timed segments are scaled by the gauge (gauge.py).
    Traced, the gauge is off, so that spans and unit times hold the program
    alone. After the loop, unit 0's input set runs once more (traced when tracing) so
    that every run checks that outputs repeat. Returns (untraced units,
    [(traced unit, span summary)], the repeat unit, failed operations).
    """
    from gauge import Gauge
    from tracing import Tracer

    gauge = Gauge(enabled=not traced)

    def unit(k, tracer=None):
        with tracer or contextlib.nullcontext():
            u = workload.unit(k, gauge)
        u.index, u.input_set = k, k % len(workload.inputs)
        return u

    plain, spans = [], []
    start = time.perf_counter()
    try:
        while True:
            plain.append(unit(len(plain) + len(spans)))
            if traced:
                tracer = Tracer()
                spans.append((unit(len(plain) + len(spans), tracer), tracer.summary()))
            if time.perf_counter() - start >= seconds:
                break
        repeat = unit(0, Tracer() if traced else None)
    except Exception as exc:  # noqa: BLE001 - a failing unit is reported, not fatal
        log(f"# unit failed: {type(exc).__name__}: {exc}")
        # the failed unit's operations count as failed: as many as a
        # completed unit attempted, or one when none completed
        done = [u.ops for u in plain] + [u.ops for u, _ in spans]
        return plain, spans, None, done[0] if done else 1
    return plain, spans, repeat, 0


def _unit_checks(units) -> list:
    """Each unit's own checks, plus: a unit repeats the outputs of the first unit
    that ran on the same input set, traced or not."""
    checks = [c for u in units for c in u.checks]
    first = {}
    for u in units:
        if u.input_set in first:
            checks.append((f"deterministic.input{u.input_set}", u.signature == first[u.input_set],
                           "outputs differ from an earlier unit's on the same inputs"))
        else:
            first[u.input_set] = u.signature
    return checks


def _layer_metrics(plain, spans):
    """Per-layer metrics from the traced units (medians across them).

    Returns ({metric: (value, unit)}, names of metrics whose spans are absent).
    """
    from tracing import LAYERS

    summaries = [s for _, s in spans]
    known = set(summaries[0]) if summaries else set()

    def per_unit(fn):
        return statistics.median(fn(unit, s) for unit, s in spans)

    out = {}
    absent = []
    for metric, (names, stat) in SPAN_METRICS.items():
        present = [n for n in names if n in known]
        if not present:
            absent.append(metric)
        key = "incl_s" if stat == "incl_share" else stat

        def value(unit, s, present=present, key=key, stat=stat):
            total = sum(s[n][key] for n in present)
            return total / unit.wall_s if stat == "incl_share" else total

        out[metric] = (per_unit(value), STAT_UNITS[stat])
    for layer in LAYERS:
        names = [n for n in known if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = (per_unit(lambda u, s: sum(s[n]["self_s"] for n in names)), "s")
        out[f"{layer}.self_share"] = (
            per_unit(lambda u, s: sum(s[n]["self_s"] for n in names) / u.wall_s), "fraction")
        out[f"{layer}.failed"] = (sum(s[n]["failed"] for s in summaries for n in names), "count")

    def extra(key, default=0):
        vals = [u.extra[key] for u in plain if key in u.extra]
        return statistics.median(vals) if vals else default

    fit_self = out["monotone_net.fit_monotone_net.self_s"][0]
    epochs = extra("epochs")
    latencies_ms = _set_latencies_ms(plain)
    out["monotone_net.epochs"] = (epochs, "count")
    out["monotone_net.epoch_s"] = (fit_self / epochs if epochs else 0.0, "s")
    out["monotone_net.train_rows"] = (extra("train_rows"), "count")
    out["monotone_net.val_loss"] = (extra("val_loss", 0.0), "mse")
    out["calibrate.set_ms_p50"] = (statistics.median(latencies_ms) if latencies_ms else 0.0, "ms")
    out["calibrate.set_ms_p95"] = (_quantile(latencies_ms, 0.95) if latencies_ms else 0.0, "ms")
    out["calibrate.set_samples"] = (len(latencies_ms), "count")
    untraced = statistics.median(u.wall_s for u in plain)
    out["trace.untraced_unit_s"] = (untraced, "s")
    out["trace.overhead_s"] = (statistics.median(u.wall_s for u, _ in spans) - untraced, "s")
    out["trace.absent_spans"] = (len(absent), "count")
    return out, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it (used for setup_s repeats)")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this workload's reference outputs into reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "pitcal" / "__init__.py").is_file():
        print(f"error: no pitcal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import pitcal

    if Path(pitcal.__file__).resolve().parent != (SRC / "pitcal").resolve():
        print(f"error: imported pitcal from {pitcal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench-tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, workload_cls, workdir: Path) -> int:
    from workloads import compare_reference

    workload = workload_cls(args.seed, args.tiny, workdir)
    setup_main = _scaled_setup(time.perf_counter() - T0)
    if args.setup_only:
        print(repr(setup_main))
        return 0

    if args.record_reference:
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        recorded[workload.name] = workload.reference()
        REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")
        print(f"recorded {workload.name} into {REFERENCE}")
        return 0

    def log(line):
        print(line, flush=True)

    log("# env " + json.dumps(environment(), sort_keys=True))
    log(f"# workload {workload.name}: {workload.why}")
    log(f"# unit: {workload.unit_doc}; points: {workload.points_doc}")

    setups = [setup_main] + [_setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
    recorded = json.loads(REFERENCE.read_text()).get(workload.name, {})
    try:
        checks = compare_reference(workload, workload.reference(), recorded)
    except Exception as exc:  # noqa: BLE001 - a failing reference case is a failed check
        checks = [("reference.run", False, f"{type(exc).__name__}: {exc}")]

    plain, spans, repeat, lost_ops = _run_units(workload, args.seconds, bool(args.trace), log)
    units = sorted(plain + [u for u, _ in spans], key=lambda u: u.index)
    units += [repeat] if repeat else []
    if not plain or (args.trace and not spans):
        print("error: no unit completed", file=sys.stderr)
        return 1
    checks += _unit_checks(units)
    failed_checks = [c for c in checks if not c[1]]
    for name, _, detail in failed_checks:
        log(f"# check FAILED {name}: {detail}")
    log(f"# checks: {len(checks) - len(failed_checks)} of {len(checks)} passed; "
        f"units: {len(plain)} untraced, {len(spans)} traced")

    attempted = sum(u.ops for u in units) + lost_ops + len(checks)
    failed = lost_ops + len(failed_checks)
    if args.trace:
        layer, absent = _layer_metrics(plain, spans)
        if absent:
            log("# absent spans (reported as 0): " + ", ".join(absent))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            # timings are scaled to the gauge probe's reference speed (gauge.py)
            "unit_s": statistics.median(u.unit_s * u.unit_scale for u in plain),
            # work completed per second over the whole run
            "points_per_s": (sum(u.points for u in plain)
                             / sum(u.point_s * u.point_scale for u in plain)),
            # a property of the inputs, so each input set counts once
            "coverage_abs_err": statistics.fmean(
                {u.input_set: u.coverage_abs_err for u in plain}.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        log("# wall-clock unit_s of each unit: "
            + json.dumps([round(u.unit_s, 5) for u in plain]))
        log("# wall-clock points_per_s of each unit: "
            + json.dumps([round(u.points / u.point_s, 3) for u in plain]))
        log("# gauge scale of each unit's unit_s: "
            + json.dumps([round(u.unit_scale, 4) for u in plain]))
        log(f"# wall-clock unit_s = {statistics.median(u.unit_s for u in plain)!r} s, "
            f"points_per_s = {sum(u.points for u in plain) / sum(u.point_s for u in plain)!r} 1/s")
        for line in _named_figures(workload.name, values, plain, attempted, failed):
            log(line)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def _named_figures(name: str, values: dict, plain, attempted: int, failed: int):
    """The figures under the metric names of perfbench/README.md's table."""
    rows = [("setup_s", values["setup_s"], "s"), ("peak_rss_mb", values["peak_rss_mb"], "MiB"),
            ("error_rate", failed / attempted, "fraction")]
    if name == "coverage-ex1":
        rows += [("coverage_points_per_s", values["points_per_s"], "1/s"),
                 ("coverage_abs_err", values["coverage_abs_err"], "fraction")]
    elif name == "diagnose-ex2":
        rows += [("diag_points_per_s", values["points_per_s"], "1/s")]
    else:
        ms = _set_latencies_ms(plain)
        rows += [("fit_s", values["unit_s"], "s"),
                 ("set_ms_p50", statistics.median(ms), "ms"),
                 ("set_ms_p95", _quantile(ms, 0.95), "ms"),
                 ("set_samples", len(ms), "count"),
                 ("coverage_abs_err", values["coverage_abs_err"], "fraction"),
                 ("val_loss", statistics.median(u.extra["val_loss"] for u in plain), "mse")]
    return [f"# metric {n} = {v!r} {u}" for n, v, u in rows]


if __name__ == "__main__":
    sys.exit(main())
