"""The three benchmark workloads, driven through pitcal's public API only.

Each workload builds its list of input sets, ``inputs``, from the workload
seed in ``__init__`` (the set-up that ``setup_s`` times), then runs
closed-loop units: one process, one calling thread, each call waiting for the
previous one. Unit ``k`` uses ``inputs[k % len(inputs)]``; running on many
data draws averages their differences within one run, which keeps the
figures of one seed close to those of the next. Each unit checks its outputs
for invariants that hold for every seed, and ``reference()`` computes the
fixed-input outputs that ``reference.json`` recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pitcal as pc
from pitcal import cli
from pitcal.dataio import write_calibration_csv
from pitcal.rng import derive_seed, derived_rng
from pitcal.synthgen import TwoGroupConfig, sample_example1, sample_example2

from gauge import Gauge

ALPHA = 0.1
MASS_TOL = 0.005  # calpit_hpd's own default mass tolerance
# inputs of the reference case; the outputs are in reference.json
REF_SEED = 20221


@dataclass
class Unit:
    """Timings and outputs of one closed-loop unit."""

    wall_s: float           # whole unit, with the gauge's probes when it is enabled
    unit_s: float           # the unit_s metric, wall-clock: see each workload
    points: int             # points served for points_per_s
    point_s: float          # wall-clock seconds those points took
    ops: int                # operations attempted, the base of error_rate
    coverage_abs_err: float
    signature: tuple        # outputs that must repeat exactly across units
    checks: list = field(default_factory=list)   # (name, ok, detail)
    extra: dict = field(default_factory=dict)    # workload-specific layer figures
    index: int = 0          # position in the run, set by the loop
    input_set: int = 0      # index % len(inputs)
    unit_scale: float = 1.0   # unit_s times this is the gauge-scaled unit_s
    point_scale: float = 1.0  # the same for point_s and the set latencies


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), "" if ok else detail))


def hpd_mass(rd, pset) -> float:
    """Share of the recalibrated density's mass inside ``pset``.

    Integrates the piecewise-linear density by the trapezoid rule with the
    set's edges interpolated, independently of the library's own search.
    """
    pts, f = rd.pdf.grid.points, rd.pdf.values
    mass = 0.0
    for lo, hi in pset.intervals:
        xs = np.unique(np.concatenate([pts[(pts > lo) & (pts < hi)], [lo, hi]]))
        mass += float(np.trapezoid(np.interp(xs, pts, f), xs))
    return mass / float(np.trapezoid(f, pts))


class CoverageEx1:
    """``run_experiment`` on ex1 with the calpit interval, then with DCP."""

    name = "coverage-ex1"
    why = ("Quantile inversion (MonotoneSpline.solve via invert_cdf) dominates; both methods "
           "invert twice per point. Shows batched inversion; covers baselines and bench.")
    unit_doc = "one calpit-int run plus one dcp run of run_experiment"
    points_doc = "test points x methods x realizations scored per second"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        n, grid, draws = (400, 3, 50) if tiny else (5000, 12, 1000)
        self.inputs = [
            [pc.ExperimentRecipe(generator="ex1", method=method, n=n, alpha=ALPHA,
                                 n_realizations=1, n_mc_draws=draws,
                                 seed=derive_seed(seed, "input", j), initial="uniform",
                                 backend="local", test_grid_size=grid)
             for method in ("calpit-int", "dcp")]
            for j in range(64)
        ]
        self.n_points = grid * grid

    def unit(self, k: int, gauge) -> Unit:
        recipes = self.inputs[k % len(self.inputs)]
        t0 = time.perf_counter()
        reports, segments = [], []
        for recipe in recipes:
            with gauge.segment() as seg:
                reports.append(pc.run_experiment(recipe, n_threads=1))
            segments.append(seg)
        wall = time.perf_counter() - t0
        unit_s = sum(seg.wall_s for seg in segments)
        scale = sum(seg.scaled_s for seg in segments) / unit_s
        checks = []
        for recipe, rep in zip(recipes, reports):
            emp = np.array([p["empirical"] for p in rep.points])
            size = np.array([p["mean_set_size"] for p in rep.points])
            _check(checks, f"{recipe.method}.points", emp.size == self.n_points,
                   f"{emp.size} points")
            _check(checks, f"{recipe.method}.coverage_in_unit_interval",
                   np.all((emp >= 0) & (emp <= 1)))
            _check(checks, f"{recipe.method}.set_size_positive",
                   np.all(np.isfinite(size) & (size > 0)))
        calpit = reports[0].points
        err = float(np.mean([abs(p["empirical"] - p["nominal"]) for p in calpit]))
        points = sum(len(rep.points) for rep in reports)
        signature = tuple((p["empirical"], p["mean_set_size"])
                          for rep in reports for p in rep.points)
        return Unit(wall, unit_s, points, unit_s, points, err, signature, checks,
                    unit_scale=scale, point_scale=scale)

    def reference(self) -> dict:
        cfg = TwoGroupConfig()
        n, draws, grid = 1000, 200, 3
        recipes = [pc.ExperimentRecipe(generator="ex1", method=m, n=n, alpha=ALPHA,
                                       n_realizations=1, n_mc_draws=draws, seed=REF_SEED,
                                       test_grid_size=grid)
                   for m in ("calpit-int", "dcp")]
        out = {}
        for recipe in recipes:
            rep = pc.run_experiment(recipe, n_threads=1)
            out[f"{recipe.method}.coverage"] = [p["empirical"] for p in rep.points]
            out[f"{recipe.method}.set_size"] = [p["mean_set_size"] for p in rep.points]
        data = sample_example1(cfg, n, REF_SEED)
        initial = pc.UniformInitialModel(data.grid)
        pits = pc.compute_pit_values(initial, data.cal)
        r = pc.fit_local_empirical(data.cal, pits, pc.LocalEmpiricalConfig(k=100))
        dcp = pc.DcpModel(initial, data.cal, ALPHA)
        xs = [np.array([a, b]) for a in (-4.0, 0.5, 3.5) for b in (-2.0, 2.5)]
        out["calpit-int.endpoints"] = [
            list(pc.calpit_interval(pc.recalibrate(initial, r, x), ALPHA).intervals[0])
            for x in xs]
        out["dcp.endpoints"] = [list(dcp.predict_set(x).intervals[0]) for x in xs]
        return out

    # per output: (kind, tolerance); coverage may move by one oracle draw in 200
    tolerances = {
        "calpit-int.coverage": ("abs", 1.0 / 200 + 1e-12),
        "dcp.coverage": ("abs", 1.0 / 200 + 1e-12),
        "calpit-int.set_size": ("abs", 1e-9),
        "dcp.set_size": ("abs", 1e-9),
        "calpit-int.endpoints": ("abs", 1e-9),
        "dcp.endpoints": ("abs", 1e-9),
    }


class DiagnoseEx2:
    """``pitcal diagnose`` in-process on a CSV of the skewed example 2."""

    name = "diagnose-ex2"
    why = ("KD-tree neighbourhoods, null refits, seed derivation and the KNN mean in "
           "density_matrix; never inverts a quantile. Shows the one-pass MC engine; covers cli, dataio.")
    unit_doc = "one in-process `pitcal diagnose` call"
    points_doc = "diagnosed points (p-value, band and curve) per second"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        n, n_points, self.n_mc = (1000, 3, 20) if tiny else (10000, 12, 200)
        self.workdir = workdir
        self.inputs = []
        for j in range(8):  # each set is a CSV file written during set-up
            input_seed = derive_seed(seed, "input", j)
            csv = workdir / f"diagnose-data-{j}.csv"
            write_calibration_csv(csv, sample_example2("skewed", n, input_seed).cal)
            self.inputs.append((csv, input_seed))
        # fixed evaluation points keep the work per unit the same for every seed
        self.points = np.linspace(-0.95, 0.95, n_points)

    def _diagnose(self, csv: Path, points, n_mc: int, seed: int, out: Path, gauge):
        argv = ["diagnose", "--data", str(csv), "--initial", "gaussian-fit",
                "--n-mc", str(n_mc), "--eval-x=" + ";".join(repr(float(v)) for v in points),
                "--out-dir", str(out), "--seed", str(seed), "--threads", "1"]
        with contextlib.redirect_stdout(io.StringIO()), gauge.segment() as seg:
            code = cli.main(argv)
        return code, seg

    @staticmethod
    def _read(out: Path, n_points: int) -> dict:
        with open(out / "local_tests.json", encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        curves = [np.loadtxt(out / f"alp_{i}.csv", delimiter=",", skiprows=2, ndmin=2)
                  for i in range(n_points)]
        return {
            "p_value": [r["p_value"] for r in results],
            "statistic": [r["statistic"] for r in results],
            "gamma": [c[:, 0].tolist() for c in curves],
            "r": [c[:, 1].tolist() for c in curves],
            "band_lo": [c[:, 2].tolist() for c in curves],
            "band_hi": [c[:, 3].tolist() for c in curves],
        }

    def unit(self, k: int, gauge) -> Unit:
        csv, input_seed = self.inputs[k % len(self.inputs)]
        out = self.workdir / "diagnose-out"
        t0 = time.perf_counter()
        code, seg = self._diagnose(csv, self.points, self.n_mc, input_seed, out, gauge)
        checks = []
        _check(checks, "diagnose.exit_code", code == 0, f"exit code {code}")
        if code != 0:
            raise RuntimeError(f"pitcal diagnose exited with code {code}")
        res = self._read(out, self.points.size)
        p = np.array(res["p_value"])
        lattice = p * self.n_mc
        _check(checks, "diagnose.p_value_lattice",
               p.size == self.points.size and np.all((p >= 0) & (p <= 1))
               and np.allclose(lattice, np.round(lattice), atol=1e-9))
        lo, hi, r = (np.array(res[key]) for key in ("band_lo", "band_hi", "r"))
        _check(checks, "diagnose.band_ordered", np.all(lo <= hi))
        _check(checks, "diagnose.curve_in_unit_interval", np.all((r >= 0) & (r <= 1)))
        err = float(np.mean(np.abs(r - np.array(res["gamma"]))))
        signature = tuple(np.concatenate([p, res["statistic"], r.ravel(), lo.ravel(),
                                          hi.ravel()]).tolist())
        n = int(p.size)
        return Unit(time.perf_counter() - t0, seg.wall_s, n, seg.wall_s, n, err, signature,
                    checks, unit_scale=seg.scale, point_scale=seg.scale)

    def reference(self) -> dict:
        csv = self.workdir / "diagnose-reference.csv"
        out = self.workdir / "diagnose-reference-out"
        write_calibration_csv(csv, sample_example2("skewed", 1500, REF_SEED).cal)
        points = [-0.8, -0.2, 0.4, 0.9]
        code, _ = self._diagnose(csv, points, 40, REF_SEED, out, Gauge(enabled=False))
        if code != 0:
            raise RuntimeError(f"pitcal diagnose exited with code {code}")
        res = self._read(out, len(points))
        del res["gamma"]
        return res

    # p-values lie on the 1/B lattice, so they must match exactly
    tolerances = {
        "p_value": ("abs", 0.0),
        "statistic": ("rel", 1e-9),
        "r": ("abs", 1e-12),
        "band_lo": ("abs", 1e-12),
        "band_hi": ("abs", 1e-12),
    }


class NetEx2:
    """Monotone-net fit on the skewed example 2, then HPD sets over a grid of x."""

    name = "net-ex2"
    why = ("Nearly all time is monotone_net training; HPD sets use recalibrate differently "
           "from coverage-ex1, so a change that speeds intervals but slows HPD sets shows here.")
    unit_doc = "PIT values -> augment -> fit_monotone_net (the fitted map), i.e. fit_s"
    points_doc = "HPD sets (recalibrate + calpit_hpd) per second"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        n, self.k_factor, hidden, epochs, n_x, self.n_draws = (
            (300, 3, (8, 8), 2, 21, 50) if tiny else (5000, 20, (32, 32), 4, 101, 1000))
        self.xs = np.linspace(-1.0, 1.0, n_x)
        self.inputs = []
        # fits differ in quality from one data draw to the next, so a run
        # averages coverage_abs_err over as many draws as it has units
        for j in range(64):
            input_seed = derive_seed(seed, "input", j)
            data = sample_example2("skewed", n, input_seed)
            # patience == max_epochs, so every fit runs exactly max_epochs epochs
            cfg = pc.MonotoneNetConfig(hidden_layers=hidden, max_epochs=epochs,
                                       patience=epochs, seed=derive_seed(input_seed, "net"))
            self.inputs.append((data, derive_seed(input_seed, "augment"), cfg, input_seed))

    def _fit(self, cal, initial, k_factor, aug_seed, cfg):
        pits = pc.compute_pit_values(initial, cal)
        aug = pc.augment(cal, pits, k_factor, aug_seed)
        return aug, pc.fit_monotone_net(aug, cfg)

    def unit(self, k: int, gauge) -> Unit:
        data, aug_seed, cfg, input_seed = self.inputs[k % len(self.inputs)]
        initial = data.initial
        t0 = time.perf_counter()
        with gauge.segment() as fit:
            aug, model = self._fit(data.cal, initial, self.k_factor, aug_seed, cfg)
        latencies, sets = [], []
        with gauge.segment() as set_loop:
            for x in self.xs:
                t = time.perf_counter()
                rd = pc.recalibrate(initial, model, np.array([x]))
                pset = pc.calpit_hpd(rd, ALPHA)
                t1 = time.perf_counter()
                latencies.append(t1 - t - gauge.probed_s(t, t1))
                sets.append((rd, pset))
        covered = np.array([
            np.mean(pset.contains(data.oracle.sample(
                np.array([x]), derived_rng(input_seed, "score", i), self.n_draws)))
            for i, (x, (_, pset)) in enumerate(zip(self.xs, sets))])
        wall = time.perf_counter() - t0

        checks = []
        epochs = len(model.loss_history)
        val_loss = min(v for _, v in model.loss_history)
        _check(checks, "net.epochs", epochs == cfg.max_epochs, f"{epochs} epochs")
        _check(checks, "net.val_loss_finite", np.isfinite(val_loss), f"val_loss {val_loss}")
        masses = np.array([hpd_mass(rd, pset) for rd, pset in sets])
        worst = float(np.max(np.abs(masses - (1.0 - ALPHA))))
        _check(checks, "net.hpd_mass", worst <= MASS_TOL, f"worst HPD mass error {worst:.6f}")
        n_val = max(1, int(round(cfg.val_fraction * aug.n_base)))  # the trainer's split
        extra = {
            "set_latencies_s": latencies,
            "val_loss": val_loss,
            "epochs": epochs,
            "train_rows": len(aug) - n_val * aug.k_factor,
        }
        signature = (val_loss,) + tuple(iv for _, pset in sets for iv in pset.intervals)
        err = float(np.mean(np.abs(covered - (1.0 - ALPHA))))
        ops = epochs + len(sets)
        return Unit(wall, fit.wall_s, len(sets), float(np.sum(latencies)), ops, err,
                    signature, checks, extra, unit_scale=fit.scale, point_scale=set_loop.scale)

    def reference(self) -> dict:
        data = sample_example2("skewed", 600, REF_SEED)
        cfg = pc.MonotoneNetConfig(hidden_layers=(16, 16), max_epochs=4, patience=4,
                                   seed=REF_SEED)
        _, model = self._fit(data.cal, data.initial, 5, REF_SEED, cfg)
        masses = []
        for x in np.linspace(-0.9, 0.9, 7):
            rd = pc.recalibrate(data.initial, model, np.array([x]))
            masses.append(hpd_mass(rd, pc.calpit_hpd(rd, ALPHA)))
        return {"val_loss": min(v for _, v in model.loss_history),
                "hpd_mass": masses}

    # val_loss may improve freely but not worsen by more than 2%; HPD masses
    # are checked against the nominal level, not against the recording
    tolerances = {
        "val_loss": ("max_rel_worse", 0.02),
        "hpd_mass": ("nominal", MASS_TOL),
    }


WORKLOADS = {w.name: w for w in (CoverageEx1, DiagnoseEx2, NetEx2)}


def compare_reference(workload, got: dict, recorded: dict) -> list:
    """One (name, ok, detail) check per reference output, at its stated tolerance."""
    checks = []
    for key, (kind, tol) in workload.tolerances.items():
        name = f"reference.{key}"
        if kind == "nominal":
            dev = float(np.max(np.abs(np.asarray(got[key]) - (1.0 - ALPHA))))
            _check(checks, name, dev <= tol, f"worst deviation {dev:.3g} > {tol}")
            continue
        if key not in recorded:
            _check(checks, name, False, "missing from reference.json")
            continue
        a = np.asarray(got[key], dtype=float)
        b = np.asarray(recorded[key], dtype=float)
        if a.shape != b.shape:
            _check(checks, name, False, f"shape {a.shape} != recorded {b.shape}")
            continue
        if kind == "abs":
            dev = float(np.max(np.abs(a - b))) if a.size else 0.0
        elif kind == "rel":
            dev = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))) if a.size else 0.0
        else:  # max_rel_worse: only an increase counts
            dev = float(np.max((a - b) / np.abs(b)))
        _check(checks, name, dev <= tol, f"deviation {dev:.3g} > {tol} ({kind})")
    return checks
