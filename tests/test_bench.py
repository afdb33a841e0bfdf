import numpy as np
import pytest

from pitcal import bench, cli
from pitcal import rng as rngmod
from pitcal.bench import (
    CoverageReport,
    ExperimentRecipe,
    _score_sets,
    _unread_params,
    classify_coverage,
    run_experiment,
)
from pitcal.calibrate import PredictionSet
from pitcal.dataio import write_csv, write_json
from pitcal.errors import ConfigError
from pitcal.synthgen import sample_example2
from test_neighbours import traced_peak_mib
from test_synthgen import frozen_oracle_sample


class TestClassify:
    def test_correct_within_band(self):
        # sd = sqrt(0.9 * 0.1 / 1000) = 0.00949; band half-width 0.01897
        assert classify_coverage(0.905, 0.9, 1000) == "correct"

    def test_under(self):
        assert classify_coverage(0.85, 0.9, 1000) == "under"

    def test_exact_nominal(self):
        assert classify_coverage(0.9, 0.9, 1000) == "correct"

    def test_monotone_in_deviation(self):
        labels = [classify_coverage(0.9 + d, 0.9, 1000) for d in np.linspace(0, 0.08, 30)]
        seen_over = False
        for lab in labels:
            if lab == "over":
                seen_over = True
            if seen_over:
                assert lab == "over"

    def test_pooled_draws_tighten_band(self):
        assert classify_coverage(0.91, 0.9, 1000, n_realizations=1) == "correct"
        assert classify_coverage(0.91, 0.9, 1000, n_realizations=10) == "over"


def conditional_coverage(method, oracle, xs, n_draws, seed):
    """Share of oracle draws inside ``method(x)`` at each x, scored as ``run_experiment`` does."""
    xs = np.asarray(xs, dtype=float)
    return _score_sets([method(x) for x in xs], oracle, xs, n_draws, seed, ("coverage",))[0]


class TestConditionalCoverage:
    def test_oracle_quantile_set_binomial(self):
        data = sample_example2("skewed", 10, seed=50)
        oracle = data.oracle

        def method(x):
            lo = float(oracle.quantile(0.05, x))
            hi = float(oracle.quantile(0.95, x))
            return PredictionSet(((lo, hi),), 0.9, "interval")

        covs = conditional_coverage(method, oracle, [[0.0], [0.5]], 1000, seed=1)
        for c in covs:
            assert abs(c - 0.9) <= 2 * np.sqrt(0.9 * 0.1 / 1000) + 0.01

    def test_full_support_and_empty(self):
        data = sample_example2("skewed", 10, seed=50)

        full = lambda x: PredictionSet(((-1e6, 1e6),), 0.9, "interval")
        empty = lambda x: PredictionSet((), 0.9, "hpd")
        assert conditional_coverage(full, data.oracle, [[0.0]], 200, seed=2)[0] == 1.0
        assert conditional_coverage(empty, data.oracle, [[0.0]], 200, seed=2)[0] == 0.0


def frozen_score_sets(sets, oracle, xs, n_draws, seed, label):
    """``_score_sets`` as it scored one point at a time."""
    rngs = rngmod.derived_rngs(seed, *label, count=len(sets))
    coverage = [np.mean(s.contains(frozen_oracle_sample(oracle, x, rng, n_draws)))
                for s, x, rng in zip(sets, xs, rngs)]
    return np.array(coverage), np.array([s.total_size() for s in sets])


def realization_sets(generator, method, n, grid):
    """(sets, oracle, xs) of one realization of ``method``, as ``run_experiment`` builds them."""
    recipe = ExperimentRecipe(generator=generator, method=method, n=n, n_realizations=1,
                              seed=4, test_grid_size=grid)
    data = bench._GENERATORS[generator](n, 11)
    xs = bench._default_test_grid(recipe)
    return bench._prediction_sets(recipe, data, data.cal, data.cal, 11, xs), data.oracle, xs


class TestScoreSets:
    # (generator, method, test grid, draws): 169 ex1 points and 150 ex2 points at 1000
    # draws span three blocks of 65; calpit-hpd sets on ex2 hold several intervals, in
    # numbers that vary from point to point
    @pytest.mark.parametrize("generator, method, grid, n_draws", [
        ("ex1", "calpit-int", 13, 1000),
        ("ex1", "dcp", 5, 1),
        ("ex2-skewed", "calpit-hpd", 150, 1000),
        ("ex2-kurtotic", "calpit-hpd", 41, 1),
        ("ex2-kurtotic", "calpit-hpd", 41, 301),
    ])
    def test_equals_the_per_point_loop(self, generator, method, grid, n_draws):
        sets, oracle, xs = realization_sets(generator, method, 400, grid)
        if method == "calpit-hpd":
            assert max(len(s.intervals) for s in sets) > min(len(s.intervals) for s in sets) > 1
        got = _score_sets(sets, oracle, xs, n_draws, 3, ("coverage", 1))
        want = frozen_score_sets(sets, oracle, xs, n_draws, 3, ("coverage", 1))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_pads_sets_of_any_interval_count(self):
        oracle = sample_example2("skewed", 10, seed=50).oracle
        xs = np.linspace(-0.9, 0.9, 7)[:, None]
        # point 1's interval and point 4's second interval end at two of their own draws
        draws = oracle.sample_rows(xs, rngmod.derived_rngs(6, "coverage", count=7), 500)
        shapes = [(), (tuple(np.sort(draws[1, :2])),), ((-3.0, -1.0), (0.0, 0.5), (1.0, 9.0)),
                  ((-1e6, 1e6),), ((-9.0, -8.0), tuple(np.sort(draws[4, 2:4]))), (),
                  ((-2.0, 2.0),)]
        sets = [PredictionSet(ivs, 0.9, "hpd") for ivs in shapes]
        got = _score_sets(sets, oracle, xs, 500, 6, ("coverage",))
        want = frozen_score_sets(sets, oracle, xs, 500, 6, ("coverage",))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        assert got[0][0] == got[0][5] == 0.0 and got[0][3] == 1.0

    def test_memory_of_900_points_at_1000_draws(self):
        sets, oracle, xs = realization_sets("ex1", "oracle", 300, None)
        assert len(xs) == 900
        # blocks of 65 points hold about 2 MiB; one (900, 1000) array of draws is 6.9 MiB
        assert traced_peak_mib(lambda: _score_sets(sets, oracle, xs, 1000, 3, ("c",))) < 4.0


class TestRunExperiment:
    def test_oracle_method_mostly_correct(self):
        recipe = ExperimentRecipe(
            generator="ex2-skewed", method="oracle", n=50, alpha=0.1,
            n_realizations=1, n_mc_draws=1000, seed=3, test_grid_size=41,
        )
        report = run_experiment(recipe)
        assert report.summary["proportion_correct"] >= 0.95

    def test_proportions_partition(self):
        recipe = ExperimentRecipe(
            generator="ex2-skewed", method="initial", initial="generator", n=200,
            alpha=0.1, n_realizations=1, n_mc_draws=100, seed=3, test_grid_size=11,
        )
        report = run_experiment(recipe)
        s = report.summary
        total = s["proportion_under"] + s["proportion_correct"] + s["proportion_over"]
        assert total == pytest.approx(1.0, abs=1e-12)
        assert len(report.points) == 11

    def test_deterministic_given_seed(self):
        recipe = ExperimentRecipe(
            generator="ex2-skewed", method="calpit-int", n=400, alpha=0.1,
            n_realizations=2, n_mc_draws=100, seed=7, initial="uniform",
            backend="local", backend_params={"k": 50}, test_grid_size=7,
        )
        a = run_experiment(recipe).to_json()
        b = run_experiment(recipe, n_threads=2).to_json()
        # wall time is the only nondeterministic field
        a["summary"].pop("runtime_seconds")
        b["summary"].pop("runtime_seconds")
        assert a == b

    def test_desk_scale_two_group_correctness(self):
        # derived desk-scale target: at 300 pooled draws the two-sd band is
        # wide enough for the locally calibrated intervals to classify as
        # correct over most of the grid (observed ~0.69-0.75 across seeds)
        recipe = ExperimentRecipe(
            generator="ex1", method="calpit-int", n=5000, alpha=0.1,
            n_realizations=1, n_mc_draws=300, seed=99, initial="uniform",
            backend="local", backend_params={"k": 500}, test_grid_size=20,
        )
        report = run_experiment(recipe, n_threads=2)
        assert report.summary["proportion_correct"] >= 0.6

    def test_calpit_hpd_method(self):
        recipe = ExperimentRecipe(
            generator="ex2-skewed", method="calpit-hpd", n=500, alpha=0.1,
            n_realizations=1, n_mc_draws=200, seed=5, initial="uniform",
            backend="local", backend_params={"k": 50}, test_grid_size=5,
        )
        a = run_experiment(recipe).to_json()
        b = run_experiment(recipe, n_threads=2).to_json()
        assert len(a["points"]) == 5
        for rec in a["points"]:
            assert rec["nominal"] == pytest.approx(0.9)
            assert 0.0 < rec["mean_set_size"] < 20.0
            assert 0.0 <= rec["empirical"] <= 1.0
        a["summary"].pop("runtime_seconds")
        b["summary"].pop("runtime_seconds")
        assert a == b

    def test_unknown_components_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentRecipe(generator="nope", method="oracle", n=10)
        with pytest.raises(ConfigError):
            ExperimentRecipe(generator="ex1", method="nope", n=10)
        with pytest.raises(ConfigError):
            ExperimentRecipe(generator="ex1", method="oracle", n=10, initial="nope")

    @pytest.mark.parametrize("backend, params", [
        ("local", {"kk": 50}),
        ("local", {"hidden_layers": (8, 8)}),
        ("local", {"k_factor": 5}),
        ("local", {"k": 50, "seed": 3}),
        ("net", {"k": 50}),
        ("net", {"weighting": "inverse-distance"}),
        ("net", {"hidden_layers": (8,), "layers": (8,)}),
    ])
    def test_unread_backend_params_rejected(self, backend, params):
        with pytest.raises(ConfigError, match="reads no backend_params"):
            ExperimentRecipe(generator="ex1", method="calpit-int", n=10, backend=backend,
                             backend_params=params)

    @pytest.mark.parametrize("backend, params", [
        ("local", {"k": 50, "weighting": "inverse-distance", "mean_k": 25}),
        ("net", {"hidden_layers": (8,), "learning_rate": 1e-2, "lr_decay": 0.9,
                 "weight_decay": 0.0, "batch_size": 64, "patience": 2, "val_fraction": 0.2,
                 "max_epochs": 3, "seed": 5, "k_factor": 4, "mean_k": 25}),
    ])
    def test_every_read_backend_param_accepted(self, backend, params):
        recipe = ExperimentRecipe(generator="ex1", method="calpit-int", n=10, backend=backend,
                                  backend_params=params)
        assert recipe.backend_params == params

    def test_report_files(self, tmp_path):
        recipe = ExperimentRecipe(
            generator="ex2-skewed", method="oracle", n=20, alpha=0.1,
            n_realizations=1, n_mc_draws=50, seed=3, test_grid_size=5,
        )
        report = run_experiment(recipe)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        write_json(jpath, report.to_json())
        write_csv(cpath, report.CSV_HEADER, report.csv_rows(), comment="stamp")
        import json

        doc = json.loads(jpath.read_text())
        assert doc["format_version"] == 1
        assert {"x", "nominal", "empirical", "classification", "mean_set_size"} <= set(doc["points"][0])
        header = cpath.read_text().splitlines()[1]
        assert header == "x0,x1,empirical,classification,set_size"


class TestMethodParams:
    """Each method reads its own ``backend_params`` keys; ``pitcal bench`` rejects the rest.

    ``ExperimentRecipe`` itself checks the keys against the backend only, so a
    caller may share one params dict across methods."""

    @staticmethod
    def bench(tmp_path, method, *extra):
        return cli.main(["bench", "--example", "ex2-skewed", "--method", method, "--n", "100",
                         "--realizations", "1", "--mc-draws", "10", "--test-grid", "2",
                         "--out-dir", str(tmp_path / "out"), *extra])

    @pytest.mark.parametrize("method", ["calpit-int", "calpit-hpd"])
    def test_recalibrating_methods_read_their_backends_keys(self, tmp_path, method):
        for backend, params in [("local", {"k": 50, "weighting": "inverse-distance",
                                           "mean_k": 25}),
                                ("net", {"hidden_layers": (8,), "k_factor": 4, "mean_k": 25})]:
            recipe = ExperimentRecipe(generator="ex1", method=method, n=10, backend=backend,
                                      backend_params=params)
            assert _unread_params(recipe) == []
        assert self.bench(tmp_path, method, "--k", "20") == 0

    @pytest.mark.parametrize("method", ["dcp", "initial"])
    def test_initial_model_methods_read_only_mean_k(self, tmp_path, capsys, method):
        recipe = ExperimentRecipe(generator="ex1", method=method, n=10,
                                  backend_params={"mean_k": 25, "k": 5, "weighting": "uniform"})
        assert _unread_params(recipe) == ["k", "weighting"]
        assert self.bench(tmp_path, method, "--k", "5") == 2
        assert capsys.readouterr().err.strip() == f"error: bench --method {method} reads no k"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["regsplit", "oracle"])
    def test_methods_without_a_fit_read_no_keys(self, tmp_path, capsys, method):
        recipe = ExperimentRecipe(generator="ex1", method=method, n=10,
                                  backend_params={"mean_k": 25, "k": 5})
        assert _unread_params(recipe) == ["k", "mean_k"]
        assert self.bench(tmp_path, method, "--k", "5") == 2
        assert capsys.readouterr().err.strip() == f"error: bench --method {method} reads no k"
        assert self.bench(tmp_path, method) == 0


@pytest.mark.parametrize("method", ["regsplit", "oracle"])
@pytest.mark.parametrize("initial", ["uniform", "gaussian-fit", "generator"])
def test_regsplit_and_oracle_build_no_initial_model(monkeypatch, method, initial):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{method} built an initial model")

    monkeypatch.setattr(bench, "build_initial", refuse)
    report = run_experiment(ExperimentRecipe(generator="ex1", method=method, n=200,
                                             initial=initial, n_realizations=2, n_mc_draws=20,
                                             test_grid_size=3))
    assert len(report.points) == 9


@pytest.mark.parametrize("method", ["regsplit", "oracle"])
def test_generator_initial_on_ex1_runs_where_no_initial_model_is_read(tmp_path, method):
    # ex1 provides no generator initial model; regsplit and oracle never ask for one
    out = tmp_path / "bench"
    assert cli.main(["bench", "--example", "ex1", "--method", method, "--initial", "generator",
                     "--n", "200", "--quick", "--test-grid", "3", "--out-dir", str(out)]) == 0
    assert (out / "report.json").is_file()
