import argparse
import csv
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import sparsevar
from sparsevar import SparsevarError, granger
from sparsevar.cli import COMMANDS, ConfigError, build_parser, main
from sparsevar.lasso import LassoConfig, LassoGrid
from sparsevar.panel import TimePanel, read_panel_csv, write_panel_csv
from sparsevar.synthetic import SparseRecipe, SyntheticSpec, simulate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["sparsevar", "sparsevar.cli"])
def test_import_does_not_load_scipy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


# imports sparsevar and sparsevar.cli, then runs granger (plain, robust, and on a panel
# with an exact-copy series) with every scipy import raising
SCIPY_BLOCKED_CHILD = """
import importlib.abc, json, sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
import sparsevar
import sparsevar.cli

try:
    import scipy  # noqa: F401
    blocked = False
except ImportError:
    blocked = True
panel, copies, out = sys.argv[1:]
common = ["--lag", "2", "--grid", "20,0.001"]
codes = [sparsevar.cli.main(["granger", "--panel", path, *common, *flags, "--out", out + sub])
         for path, flags, sub in [(panel, [], "/plain"), (panel, ["--robust"], "/robust"),
                                  (copies, [], "/copies")]]
print(json.dumps({"blocked": blocked, "codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def test_granger_runs_with_scipy_blocked(tmp_path):
    spec = SyntheticSpec(k=3, p=2, t=200,
                         recipe=SparseRecipe(density=0.3, magnitude=0.35, seed=5), seed=5)
    pnl, _ = simulate(spec)
    panel, copies = tmp_path / "panel.csv", tmp_path / "copies.csv"
    write_panel_csv(pnl, panel)
    write_panel_csv(TimePanel(pnl.dates, ("a", "b", "a_copy"),
                              np.column_stack([pnl.values[:, :2], pnl.values[:, 0]])), copies)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED_CHILD, str(panel), str(copies),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report == {"blocked": True, "codes": [0, 0, 0], "scipy": []}

    cfg = LassoConfig(grid=LassoGrid(20, 1e-3))
    for sub, robust in [("plain", False), ("robust", True)]:
        net = granger.granger_network(read_panel_csv(panel), 2, cfg=cfg, robust=robust)
        matrix = read_csv(tmp_path / "out" / sub / "granger_matrix.csv")
        written = np.array([[np.nan if v == "NA" else float(v) for v in row[1:]]
                            for row in matrix[1:]])
        np.testing.assert_array_equal(written, net.p_matrix)
    # each pair whose final design holds a lag of a and its copy names both; the pairs
    # b -> a and b -> a_copy select the first lags only
    both = "collinear regressors in final design: ['a.l1', 'a.l2', 'a_copy.l1', 'a_copy.l2']"
    first = "collinear regressors in final design: ['a.l1', 'a_copy.l1']"
    assert read_csv(tmp_path / "out" / "copies" / "granger_failures.csv") == [
        ["from", "to", "reason"], ["b", "a", first], ["a_copy", "a", both], ["a", "b", both],
        ["a_copy", "b", both], ["a", "a_copy", both], ["b", "a_copy", first]]


def test_synthetic_does_not_load_the_estimation_stack():
    code = ("import importlib.util, sys, sparsevar.synthetic; "
            "print(sorted(m for m in ('sparsevar.forecasting', 'sparsevar.cv', "
            "'sparsevar.lasso') if m in sys.modules), "
            "importlib.util.find_spec('sparsevar.parallel'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[] None"


def test_import_loads_only_the_modules_the_option_table_reads():
    code = ("import sys; loaded = lambda: sorted(m for m in sys.modules "
            "if m.startswith('sparsevar.')); import sparsevar; print(loaded()); "
            "import sparsevar.cli; print(loaded())")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split("\n")[:2] == [
        "[]", "['sparsevar.cli', 'sparsevar.cv', 'sparsevar.lasso', 'sparsevar.panel']"]


# runs one CLI command in this fresh process, then prints its exit code and the
# sparsevar modules loaded
FRESH_CHILD = """
import json, sys
from sparsevar.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("sparsevar."))]))
"""


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A small panel, two forecast files of it, and ingest's price, item and trend files."""
    d = tmp_path_factory.mktemp("inputs")
    spec = SyntheticSpec(k=2, p=1, t=120,
                         recipe=SparseRecipe(density=0.5, magnitude=0.3, seed=3), seed=3)
    write_panel_csv(simulate(spec)[0], d / "panel.csv")
    for estimator, penalty in (("ols", []), ("lasso", ["--lambda", "0.05"])):
        assert main(["forecast", "--panel", str(d / "panel.csv"), "--lag", "1", *penalty,
                     "--estimator", estimator, "--origins", "2018-04-10:2018-04-25",
                     "--horizons", "2", "--out", str(d / estimator)]) == 0
    days = [f"2021-02-{day:02d}" for day in range(1, 29)]
    (d / "prices.csv").write_text("date,btc\n" + "".join(
        f"{day},{100 + i % 3}\n" for i, day in enumerate(days)))
    (d / "items.csv").write_text("timestamp,valence_sum\n2021-02-03T09:00:00,4.0\n"
                                 "2021-02-10T10:00:00,-2.5\n")
    (d / "trends").mkdir()
    (d / "trends" / "2021-02.csv").write_text(
        "date,value\n" + "".join(f"{day},{i}.0\n" for i, day in enumerate(days)))
    (d / "trends" / "monthly.csv").write_text("month,weight\n2021-02,55\n")
    return d


class TestFreshProcess:
    """Each subcommand in its own process: a command whose function-level import is
    missing fails here, whatever modules the other tests have loaded."""

    SHARED = ["sparsevar.cli", "sparsevar.cv", "sparsevar.lasso", "sparsevar.panel"]
    COMMON = ["--lag", "1", "--grid", "5,0.01"]
    PLAN = ["--n-splits", "2", "--test-size", "10"]
    RUNS = {
        "simulate": (["--k", "2", "--t", "60"], ["synthetic"], ["panel.csv", "truth.json"]),
        "ingest": (["--prices", "{d}/prices.csv", "--sentiment=tw={d}/items.csv",
                    "--trends=gt={d}/trends"], ["ingestion"], ["panel.csv"]),
        "cv": (["--panel", "{d}/panel.csv", *COMMON, *PLAN], [],
               ["cv_report.csv", "cv_excluded.csv"]),
        "fit": (["--panel", "{d}/panel.csv", *COMMON, *PLAN, "--estimator", "lasso"], [],
                ["model.json"]),
        "forecast": (["--panel", "{d}/panel.csv", *COMMON, *PLAN, "--estimator", "lasso",
                      "--origins", "2018-04-20:2018-04-25"], ["forecasting"],
                     ["forecasts.csv"]),
        "evaluate": (["--forecast=ols={d}/ols/forecasts.csv",
                      "--forecast=lasso={d}/lasso/forecasts.csv", "--benchmark", "ols"],
                     ["evaluation", "forecasting"], ["evaluation.csv"]),
        "granger": (["--panel", "{d}/panel.csv", *COMMON], ["granger"],
                    ["granger_matrix.csv", "granger_edges.csv", "granger_failures.csv",
                     "granger_network.dot"]),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_runs_loading_only_its_own_modules(self, tmp_path, command_inputs, command):
        args, own, outputs = self.RUNS[command]
        argv = [command, *(a.format(d=command_inputs) for a in args), "--out", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", FRESH_CHILD, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.strip().splitlines()[-1])
        assert code == 0, done.stderr
        assert loaded == sorted(self.SHARED + [f"sparsevar.{m}" for m in own])
        for name in outputs:
            assert (tmp_path / name).is_file(), name


def domain_errors():
    """Every ``*Error`` class that a sparsevar module defines."""
    found = []
    for info in pkgutil.iter_modules(sparsevar.__path__):
        module = importlib.import_module(f"sparsevar.{info.name}")
        found += [cls for name, cls in vars(module).items() if name.endswith("Error")
                  and isinstance(cls, type) and cls.__module__ == module.__name__]
    return found


class TestErrorMapping:
    def test_every_domain_error_but_config_error_is_a_sparsevar_error(self):
        errors = domain_errors()
        assert sorted(cls.__name__ for cls in errors) == [
            "ConfigError", "CvError", "EvaluationError", "ForecastError", "GrangerError",
            "IngestionError", "LassoError", "PanelError", "SyntheticError"]
        for cls in errors:
            assert issubclass(cls, SparsevarError) == (cls is not ConfigError), cls

    def test_each_domain_error_is_exit_1(self, tmp_path, capsys, monkeypatch):
        for cls in [*domain_errors(), SparsevarError]:
            if cls is ConfigError:
                continue

            def fail(cfg, cls=cls):
                raise cls(f"{cls.__name__} raised")

            monkeypatch.setitem(COMMANDS, "simulate", (fail, *COMMANDS["simulate"][1:]))
            assert main(["simulate", "--out", str(tmp_path)]) == 1
            assert json.loads(capsys.readouterr().err) == {
                "error": "runtime", "message": f"{cls.__name__} raised"}

    @pytest.mark.parametrize("exc", [ValueError, TypeError])
    def test_other_errors_propagate(self, tmp_path, monkeypatch, exc):
        def fail(cfg):
            raise exc("not a domain error")

        monkeypatch.setitem(COMMANDS, "simulate", (fail, *COMMANDS["simulate"][1:]))
        with pytest.raises(exc, match="not a domain error"):
            main(["simulate", "--out", str(tmp_path)])

    def test_input_file_that_is_not_utf8_is_a_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"date,\xe9\n2020-01-01,1.0\n")
        assert main(["granger", "--panel", str(path), "--lag", "1",
                     "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "runtime",
                       "message": f"{path}: not UTF-8 text (invalid continuation byte)"}


def test_package_names_load_on_first_use():
    import sparsevar
    from sparsevar import cv, simulate, synthetic

    assert simulate is synthetic.simulate
    assert sparsevar.select_lambda is cv.select_lambda
    for name in sparsevar.__all__:  # a stale export fails here
        getattr(sparsevar, name)
    with pytest.raises(AttributeError):
        sparsevar.parallel_map


class TestParser:
    @staticmethod
    def actions(parser, command):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return [(a.option_strings, a.dest, a.type, a.choices, a.default, type(a))
                for a in sub.choices[command]._actions]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_one_subcommands_parser_has_the_full_parsers_actions(self, command):
        full, one = build_parser(), build_parser(command)
        assert self.actions(one, command) == self.actions(full, command)
        assert len(self.actions(one, command)) > 3
        assert not any(self.actions(one, other) for other in COMMANDS if other != command)
        assert one.format_help() == full.format_help()

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        listed = capsys.readouterr().out.split("positional arguments:")[1]
        assert [line.split()[0] for line in listed.splitlines()[2:9]] == [
            "simulate", "ingest", "cv", "fit", "forecast", "evaluate", "granger"]

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["fitt", "--lag", "2"])
        assert exit_.value.code == 2
        assert "invalid choice: 'fitt'" in capsys.readouterr().err

    @pytest.mark.parametrize("origins", ["20200102:2020-01-10", "2020-01-02:2020-W02-5"])
    def test_origins_other_than_yyyy_mm_dd_are_rejected(self, capsys, origins):
        # Python 3.11's date.fromisoformat reads 20200102 and 2020-W02-5 (2020-01-10)
        with pytest.raises(SystemExit) as exit_:
            main(["forecast", "--origins", origins])
        assert exit_.value.code == 2
        assert "expected START:END ISO dates" in capsys.readouterr().err


def config_messages(capsys, argv):
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    return err["messages"]


@pytest.fixture
def panel_csv(tmp_path):
    spec = SyntheticSpec(k=2, p=1, t=120,
                         recipe=SparseRecipe(density=0.5, magnitude=0.3, seed=3), seed=3)
    path = tmp_path / "panel.csv"
    write_panel_csv(simulate(spec)[0], path)
    return str(path)


class TestConfigErrors:
    def test_cv_rejects_ols_with_the_other_problems(self, tmp_path, capsys):
        messages = config_messages(capsys, ["cv", "--estimator", "ols",
                                            "--out", str(tmp_path / "out")])
        assert messages == ["missing required option --panel", "missing required option --lag",
                            "--estimator 'ols': cv selects the penalty of lasso or fgls-lasso"]
        assert not (tmp_path / "out").exists()

    # each panel command's own check among the shared ones: no --out, no --lag, a panel
    # that does not exist, a bad --tol; listed in this order, all in one error
    @pytest.mark.parametrize("argv,expected", [
        (["cv", "--estimator", "ols"],
         ["--tol", "--estimator 'ols': cv selects the penalty of lasso or fgls-lasso"]),
        (["fit", "--estimator", "ols", "--lambda", "0.5"],
         ["--lambda 0.5: --estimator ols fits no penalty", "--tol"]),
        (["forecast", "--estimator", "ols", "--lambda", "0.5"],
         ["missing required option --origins", "--panel",
          "--lambda 0.5: --estimator ols fits no penalty", "--tol"]),
        (["granger", "--threshold", "2"], ["--tol", "--threshold must be in [0, 1], got 2.0"]),
    ])
    def test_panel_command_lists_every_problem_in_order(self, tmp_path, capsys, argv, expected):
        missing = str(tmp_path / "missing.csv")
        shared = {"--panel": f"--panel: path does not exist: {missing}",
                  "--tol": "tol must be finite and > 0, got -1.0"}
        head = ["missing required option --out", "missing required option --lag"]
        if "--panel" not in expected:
            head.append(shared["--panel"])
        messages = config_messages(capsys, [*argv, "--panel", missing, "--tol", "-1"])
        assert messages == head + [shared.get(m, m) for m in expected]

    @pytest.mark.parametrize("argv", [
        ["ingest", "--prices", "missing.csv"],
        ["cv", "--lag", "2"],
        ["fit", "--lag", "1", "--estimator", "lasso", "--panel", "{panel}", "--min-train", "1"],
        ["forecast", "--lag", "1", "--estimator", "ols", "--panel", "{panel}"],
        ["evaluate", "--forecast", "a=missing.csv"],
        ["granger", "--lag", "1", "--panel", "{panel}", "--threshold", "-1"],
    ])
    def test_config_error_leaves_no_output_directory(self, tmp_path, capsys, panel_csv, argv):
        out = tmp_path / "out"
        assert main([*(a.format(panel=panel_csv) for a in argv), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, command_inputs, command,
                                            under):
        # an --out that names a file, or a path under one, fails in the config step (exit 2)
        # with a run that is otherwise valid, before any input is read; the file is kept
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if under else taken
        args = [a.format(d=command_inputs) for a in TestFreshProcess.RUNS[command][0]]
        assert config_messages(capsys, [command, *args, "--out", str(out)]) == [
            f"--out {out}: {taken} is not a directory"]
        assert taken.read_text() == "kept\n"

    def test_out_that_cannot_be_a_directory_is_listed_with_the_other_problems(self, tmp_path,
                                                                              capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert config_messages(capsys, ["fit", "--tol", "-1", "--out", str(taken)]) == [
            "missing required option --panel", "missing required option --lag",
            "missing required option --estimator", f"--out {taken}: {taken} is not a directory",
            "tol must be finite and > 0, got -1.0"]

    def test_evaluate_lists_every_bad_forecast_option(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        messages = config_messages(capsys, [
            "evaluate", "--forecast", "bad", "--forecast", f"a={missing}",
            "--forecast", f"a={missing}", "--benchmark", "zz", "--out", str(tmp_path / "out")])
        assert messages == ["--forecast expects NAME=PATH, got 'bad'",
                            "duplicate --forecast name 'a'",
                            f"forecast file for 'a' does not exist: {missing}",
                            "--benchmark 'zz' is not among the forecast names"]
        assert not (tmp_path / "out").exists()

    def test_ingest_lists_every_bad_input_option(self, tmp_path, capsys):
        messages = config_messages(capsys, ["ingest", "--sentiment", "bad", "--trends", "alsobad",
                                            "--out", str(tmp_path / "out")])
        assert messages == ["missing required option --prices",
                            "--sentiment expects NAME=PATH, got 'bad'",
                            "--trends expects NAME=PATH, got 'alsobad'"]
        assert not (tmp_path / "out").exists()

    def test_cv_rejects_unknown_estimator_from_config(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": "fgls"}))
        messages = config_messages(capsys, ["cv", "--config", str(config), "--panel", panel_csv,
                                            "--lag", "1", "--out", str(tmp_path / "out")])
        assert messages == ["--estimator 'fgls': cv selects the penalty of lasso or fgls-lasso"]

    def test_unknown_config_key_is_named(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lamda": 0.1, "lag": 1, "seeed": 3}))
        messages = config_messages(capsys, ["cv", "--config", str(config), "--panel", panel_csv,
                                            "--out", str(tmp_path / "out")])
        assert messages == ["config key 'lamda' is not an option of cv",
                            "config key 'seeed' is not an option of cv"]
        assert not (tmp_path / "out").exists()

    def test_threads_is_no_longer_an_option(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": 2}))
        messages = config_messages(capsys, [
            "forecast", "--config", str(config), "--panel", panel_csv, "--lag", "1",
            "--estimator", "ols", "--origins", "2018-04-01:2018-04-05",
            "--out", str(tmp_path / "out")])
        assert messages == ["config key 'threads' is not an option of forecast"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["forecast", "--threads", "2"])
        assert exc.value.code == 2

    def test_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"lag": "\xe9"}')
        assert config_messages(capsys, ["cv", "--config", str(config)]) == [
            f"config file is not UTF-8 text: {config}"]

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([["lam", 0.1]]))
        assert config_messages(capsys, ["cv", "--config", str(config)]) == [
            "config file must hold one JSON object"]

    def test_known_config_keys_are_used(self, tmp_path, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lag": 1, "lam": 0.05, "estimator": "lasso"}))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config), "--panel", panel_csv,
                     "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["p"] == 1 and model["solver"]["lambda"] == 0.05

    def test_fit_rejects_bad_estimator_from_config(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": "fgls"}))
        messages = config_messages(capsys, ["fit", "--config", str(config), "--panel", panel_csv,
                                            "--lag", "1", "--out", str(tmp_path / "out")])
        assert messages == [
            "config key 'estimator': 'fgls' is not one of 'ols', 'lasso', 'fgls-lasso'"]
        assert not (tmp_path / "out").exists()

    def test_forecast_rejects_bad_refit_policy_from_config(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"refit_policy": "never"}))
        messages = config_messages(capsys, [
            "forecast", "--config", str(config), "--panel", panel_csv, "--lag", "1",
            "--estimator", "lasso", "--origins", "2018-04-01:2018-04-05",
            "--out", str(tmp_path / "out")])
        assert messages == [
            "config key 'refit_policy': 'never' is not one of 'first', 'per_origin'"]

    def test_every_bad_config_value_is_listed(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"refit_policy": "never", "estimator": "ridge", "lag": 1}))
        messages = config_messages(capsys, [
            "forecast", "--config", str(config), "--panel", panel_csv,
            "--origins", "2018-04-01:2018-04-05", "--out", str(tmp_path / "out")])
        assert messages == [
            "config key 'estimator': 'ridge' is not one of 'ols', 'lasso', 'fgls-lasso'",
            "config key 'refit_policy': 'never' is not one of 'first', 'per_origin'"]

    def test_config_value_of_wrong_type_is_a_config_error(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_splits": "two", "lag": 1}))
        messages = config_messages(capsys, ["cv", "--config", str(config), "--panel", panel_csv,
                                            "--out", str(tmp_path / "out")])
        assert messages == ["config key 'n_splits': 'two' is not a valid int"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--lambda", "nan", "lambda must be finite and >= 0, got nan"),
        ("--lambda", "inf", "lambda must be finite and >= 0, got inf"),
        ("--tol", "inf", "tol must be finite and > 0, got inf"),
    ])
    def test_non_finite_penalty_or_tolerance_is_a_config_error(self, tmp_path, capsys, panel_csv,
                                                              option, value, message):
        out = tmp_path / "out"
        messages = config_messages(capsys, ["fit", "--panel", panel_csv, "--lag", "1",
                                            "--estimator", "lasso", option, value,
                                            "--out", str(out)])
        assert messages == [message]
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("command,output", [("fit", "model.json"),
                                                ("forecast", "forecasts.csv")])
    def test_ols_rejects_a_nonzero_penalty(self, tmp_path, capsys, panel_csv, command, output):
        args = [command, "--panel", panel_csv, "--lag", "1", "--estimator", "ols"]
        if command == "forecast":
            args += ["--origins", "2018-04-01:2018-04-05"]
        assert config_messages(capsys, [*args, "--lambda", "0.5", "--out", str(tmp_path / "a")]) \
            == ["--lambda 0.5: --estimator ols fits no penalty"]
        assert not (tmp_path / "a" / output).exists()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lam": 0.25}))
        assert config_messages(capsys, [*args, "--config", str(config),
                                        "--out", str(tmp_path / "b")]) \
            == ["--lambda 0.25: --estimator ols fits no penalty"]
        # a zero penalty is OLS, so it is accepted and changes nothing
        assert main([*args, "--lambda", "0", "--out", str(tmp_path / "zero")]) == 0
        assert main([*args, "--out", str(tmp_path / "none")]) == 0
        assert ((tmp_path / "zero" / output).read_bytes()
                == (tmp_path / "none" / output).read_bytes())

    def test_every_bad_config_type_is_listed(self, tmp_path, capsys, panel_csv):
        # 1.5 is not an int on the command line, so it is not truncated to 1 here
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lag": 1.5, "lam": "big", "estimator": "ridge",
                                      "tol": 1e-9, "max_sweeps": "200"}))
        messages = config_messages(capsys, ["fit", "--config", str(config), "--panel", panel_csv,
                                            "--out", str(tmp_path / "out")])
        assert messages == [
            "config key 'lag': 1.5 is not a valid int",
            "config key 'lam': 'big' is not a valid float",
            "config key 'estimator': 'ridge' is not one of 'ols', 'lasso', 'fgls-lasso'"]


    @pytest.mark.parametrize("command,key,value,expected", [
        ("cv", "grid", 10, "expected N,RATIO, N >= 1, 0 < RATIO < 1: '10'"),
        ("cv", "grid", [50, 0.001],
         "expected N,RATIO, N >= 1, 0 < RATIO < 1: '[50, 0.001]'"),
        ("forecast", "origins", 5, "expected START:END ISO dates: '5'"),
    ])
    def test_grid_and_origins_of_wrong_json_type(self, tmp_path, capsys, panel_csv,
                                                 command, key, value, expected):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value, "lag": 1}))
        messages = config_messages(capsys, [
            command, "--config", str(config), "--panel", panel_csv,
            "--estimator", "lasso", "--out", str(tmp_path / "out")])
        assert messages == [f"config key {key!r}: {expected}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["simulate", "--threshold", "0.1"],
                                      ["evaluate", "--lag", "2"]])
    def test_subcommand_rejects_options_it_does_not_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        config = tmp_path / "config.json"
        key = argv[1].lstrip("-")
        config.write_text(json.dumps({key: float(argv[2])}))
        messages = config_messages(capsys, [argv[0], "--config", str(config),
                                            "--out", str(tmp_path / "out")])
        assert messages == [f"config key {key!r} is not an option of {argv[0]}"]
        assert not (tmp_path / "out").exists()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCvCommand:
    def test_excluded_penalties_are_written(self, tmp_path, panel_csv):
        # exact solves settle every penalty of 20 regressors or fewer before
        # any sweep (lag 10 excludes nothing). At lag 11 (22 regressors) the
        # dense points are beyond admission and need sweeps: one sweep misses
        # at the fourth point in fold 0 and at the last in both folds. The third
        # point settles in both folds on the pattern predicted from the two before
        argv = ["cv", "--panel", panel_csv, "--lag", "11", "--grid", "5,0.01",
                "--n-splits", "2", "--test-size", "20"]
        with pytest.warns(UserWarning, match="excluded"):
            assert main([*argv, "--tol", "1e-14", "--max-sweeps", "1",
                         "--out", str(tmp_path / "capped")]) == 0
        report = read_csv(tmp_path / "capped" / "cv_report.csv")
        lams = [row[0] for row in report[1:-1:2]]
        assert report[0] == ["lambda", "fold", "loss"] and len(lams) == 5
        assert all(row[2] == "" for row in report[7:-1])
        assert all(row[2] != "" for row in report[1:7])
        excluded = read_csv(tmp_path / "capped" / "cv_excluded.csv")
        assert excluded == [["lambda", "reason"],
                            [lams[3], "fit did not converge in fold 0"],
                            [lams[4], "fit did not converge in fold 0, 1"]]
        assert main([*argv, "--out", str(tmp_path / "free")]) == 0
        assert read_csv(tmp_path / "free" / "cv_excluded.csv") == [["lambda", "reason"]]


class TestEvaluateCommand:
    def test_forecast_file_missing_a_column_is_a_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "extra.csv"
        path.write_text("origin,horizon,series,forecast,extra\n2020-01-10,1,a,0.5,x\n")
        assert main(["evaluate", f"--forecast=m={path}", "--out", str(tmp_path / "eval")]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime" and "need columns" in err["message"]
        assert not (tmp_path / "eval" / "evaluation.csv").exists()


class TestIngestCommand:
    def test_sentiment_file_missing_a_column_is_a_runtime_error(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text("date,btc\n2021-03-01,100\n2021-03-02,101\n2021-03-03,99\n")
        items = tmp_path / "items.csv"
        items.write_text("time,valence_sum,extra\n2021-03-02T09:00:00,4.0,x\n")
        argv = ["ingest", "--prices", str(prices), f"--sentiment=tw={items}",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime" and "need columns" in err["message"]
        assert not (tmp_path / "out" / "panel.csv").exists()


class TestGrangerCommand:
    def test_writes_every_output(self, tmp_path):
        spec = SyntheticSpec(k=3, p=2, t=200,
                             recipe=SparseRecipe(density=0.3, magnitude=0.35, seed=5), seed=5)
        pnl, _ = simulate(spec)
        path = tmp_path / "panel.csv"
        write_panel_csv(pnl, path)
        out = tmp_path / "out"
        code = main(["granger", "--panel", str(path), "--lag", "2", "--grid", "20,0.001",
                     "--threshold", "0.05", "--out", str(out)])
        assert code == 0

        net = granger.granger_network(read_panel_csv(path), 2, threshold=0.05,
                                      cfg=LassoConfig(grid=LassoGrid(20, 1e-3)))
        matrix = read_csv(out / "granger_matrix.csv")
        assert matrix[0] == ["to", *net.variables]
        written = np.array([[np.nan if v == "NA" else float(v) for v in row[1:]]
                            for row in matrix[1:]])
        np.testing.assert_array_equal(written, net.p_matrix)
        edges = read_csv(out / "granger_edges.csv")
        assert edges[0] == ["from", "to", "p_value"]
        assert [(s, t, float(p)) for s, t, p in edges[1:]] == [
            (e.source, e.target, e.p_value) for e in net.edges]
        assert read_csv(out / "granger_failures.csv") == [["from", "to", "reason"]]
        dot = (out / "granger_network.dot").read_text(encoding="utf-8")
        assert dot.startswith("digraph granger {") and dot.count("->") == len(net.edges)

    def test_failures_file_lists_skipped_pairs(self, tmp_path):
        spec = SyntheticSpec(k=2, p=2, t=200,
                             recipe=SparseRecipe(density=0.3, magnitude=0.35, seed=5), seed=5)
        pnl, _ = simulate(spec)
        path = tmp_path / "panel.csv"
        values = np.column_stack([pnl.values, pnl.values[:, 0]])
        write_panel_csv(TimePanel(pnl.dates, ("a", "b", "a_copy"), values), path)
        out = tmp_path / "out"
        assert main(["granger", "--panel", str(path), "--lag", "2", "--grid", "20,0.001",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "granger_failures.csv")
        net = granger.granger_network(read_panel_csv(path), 2,
                                      cfg=LassoConfig(grid=LassoGrid(20, 1e-3)))
        assert net.failures
        assert rows == [["from", "to", "reason"], *[list(f) for f in net.failures]]


# sha256 of every file the pipeline below writes, recorded before the output writers
# became one and the panel commands one validation step, which must not move them. The
# three model.json files and the fgls forecasts were re-recorded when sigma_u came from the
# moments and FGLS rho from the Prais-Winsten basis: values moved by at most 4.9e-15 relative.
# Recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64); a BLAS that rounds its products
# otherwise moves the estimation digests with no fault in the writers.
PIPELINE_DIGESTS = {
    "ingest/panel.csv":
        "c36336983b33ce902a20ca6144149bf28ce06ab23bc6c88fd0ac64246547de9b",
    "sim/panel.csv":
        "183f1f7bb400e05f2c9ab4216ac9704727a47297e13cc2aa222e8c66f71e3ff2",
    "sim/truth.json":
        "36cc6f3c0ac2f3c750cb7aaca0ec0fa05d5b51045d065760f00578104f22a14c",
    "cv/cv_report.csv":
        "55064da6229ef3eefdababa88bd47fc00287860fa8c57d052640e991c4a5a8bf",
    "cv/cv_excluded.csv":
        "df68fb4d80eb51712eb30a894ce9e2e2a99ae38633287cf9d49c695e509a3577",
    "fit/model.json":
        "ba4c843bec0340f749b81bfe83a406ef90890b08cb9945cc8c23b6102088918a",
    "fit_fgls/model.json":
        "77f1ccc1b7d472f734d71f1fd778db76b9fea9c29d49b3243dbcdd2e293dc444",
    "fit_ols/model.json":
        "5d4551bf4af46fff68e92fd36b6033caf3f1b7324a361f9505c4fb695a3ce735",
    "lasso/forecasts.csv":
        "a75fe6dc1023c4cfbf65616101019cc1b881d0252b6be930c71051866c437a8d",
    "fgls/forecasts.csv":
        "adc6263a90ec1def38f436fe5ca510ba9ed47c9d7dc6cf637e2ae3fef63d8f6d",
    "ols/forecasts.csv":
        "aa7517d99880b518cb52acc09edd4418fedb39a002f0d14000479b69ec9ae781",
    "eval/evaluation.csv":
        "74182340f21d0b1fe4e98d2b352aec6613741e0990b4799cdf41c3b21bdbcab4",
    "granger/granger_matrix.csv":
        "a728c82c5beb4905bf42277759e4deb6630ba44fa1d26578fe433fa4e762a68b",
    "granger/granger_edges.csv":
        "253b53d34221f75e07d84dc3a87ff10b26678ec1f499dfb027c7596a4d38d8da",
    "granger/granger_failures.csv":
        "4d93293beeab43da23fd7712017cdb2144c7f675cd5c03faffe6749cf2a11d28",
    "granger/granger_network.dot":
        "3839936cddfa210e7bb20aa45e5e7d306fca0db3f952d66409b09fee12239f7e",
}


def test_pipeline_end_to_end(tmp_path, command_inputs):
    """ingest; simulate -> cv -> fit (three estimators) -> forecast (three estimators) ->
    evaluate -> granger; every file written has its pinned digest, and no other is written."""
    out = tmp_path
    panel = str(out / "sim" / "panel.csv")
    common = ["--panel", panel, "--lag", "2", "--grid", "10,0.01"]
    plan = ["--n-splits", "2", "--test-size", "20"]
    origins = ["--origins", "2018-07-07:2018-07-17", "--horizons", "2"]
    d = command_inputs
    steps = [
        ["ingest", "--prices", str(d / "prices.csv"), f"--sentiment=tw={d / 'items.csv'}",
         f"--trends=gt={d / 'trends'}", "--out", str(out / "ingest")],
        ["simulate", "--k", "3", "--t", "200", "--lag", "2", "--seed", "5",
         "--out", str(out / "sim")],
        ["cv", *common, *plan, "--out", str(out / "cv")],
        ["fit", *common, *plan, "--estimator", "lasso", "--out", str(out / "fit")],
        ["fit", *common, *plan, "--estimator", "fgls-lasso", "--out", str(out / "fit_fgls")],
        ["fit", *common, "--estimator", "ols", "--out", str(out / "fit_ols")],
        ["forecast", *common, *plan, *origins, "--estimator", "lasso",
         "--refit-policy", "per_origin", "--out", str(out / "lasso")],
        ["forecast", *common, *plan, *origins, "--estimator", "fgls-lasso",
         "--refit-policy", "first", "--out", str(out / "fgls")],
        ["forecast", *common, *origins, "--estimator", "ols", "--out", str(out / "ols")],
        ["evaluate", *[f"--forecast={m}={out / m / 'forecasts.csv'}"
                       for m in ("lasso", "fgls", "ols")],
         "--benchmark", "ols", "--out", str(out / "eval")],
        ["granger", *common, "--out", str(out / "granger")],
    ]
    assert [main(argv) for argv in steps] == [0] * len(steps)
    written = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*")) if path.is_file()}
    assert written == PIPELINE_DIGESTS
    forecasts = read_csv(out / "lasso" / "forecasts.csv")
    assert len(forecasts) == 1 + 11 * 2 * 3


# simulate -> cv -> fit --estimator lasso, and an FGLS forecast, on a K=4, p=2 panel
# with AR(1) errors (m = 8: every fit of these paths can take the exact finish), then
# a cv on a K=10, p=2 panel with 500 validation points per fold, where OpenBLAS runs
# the QR of each validation design on both threads, and one on a K=20, p=2 panel with
# 2,000, where OpenBLAS threads a gemm of the actuals over them; prints a digest of
# each output file and whether the fit is exact (KKT <= 1e-12)
THREADS_CHILD = """
import hashlib, pathlib, sys
from sparsevar.cli import main
from sparsevar.lasso import VarModel, kkt_violation
from sparsevar.panel import lag_embed, read_panel_csv, standardize
out = pathlib.Path(sys.argv[1])
common = ["--panel", str(out / "sim" / "panel.csv"), "--lag", "2", "--grid", "20,0.001"]
plan = ["--n-splits", "2", "--test-size", "20"]
assert main(["simulate", "--k", "4", "--t", "200", "--lag", "2", "--seed", "6", "--error", "ar1",
             "--rho", "0.5", "--out", str(out / "sim")]) == 0
assert main(["cv", *common, *plan, "--out", str(out / "cv")]) == 0
lam = (out / "cv" / "cv_report.csv").read_text().rstrip().rsplit("= ", 1)[1]
assert main(["fit", *common, "--estimator", "lasso", "--lambda", lam,
             "--out", str(out / "fit")]) == 0
assert main(["forecast", *common, *plan, "--origins", "2018-07-07:2018-07-17", "--horizons", "2",
             "--estimator", "fgls-lasso", "--refit-policy", "first", "--out", str(out / "fgls")]) == 0
assert main(["simulate", "--k", "10", "--t", "1500", "--lag", "2", "--seed", "7",
             "--out", str(out / "wide")]) == 0
assert main(["cv", "--panel", str(out / "wide" / "panel.csv"), "--lag", "2", "--n-splits", "2",
             "--test-size", "500", "--out", str(out / "wide_cv")]) == 0
assert main(["simulate", "--k", "20", "--t", "4500", "--lag", "2", "--seed", "8",
             "--out", str(out / "k20")]) == 0
assert main(["cv", "--panel", str(out / "k20" / "panel.csv"), "--lag", "2", "--n-splits", "1",
             "--test-size", "2000", "--out", str(out / "k20_cv")]) == 0
for rel in ("cv/cv_report.csv", "cv/cv_excluded.csv", "fit/model.json", "fgls/forecasts.csv",
            "wide_cv/cv_report.csv", "k20_cv/cv_report.csv"):
    print(hashlib.sha256((out / rel).read_bytes()).hexdigest())
model = VarModel.from_json((out / "fit" / "model.json").read_text())
embed = lag_embed(standardize(read_panel_csv(str(out / "sim" / "panel.csv")))[0], 2)
print(kkt_violation(model, embed) <= 1e-12)
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    children = [subprocess.Popen([sys.executable, "-c", THREADS_CHILD, str(tmp_path / threads)],
                                 stdout=subprocess.PIPE, text=True,
                                 env=dict(os.environ, PYTHONPATH=src,
                                          OPENBLAS_NUM_THREADS=threads))
                for threads in ("1", "2")]
    outs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outs[0].split()[-1] == "True" and len(outs[0].split()) == 7 and outs[0] == outs[1]

