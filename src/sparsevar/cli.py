"""Batch command-line surface: simulate, ingest, cv, fit, forecast, evaluate, granger.

Importing it loads ``panel``, ``lasso`` and ``cv``; each command imports the rest it runs on.
Every command lists all the problems of its config in one ``ConfigError`` before it reads
an input, an --out that cannot be a directory among them; the panel commands (cv, fit,
forecast, granger) check theirs in ``_panel_command``.
Every file is written by ``panel.write_csv`` or ``panel.write_text``, which make the output
directory at the first write, so a command that fails a check leaves none."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace as dc_replace
from datetime import date

import numpy as np

from sparsevar import SparsevarError, lasso, panel
from sparsevar import cv as cv_mod


class ConfigError(ValueError):
    """Carries every configuration violation found, not only the first."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def _setup_logging() -> None:
    level = os.environ.get("SPARSEVAR_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _parse_grid(text: str) -> lasso.LassoGrid:
    try:
        n, ratio = text.split(",")
        return lasso.LassoGrid(n_points=int(n), ratio=float(ratio))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N,RATIO, N >= 1, 0 < RATIO < 1: {text!r}")


def _parse_origins(text: str) -> tuple[date, date]:
    try:
        start, end = text.split(":")
        return panel.parse_date(start), panel.parse_date(end)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:END ISO dates: {text!r}")


def _parse_named(pairs: list[str], flag: str, errors: list[str]) -> dict[str, str]:
    """``NAME=PATH`` items by name; a malformed or repeated item is added to ``errors``."""
    out: dict[str, str] = {}
    for item in pairs:
        name, eq, path = item.partition("=")
        if not eq:
            errors.append(f"{flag} expects NAME=PATH, got {item!r}")
        elif name in out:
            errors.append(f"duplicate {flag} name {name!r}")
        else:
            out[name] = path
    return out


# options of several subcommands; --config and --out come first in every one
_OPTIONS = {
    "--config": dict(help="JSON config file; flags override its keys"),
    "--out": dict(help="output directory"),
    "--lag": dict(type=int, help="VAR lag order p"),
    "--estimator": dict(choices=lasso.ESTIMATORS, help="fit flavor"),
    "--lambda": dict(dest="lam", type=float, help="fixed penalty"),
    "--grid": dict(type=_parse_grid, help="penalty grid as N,RATIO"),
    "--tol": dict(type=float, help="solver tolerance"),
    "--max-sweeps": dict(type=int, help="solver sweep cap per penalty; an exact solve that "
                                        "settles a fit before any sweep counts as one"),
    "--horizons": dict(type=int, help="max forecast horizon H"),
    "--origins": dict(type=_parse_origins, help="forecast origins as START:END (ISO dates)"),
    "--threshold": dict(type=float, help="edge p-value threshold"),
    "--seed": dict(type=int, help="random seed"),
    "--n-splits": dict(type=int, help="walk-forward folds"),
    "--test-size": dict(type=int, help="validation points per fold"),
    "--min-train": dict(type=int, help="smallest training window"),
    "--panel": dict(help="input panel CSV"),
}
_TUNING = ("--grid", "--tol", "--max-sweeps", "--n-splits", "--test-size", "--min-train")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser. Every subcommand of ``COMMANDS`` is registered by name and
    help, but only ``command``'s options, ``-h`` included, are added (every one's
    when None), the same options either way. ``option_choices`` and
    ``option_types`` hold each subcommand's choices and types by dest:
    config-file values skip argparse, so ``_merge_config`` checks them.
    """
    parser = argparse.ArgumentParser(
        prog="sparsevar",
        description="Sparse VAR estimation, tuning, forecasting and causality networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, add_help=command in (None, name))
        for option in ("--config", "--out", *options) if sp.add_help else ():
            flag, kwargs = (option, _OPTIONS[option]) if isinstance(option, str) else option
            sp.add_argument(flag, **kwargs)
    parser.option_choices, parser.option_types = (
        {name: {a.dest: getattr(a, key) for a in sp._actions if getattr(a, key) is not None}
         for name, sp in sub.choices.items()} for key in ("choices", "type"))
    return parser


def _merge_config(args: argparse.Namespace, choices: dict, types: dict) -> dict:
    """Flat config dict: file values first, then any flag explicitly set.

    The file's keys must be option names of the subcommand (``lam`` for
    ``--lambda``, ``max_sweeps`` for ``--max-sweeps``). A value of an option
    with a ``type`` is converted as its flag text would be, and the value of
    an option with ``choices`` must be one of them; one ConfigError lists
    every key that breaks a rule.
    """
    merged: dict = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError([f"config file not found: {args.config}"])
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"config file is not valid JSON: {exc}"]) from None
            except UnicodeDecodeError:
                raise ConfigError([f"config file is not UTF-8 text: {args.config}"]) from None
        if not isinstance(loaded, dict):
            raise ConfigError(["config file must hold one JSON object"])
        unknown = sorted(set(loaded) - (set(vars(args)) - {"config", "command"}))
        errors = [f"config key {key!r} is not an option of {args.command}" for key in unknown]
        for key in sorted(set(loaded) & set(types)):
            if loaded[key] is not None:
                try:
                    loaded[key] = types[key](str(loaded[key]))
                except argparse.ArgumentTypeError as exc:
                    errors.append(f"config key {key!r}: {exc}")
                except (TypeError, ValueError):
                    errors.append(f"config key {key!r}: {loaded[key]!r} is not a valid "
                                  + types[key].__name__)
        errors += [
            f"config key {key!r}: {loaded[key]!r} is not one of "
            + ", ".join(repr(c) for c in choices[key])
            for key in sorted(set(loaded) & set(choices))
            if loaded[key] not in choices[key]
        ]
        if errors:
            raise ConfigError(errors)
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in ("config", "command"):
            continue
        if value is not None and value != []:
            merged[key] = value
    return merged


def _require(cfg: dict, keys: list[str], errors: list[str]) -> None:
    """Every key of ``keys`` that is unset; with "out", an --out that cannot be a directory:
    the nearest of it and its parents that exists must be one."""
    for key in keys:
        if cfg.get(key) is None:
            errors.append(f"missing required option --{key.replace('_', '-')}")
    path = cfg.get("out") if "out" in keys else None
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        errors.append(f"--out {cfg['out']}: {path} is not a directory")


def _validate_paths(cfg: dict, keys: list[str], errors: list[str]) -> None:
    for key in keys:
        path = cfg.get(key)
        if path is not None and not os.path.exists(path):
            errors.append(f"--{key.replace('_', '-')}: path does not exist: {path}")


def _lasso_config(cfg: dict, errors: list[str]) -> lasso.LassoConfig:
    # _merge_config has already converted each value with its option's type
    kwargs = {k: cfg[k] for k in ("lam", "tol", "max_sweeps", "grid") if cfg.get(k) is not None}
    if cfg.get("estimator") == "ols" and kwargs.get("lam", 0) != 0:
        errors.append(f"--lambda {cfg['lam']:g}: --estimator ols fits no penalty")
    try:
        return lasso.LassoConfig(**kwargs)
    except lasso.LassoError as exc:
        errors.append(str(exc))
        return lasso.LassoConfig()


def _plan(cfg: dict, T: int, p: int) -> cv_mod.WalkForwardPlan:
    """The walk-forward plan of the config, defaults sized to T; raises ConfigError."""
    n_splits = int(cfg.get("n_splits", 3))
    test_size = cfg.get("test_size")
    test_size = int(test_size) if test_size is not None else max(1, T // 10)
    min_train = cfg.get("min_train")
    min_train = int(min_train) if min_train is not None else T - n_splits * test_size
    try:
        plan = cv_mod.WalkForwardPlan(n_splits=n_splits, test_size=test_size, min_train=min_train)
    except cv_mod.CvError as exc:
        raise ConfigError([str(exc)]) from None
    if min_train <= p:
        raise ConfigError([f"walk-forward min_train {min_train} must exceed lag order {p}"])
    return plan


def _panel_command(cfg: dict, required: list[str], own: list[str]) -> tuple:
    """The front door of the panel commands: every problem of the config in one ConfigError,
    listed in order (a missing --out, --panel, --lag, then the command's ``required``; a
    panel path that does not exist; the solver options; the command's ``own`` messages),
    then the panel read. Returns the output directory, the panel, the lag and the solver
    config."""
    errors: list[str] = []
    _require(cfg, ["out", "panel", "lag", *required], errors)
    _validate_paths(cfg, ["panel"], errors)
    lcfg = _lasso_config(cfg, errors)
    errors += own
    if errors:
        raise ConfigError(errors)
    return cfg["out"], panel.read_panel_csv(cfg["panel"]), int(cfg["lag"]), lcfg


def _tuning_plan(cfg: dict, pnl: panel.TimePanel, p: int,
                 origin: date | None = None) -> cv_mod.WalkForwardPlan | None:
    """The walk-forward plan that selects the penalty when the estimator is tuned and no
    --lambda is given, sized to the rows up to ``origin`` (all when None); else None."""
    if cfg["estimator"] not in lasso.TUNED or cfg.get("lam") is not None:
        return None
    return _plan(cfg, pnl.n_obs if origin is None else pnl.position(origin) + 1, p)


def cmd_simulate(cfg: dict) -> None:
    from sparsevar import synthetic
    errors: list[str] = []
    _require(cfg, ["out"], errors)
    k = int(cfg.get("k", 5))
    t = int(cfg.get("t", 500))
    p = int(cfg.get("lag", 2))
    density = float(cfg.get("density", 0.2))
    magnitude = float(cfg.get("magnitude", 0.25))
    error = cfg.get("error", "iid")
    rho = float(cfg.get("rho", 0.6 if error == "ar1" else 0.0))
    sd = float(cfg.get("sd", 1.0))
    seed = int(cfg.get("seed", 0))
    if errors:
        raise ConfigError(errors)
    spec = synthetic.SyntheticSpec(
        k=k,
        p=p,
        t=t,
        recipe=synthetic.SparseRecipe(density=density, magnitude=magnitude, seed=seed),
        error=error,
        rho=rho,
        innovation_sd=sd,
        seed=seed,
    )
    pnl, truth = synthetic.simulate(spec)
    panel.write_panel_csv(pnl, os.path.join(cfg["out"], "panel.csv"))
    panel.write_text(os.path.join(cfg["out"], "truth.json"), truth.to_json() + "\n")


def cmd_ingest(cfg: dict) -> None:
    from sparsevar import ingestion
    errors: list[str] = []
    _require(cfg, ["out", "prices"], errors)
    _validate_paths(cfg, ["prices", "volume"], errors)
    sentiment = _parse_named(cfg.get("sentiment", []), "--sentiment", errors)
    trends = _parse_named(cfg.get("trends", []), "--trends", errors)
    for name, path in {**sentiment, **trends}.items():
        if not os.path.exists(path):
            errors.append(f"input for {name!r} does not exist: {path}")
    if errors:
        raise ConfigError(errors)
    scfg = ingestion.SentimentConfig(alpha=float(cfg.get("alpha", 15.0)))
    fill = cfg.get("fill", "zero")

    prices = panel.read_panel_csv(cfg["prices"])
    returns = panel.log_returns(prices)
    window = (returns.dates[0], returns.dates[-1])
    blocks = [returns]
    if cfg.get("volume"):
        blocks.append(panel.read_panel_csv(cfg["volume"]))
    for name, path in sentiment.items():
        items = ingestion.load_scored_items_csv(path)
        blocks.append(ingestion.daily_aggregate(items, scfg, window, fill=fill, name=name))
    for name, directory in trends.items():
        chunks = ingestion.load_trend_chunks(directory)
        monthly = ingestion.load_monthly_index_csv(os.path.join(directory, "monthly.csv"))
        blocks.append(ingestion.rescale_gtrends(chunks, monthly, name=name))
    panel.write_panel_csv(_inner_join(blocks), os.path.join(cfg["out"], "panel.csv"))


def _inner_join(blocks: list[panel.TimePanel]) -> panel.TimePanel:
    """Align panels on their common contiguous date range."""
    start = max(b.dates[0] for b in blocks)
    end = min(b.dates[-1] for b in blocks)
    if end < start:
        raise ConfigError(["input date ranges do not overlap"])
    names: list[str] = []
    cols = []
    dates = None
    for b in blocks:
        i0, i1 = b.position(start), b.position(end)
        sliced = b.slice_rows(i0, i1 + 1)
        if dates is None:
            dates = sliced.dates
        elif sliced.dates != dates:
            raise ConfigError(["inputs disagree on the daily calendar"])
        names.extend(sliced.names)
        cols.append(sliced.values)
    return panel.TimePanel(dates, tuple(names), np.hstack(cols))


def cmd_cv(cfg: dict) -> None:
    estimator = cfg.get("estimator", "lasso")
    out, pnl, p, lcfg = _panel_command(cfg, [], [] if estimator in lasso.TUNED else [
        f"--estimator {estimator!r}: cv selects the penalty of " + " or ".join(lasso.TUNED)])
    plan = _plan(cfg, pnl.n_obs, p)
    _, report = cv_mod.select_lambda(pnl, p, lcfg, plan, estimator=estimator)
    cv_mod.write_cv_report_csv(report, os.path.join(out, "cv_report.csv"))
    cv_mod.write_cv_excluded_csv(report, os.path.join(out, "cv_excluded.csv"))


def cmd_fit(cfg: dict) -> None:
    out, pnl, p, lcfg = _panel_command(cfg, ["estimator"], [])
    plan = _tuning_plan(cfg, pnl, p)
    if plan is not None:
        lam, _ = cv_mod.select_lambda(pnl, p, lcfg, plan, estimator=cfg["estimator"])
        lcfg = dc_replace(lcfg, lam=lam)
    model = lasso.fit_panel_var(pnl, p, lcfg, cfg["estimator"])
    panel.write_text(os.path.join(out, "model.json"), model.to_json() + "\n")


def cmd_forecast(cfg: dict) -> None:
    from sparsevar import forecasting
    out, pnl, p, lcfg = _panel_command(cfg, ["estimator", "origins"], [])
    start, end = cfg["origins"]
    fs = forecasting.recursive_exercise(
        pnl,
        p,
        lcfg,
        cfg["estimator"],
        start,
        end,
        H=int(cfg.get("horizons", 4)),
        plan=_tuning_plan(cfg, pnl, p, start),
        refit_policy=cfg.get("refit_policy", "first"),
    )
    forecasting.write_forecast_csv(fs, os.path.join(out, "forecasts.csv"))


def cmd_evaluate(cfg: dict) -> None:
    from sparsevar import evaluation, forecasting
    errors: list[str] = []
    _require(cfg, ["out"], errors)
    if not cfg.get("forecast"):
        errors.append("need at least one --forecast NAME=PATH")
    forecasts = _parse_named(cfg.get("forecast", []), "--forecast", errors)
    for name, path in forecasts.items():
        if not os.path.exists(path):
            errors.append(f"forecast file for {name!r} does not exist: {path}")
    benchmark = cfg.get("benchmark")
    if benchmark is not None and benchmark not in forecasts:
        errors.append(f"--benchmark {benchmark!r} is not among the forecast names")
    if errors:
        raise ConfigError(errors)
    models = {name: forecasting.read_forecast_csv(path) for name, path in forecasts.items()}
    report = evaluation.evaluate_forecasts(
        models, benchmark=benchmark, mda_form=cfg.get("mda_form", "consecutive")
    )
    evaluation.write_evaluation_csv(report, os.path.join(cfg["out"], "evaluation.csv"))


def cmd_granger(cfg: dict) -> None:
    from sparsevar import granger
    threshold = float(cfg.get("threshold", 0.01))
    out, pnl, p, lcfg = _panel_command(cfg, [], [] if 0.0 <= threshold <= 1.0 else [
        f"--threshold must be in [0, 1], got {threshold}"])
    net = granger.granger_network(
        pnl,
        p=p,
        threshold=threshold,
        cfg=lcfg,
        robust=bool(cfg.get("robust", False)),
    )
    granger.write_matrix_csv(net, os.path.join(out, "granger_matrix.csv"))
    granger.write_edges_csv(net, os.path.join(out, "granger_edges.csv"))
    granger.write_failures_csv(net, os.path.join(out, "granger_failures.csv"))
    granger.write_network_dot(net, os.path.join(out, "granger_network.dot"))


# each subcommand: its function, its help, and its options after --config and --out,
# each a flag of _OPTIONS or a (flag, add_argument keywords) pair
COMMANDS = {
    "simulate": (cmd_simulate, "write a synthetic panel plus ground truth", (
        "--lag", "--seed",
        ("--k", dict(type=int, help="number of series")),
        ("--t", dict(type=int, help="sample length")),
        ("--density", dict(type=float, help="coefficient density")),
        ("--magnitude", dict(type=float, help="coefficient magnitude")),
        ("--error", dict(choices=["iid", "ar1"], help="error process")),
        ("--rho", dict(type=float, help="AR(1) error parameter")),
        ("--sd", dict(type=float, help="innovation standard deviation")))),
    "ingest": (cmd_ingest, "build a unified daily panel", (
        ("--prices", dict(help="price CSV; log returns are computed")),
        ("--volume", dict(help="volume CSV appended as-is")),
        ("--sentiment", dict(action="append", default=[], metavar="NAME=PATH",
                             help="scored-item CSV aggregated to a daily series")),
        ("--trends", dict(action="append", default=[], metavar="NAME=DIR",
                          help="directory of monthly chunk CSVs plus monthly.csv")),
        ("--alpha", dict(type=float, help="sentiment normalization constant")),
        ("--fill", dict(choices=["zero", "carry"], help="empty-day policy")))),
    "cv": (cmd_cv, "select the penalty by walk-forward loss", (
        # cmd_cv checks the estimator itself, so it is reported with every other problem
        "--lag", *_TUNING, ("--estimator", dict(help=" or ".join(lasso.TUNED))), "--panel")),
    "fit": (cmd_fit, "fit a model and write it as JSON",
            ("--lag", "--estimator", "--lambda", *_TUNING, "--panel")),
    "forecast": (cmd_forecast, "run the expanding-origin exercise", (
        "--lag", "--estimator", "--lambda", *_TUNING, "--horizons", "--origins", "--panel",
        ("--refit-policy", dict(choices=["first", "per_origin"],
                                help="penalty selection policy; the walk-forward plan fixes "
                                     "the folds, so both select the penalty once")))),
    "evaluate": (cmd_evaluate, "score forecast files", (
        ("--forecast", dict(action="append", default=[], metavar="NAME=PATH",
                            help="forecast CSV to evaluate (repeatable)")),
        ("--benchmark", dict(help="model name used as the accuracy-test baseline")),
        ("--mda-form", dict(choices=["consecutive", "origin"],
                            help="directional accuracy form")))),
    "granger": (cmd_granger, "all-pairs causality network", (
        "--lag", "--grid", "--tol", "--max-sweeps", "--threshold", "--panel",
        ("--robust", dict(action="store_true", default=None,
                          help="heteroskedasticity-robust score test")))),
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, which imports its own modules when it runs. Exit 0; 2 on a
    ConfigError, 1 on a SparsevarError or OSError, either with a JSON line on stderr."""
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, parser.option_choices[args.command],
                            parser.option_types[args.command])
        COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "messages": exc.messages}), file=sys.stderr)
        return 2
    except (SparsevarError, OSError) as exc:
        print(json.dumps({"error": "runtime", "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
