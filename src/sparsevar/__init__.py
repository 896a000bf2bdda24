"""Sparse VAR toolkit: panels, LASSO estimation, walk-forward tuning,
recursive forecasting, forecast evaluation and Granger-causality networks.

The names below are loaded on first use (PEP 562), so importing one module,
say ``sparsevar.synthetic``, loads that module's own dependencies only, and
importing the package loads no submodule: it defines only ``SparsevarError``,
the base of every module's domain error. ``sparsevar.cli`` loads ``panel``,
``lasso`` and ``cv``; each subcommand imports the rest it runs on.
"""

import importlib


class SparsevarError(ValueError):
    """Base of the modules' domain errors: invalid input or a failed computation."""


_EXPORTS = {
    "panel": (
        "TimePanel",
        "PanelError",
        "StandardizationStats",
        "LagEmbedding",
        "SummaryReport",
        "log_returns",
        "standardize",
        "destandardize",
        "lag_embed",
        "summary_stats",
    ),
    "lasso": (
        "LassoConfig",
        "LassoGrid",
        "LassoError",
        "VarModel",
        "fit_lasso_var",
        "fit_fgls_lasso_var",
        "fit_panel_var",
        "kkt_violation",
    ),
    "cv": ("WalkForwardPlan", "make_splits", "select_lambda"),
    "forecasting": ("ForecastSet", "iterate_forecast", "recursive_exercise"),
    "evaluation": ("rmse", "mda", "epa_test", "star_marks", "evaluate_forecasts"),
    "granger": ("GrangerSpec", "pds_granger", "granger_network"),
    "synthetic": ("SyntheticSpec", "make_sparse_var", "simulate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["SparsevarError", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'sparsevar' has no attribute {name!r}")
    return getattr(importlib.import_module(f"sparsevar.{module}"), name)
