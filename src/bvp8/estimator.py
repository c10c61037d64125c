"""Estimator-style front end: configure once, fit a problem, evaluate anywhere.

The solver maps cleanly onto the fit/predict protocol: fitting runs the
least-squares collocation solve and stores the coefficient vector, predicting
evaluates the fitted analytical expression (or any of its derivatives).  The
parameter handling follows the scikit-learn conventions (get_params,
set_params, trailing-underscore fitted attributes) without depending on
scikit-learn itself.
"""

from __future__ import annotations

import dataclasses

from .errors import NotFittedError
from .solver import BvpProblem, SolverConfig, solve

#: Parameter names and defaults, one per SolverConfig field.
_DEFAULTS = {field.name: field.default for field in dataclasses.fields(SolverConfig)}


class BvpSolver:
    """Least-squares collocation solver for eighth-order two-point problems.

    Parameters are the SolverConfig fields, passed by keyword with the same
    defaults, and are validated at fit time.  After fit(), `solution_` holds
    the full solution object, `report_` the solve report, and `xi_` the
    fitted coefficient vector.
    """

    def __init__(self, **params):
        self.set_params(**{**_DEFAULTS, **params})

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _DEFAULTS}

    def set_params(self, **params) -> "BvpSolver":
        for name, value in params.items():
            if name not in _DEFAULTS:
                raise ValueError(
                    f"invalid parameter {name!r} for BvpSolver; "
                    f"valid parameters are {tuple(_DEFAULTS)}"
                )
            setattr(self, name, value)
        return self

    def fit(self, problem: BvpProblem, y=None) -> "BvpSolver":
        """Solve `problem`; `y` is accepted for protocol compatibility and ignored."""
        config = SolverConfig(**self.get_params())
        self.solution_ = solve(problem, config)
        self.report_ = self.solution_.report
        self.xi_ = self.report_.xi
        return self

    def predict(self, x, order: int = 0):
        """Evaluate the fitted solution (or its order-th derivative) at x."""
        self._check_fitted()
        return self.solution_(x, order)

    def _check_fitted(self):
        if not hasattr(self, "solution_"):
            raise NotFittedError(
                "this BvpSolver instance is not fitted yet; "
                "call fit(problem) before predict"
            )

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"BvpSolver({args})"
