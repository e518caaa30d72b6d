"""Reference design search: scipy's L-BFGS-B over the encoder, as `design_code` once ran it.

The search starts at the prediction-based encoder, minimizes the design
objective (`objective_of`) divided by its value there with the same GTOL and FTOL
and a budget of 100,000 evaluations, and keeps the lowest value it
evaluated.  It shares the objective with `rctc.design.design_code` but not
the minimizer, so it is the oracle the in-house L-BFGS is checked against.
`lbfgs` drives the in-house L-BFGS state machine over one plain function,
for the tests of the method on its own.
"""
import numpy as np
from scipy.optimize import minimize

from rctc.codec import plt_design
from rctc.design import (FTOL, GTOL, DesignProblem, _lbfgs_search, _reduced_objective,
                         pack_parameters)


def lbfgs(fun, x0) -> tuple[np.ndarray, float, bool]:
    """Minimize fun(x) -> (value, gradient) by `rctc.design._lbfgs_search`.

    Returns (x, value, cap_reached), where cap_reached says MAX_ITERATIONS
    ran out first.
    """
    search = _lbfgs_search(x0)
    x = next(search)
    while True:
        try:
            x = search.send(fun(x))
        except StopIteration as stop:
            return stop.value


def objective_of(problem: DesignProblem):
    """objective(params) -> (J, gradient of J, optimal decoder parameters) of one problem.

    J is the uniform-rate AM-MSE of the free encoder parameters, minimized
    over the decoder: the stacked design objective called with this problem
    alone.
    """
    evaluate = _reduced_objective([problem])
    index = np.zeros(1, dtype=int)

    def objective(params):
        J, gradient, decoder = evaluate(index, np.asarray(params, dtype=float)[None])
        return float(J[0]), gradient[0], decoder[0]

    return objective


def reference_search(problem: DesignProblem) -> float:
    """The lowest objective value the search evaluated."""
    objective = objective_of(problem)
    start = pack_parameters(plt_design(problem.K_x)[0], problem.structure)
    best = scale = objective(start)[0]

    def scaled(x):
        nonlocal best
        value, gradient, _ = objective(x)
        best = min(best, value)
        return value / scale, gradient / scale

    minimize(scaled, start, jac=True, method="L-BFGS-B",
             options={"maxfun": 100_000, "gtol": GTOL, "ftol": FTOL})
    return best
