"""Robust causal transform coding for networked LQG control over delay-loss channels.

A library plus CLI for designing channel-optimized causal transform codes,
allocating quantizer rates, evaluating analytic AM-WMSE / LQG costs, and
validating them against closed-loop Monte Carlo simulation.
"""
from .channel import (AvailabilityStats, ChannelModel, availability_marginals,
                      availability_stats, channel_moments, loss_probabilities,
                      sample_availability_bits)
from .codec import (CausalTransform, decode_batch, encode_batch, plt_design,
                    quantizer_input_variances)
from .design import (DesignProblem, DesignResult, DesignResults, SearchConfig, design_code,
                     effective_variances, hooke_jeeves, load_design, save_design)
from .harness import ConfigError, ExperimentConfig, ResultRow, run_experiment, write_csv
from .lqg import (REPLICAS, ControllerSolution, LqgWeights, PlantModel,
                  RiccatiConvergenceError, SimulationResult, SimulationResults, am_wmse,
                  analytic_lqg_cost, ce_gain, controller_solution, loop_pole,
                  pilot_state_variance, replica_lengths, riccati_residual,
                  simulate_closed_loop, solve_riccati, weight_req)
from .quantizers import (InfeasibleRateError, QuantizerBank, RateAllocation,
                         ScalarCodebook, allocate_rates, clamp_rates, lloyd_max_gaussian)
from .sources import (GaussMarkovModel, StationarityError, ar1_covariance,
                      sample_path, validate_covariance)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
