"""The paper's claims as windows: one row per window the acceptance suite asserts.

Each ``Claim`` row names one measured quantity, the closed window
[low, high] it must fall in, the least r² its log-log fit must reach
where one is asserted, the seeds it is held at, and the function of
``tests/test_acceptance.py`` that asserts it.  That module reads every
two-sided window and r² floor from here and writes none as a literal;
README's acceptance section quotes each row; ``tests/test_harness.py``
holds both to this table.  A ``c ± e`` window is stored as its two ends.

Stdlib only, and imports nothing from ``odenet``, so that any script in
the checkout can read the windows.
"""

from dataclasses import dataclass
from typing import Optional

# The seeds each order law is held at.
SEEDS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    low: float
    high: float
    r2_min: Optional[float]  # None where no r² floor is asserted
    seeds: tuple             # () for a run that draws no random numbers
    test: str                # the function of tests/test_acceptance.py that asserts it


_ROWS = (
    # The chain-to-ODE gap: 1/N on depth-smooth residuals, flat without them.
    Claim("approx_error_slope",
          "slope of the chain-to-ODE gap `approx_max_error` over N = 16..1024 on the "
          "default study (mlp(4, 8), `lipschitz_profile`, scale 0.25)",
          -1.25, -0.8, 0.95, SEEDS,
          "test_chain_to_ode_gap_decays_at_first_order_on_the_default_study"),
    Claim("residual_interp_slope",
          "slope of an alternating mlp(4, 8) chain's gap to its residual-interpolated "
          "ODE over N = 16..256",
          -1.1, -0.9, 0.99, SEEDS,
          "test_weight_interpolated_gap_does_not_close_on_a_rough_mlp_schedule"),
    Claim("index_gap_limit",
          "gap at N = 1000 between the identity chain on the index schedule "
          "theta_n = n and its residual-interpolated ODE",
          0.49, 0.51, None, (),
          "test_rough_schedule_gaps_reach_their_limits"),
    Claim("alternating_gap_limit",
          "gap at N = 1000 between the square chain on an alternating ±1 schedule "
          "and its weight-interpolated ODE",
          2.0 / 3.0 - 1e-2, 2.0 / 3.0 + 1e-2, None, (),
          "test_rough_schedule_gaps_reach_their_limits"),
    # The memory-free adjoint: first and second order for Euler, N^-3 and
    # N^-4 for Heun on smooth schedules only.
    Claim("euler_recon_slope",
          "slope of Euler's memory-free reconstruction error `recon_max_error` "
          "over N = 16..1024 on `lipschitz_profile`",
          -1.25, -0.8, 0.95, SEEDS,
          "test_euler_reconstruction_error_decays_at_first_order"),
    Claim("euler_grad_slope",
          "slope of Euler's memory-free gradient error `grad_max_abs_error` "
          "over N = 16..1024 on `lipschitz_profile`",
          -2.3, -1.7, 0.95, SEEDS,
          "test_euler_gradient_error_decays_at_second_order"),
    Claim("heun_smooth_recon_slope",
          "slope of Heun's memory-free reconstruction error `recon_max_error` "
          "over N = 16..1024 on `lipschitz_profile`",
          -3.4, -2.6, 0.95, SEEDS,
          "test_heun_smooth_reconstruction_error_decays_at_third_order"),
    Claim("heun_smooth_grad_slope",
          "slope of Heun's memory-free gradient error `grad_max_abs_error` "
          "over N = 16..1024 on `lipschitz_profile`",
          -4.4, -3.6, 0.95, SEEDS,
          "test_heun_smooth_gradient_error_decays_near_fourth_order"),
    Claim("heun_alternating_grad_slope",
          "slope of Heun's memory-free gradient error `grad_max_abs_error` "
          "over N = 16..1024 on `alternating`",
          -2.3, -1.7, 0.95, SEEDS,
          "test_heun_alternating_gradient_error_falls_back_to_second_order"),
    Claim("round_trip_ratio",
          "relative error of the x_0 the memory-free sweep rebuilds over its "
          "gradients' largest relative error, all 256 cases",
          0.2, 5.0, None, SEEDS,
          "test_memory_free_round_trip_tracks_the_gradient_error"),
    # Gradient flow keeps the linear ResNet within O(1/N) of a limit ODE.
    Claim("doubling_ratio",
          "ratio of successive depth-doubling distances of the `limit_map` flow, "
          "N = 16, 32, 64",
          0.35, 0.7, None, (0,),
          "test_depth_doubling_distances_halve"),
    Claim("limit_map_slope",
          "slope of each sampled time's distance to the deepest `limit_map` run",
          -1.3, -0.7, None, (0,),
          "test_limit_profile_rate_and_product_discrepancy"),
    Claim("cell_centre_slope",
          "slope of the cell-centre distance between depths N and 2N after "
          "gradient flow to t = 2",
          -1.1, -0.9, None, SEEDS,
          "test_trained_layers_approach_the_limit_ode_at_first_order"),
    Claim("richardson_slope",
          "slope of the Richardson limit weights' cell-centre distance after "
          "gradient flow to t = 2",
          -2.15, -1.85, None, SEEDS,
          "test_trained_layers_approach_the_limit_ode_at_first_order"),
    Claim("sampling_slope",
          "slope of the cell-centre distance between depths N and 2N at t = 0",
          -2.15, -1.85, None, SEEDS,
          "test_trained_layers_approach_the_limit_ode_at_first_order"),
)

CLAIMS = {row.id: row for row in _ROWS}
