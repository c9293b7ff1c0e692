"""Per-call cost of single layers across grid sizes, on closed-form states.

Every function is timed on ``exact_state(1.0, sine(), n)`` for each n, so the
inputs are the same at every commit.  A value is the median over batches of
the mean time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

SIZES = (256, 512, 1024, 2048, 4096)
BATCHES = 5
FUNCTIONS = (
    "convolution.node_convolutions",
    "quadrature.fd_derivative",
    "nonlinear.nl_rhs",
    "energetics.energies",
    "linear.exact_state",
    "cli.write_state_csv",
)

#: figures from ROADMAP item 1 (same 2-CPU class of machine), in microseconds
ROADMAP_US = {
    "energetics.energies.us_n512": 600.0,
    "linear.exact_state.us_n256": 180.0,
    "linear.exact_state.us_n4096": 660.0,
    "cli.write_state_csv.us_n256": 5000.0,
    "cli.write_state_csv.us_n4096": 75000.0,
}
#: ROADMAP item 1: one nonlinear RK4 step (four stages plus the combine)
ROADMAP_RK4_STEP_US = {256: 1260.0, 512: 1230.0, 1024: 1550.0, 2048: 2080.0}


def _per_call_us(call, batches: int, batch_s: float) -> float:
    start = time.perf_counter()
    call()  # also warms caches
    once = time.perf_counter() - start
    per_batch = max(1, int(batch_s / max(once, 1e-9)))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(per_batch):
            call()
        samples.append((time.perf_counter() - start) / per_batch)
    return statistics.median(samples) * 1e6


def run_sweep(pkg, work: Path, batches: int = BATCHES) -> dict:
    """{metric name: microseconds per call} for every function and size.

    A batch repeats the call for about 20 ms; one batch of one call is the
    cheapest setting, for smoke runs.
    """
    batch_s = 0.02 if batches > 1 else 0.0
    ic = pkg.sine()
    out = {}
    for n in SIZES:
        state = pkg.exact_state(1.0, ic, n)
        g = (state.V * state.V + 0.5 * state.U * state.U) * state.J
        csv = work / f"sweep_n{n}.csv"
        calls = {
            "convolution.node_convolutions":
                lambda: pkg.convolution.node_convolutions(state.s, state.X, state.V,
                                                          state.U, state.J),
            "quadrature.fd_derivative": lambda: pkg.quadrature.fd_derivative(state.s, g),
            "nonlinear.nl_rhs": lambda: pkg.nl_rhs(state),
            "energetics.energies": lambda: pkg.energies(state),
            "linear.exact_state": lambda: pkg.exact_state(1.0, ic, n),
            "cli.write_state_csv": lambda: pkg.cli.write_state_csv(csv, state),
        }
        for fn in FUNCTIONS:
            out[f"{fn}.us_n{n}"] = _per_call_us(calls[fn], batches, batch_s)
        csv.unlink()
    return out


def roadmap_lines(sweep: dict) -> list:
    """Sweep results beside the ROADMAP item 1 baselines, as printable lines."""
    lines = [f"{name}: {sweep[name]:.1f} us (ROADMAP {base:.0f} us)"
             for name, base in ROADMAP_US.items()]
    lines += [f"4 x nonlinear.nl_rhs.us_n{n}: {4 * sweep[f'nonlinear.nl_rhs.us_n{n}']:.1f} us "
              f"(ROADMAP RK4 step {base:.0f} us)" for n, base in ROADMAP_RK4_STEP_US.items()]
    return lines
