"""Parameter sweeps: run a scenario across a grid of overrides."""

from __future__ import annotations

import itertools

from .engine import run
from .errors import UnknownParameterError
from .rng import derive_seed
from .scenario import Scenario, apply_overrides


def sweep(base: Scenario, grid: dict[str, list], seeds_per_point: int = 1) -> list[dict]:
    """Run every point of the cross product and aggregate its runs.

    Grid keys are dotted scenario paths. Every point's scenario is built
    before the first run, so an unknown path or an invalid value is
    rejected before anything runs. Each point runs ``seeds_per_point``
    times under seeds derived from the base seed, the point, and the
    repetition index. An empty grid degenerates to one row for the base
    scenario. Rates are aggregated over all retrievals of a point, not
    averaged per run.
    """
    if seeds_per_point < 1:
        raise UnknownParameterError("seeds_per_point must be at least 1")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise UnknownParameterError(f"grid entry {key!r} must be a non-empty list")

    keys = sorted(grid)
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    scenarios = [apply_overrides(base, point) if point else base for point in points]
    rows: list[dict] = []
    for point_index, (point, scenario) in enumerate(zip(points, scenarios)):
        retrievals = accepted = tampered = 0
        infections = 0.0
        bits = 0
        homophily_sum = 0.0
        homophily_runs = 0
        for rep in range(seeds_per_point):
            seed = derive_seed(base.seed, "sweep", point_index, rep)
            _, report = run(scenario, seed=seed)
            totals = report.totals()
            retrievals += totals["retrievals"]
            accepted += totals["accepted"]
            tampered += totals["tampered_accepted"]
            infections += totals["final_infections"]
            bits += totals["total_bits"]
            if totals["final_homophily"] is not None:
                homophily_sum += totals["final_homophily"]
                homophily_runs += 1
        row = dict(point)
        row.update({
            "runs": seeds_per_point,
            "retrievals": retrievals,
            "acceptance_rate": accepted / retrievals if retrievals else None,
            "tampered_acceptance_rate": tampered / retrievals if retrievals else None,
            "mean_final_infections": infections / seeds_per_point,
            "mean_total_bits": bits / seeds_per_point,
            "mean_final_homophily": (homophily_sum / homophily_runs
                                     if homophily_runs else None),
        })
        rows.append(row)
    return rows
