"""Parameter sweeps: run a scenario across a grid of overrides."""

from __future__ import annotations

import itertools
from functools import reduce
from operator import add

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
        runs = [run(scenario, seed=derive_seed(base.seed, "sweep", point_index, rep))[1].totals()
                for rep in range(seeds_per_point)]
        retrievals = sum(t["retrievals"] for t in runs)
        homophily = [t["final_homophily"] for t in runs if t["final_homophily"] is not None]
        rows.append({
            **point,
            "runs": seeds_per_point,
            "retrievals": retrievals,
            "acceptance_rate": (sum(t["accepted"] for t in runs) / retrievals
                                if retrievals else None),
            "tampered_acceptance_rate": (sum(t["tampered_accepted"] for t in runs) / retrievals
                                         if retrievals else None),
            "mean_final_infections": sum(t["final_infections"] for t in runs) / seeds_per_point,
            "mean_total_bits": sum(t["total_bits"] for t in runs) / seeds_per_point,
            # A running total: from Python 3.12 on, ``sum`` rounds floats differently.
            "mean_final_homophily": (reduce(add, homophily, 0.0) / len(homophily)
                                     if homophily else None),
        })
    return rows
