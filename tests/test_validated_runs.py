"""A scenario that validates must run: ``Scenario.from_dict`` either refuses
a draw with a ``ScenarioError`` or the draw builds and runs to the end
without raising anything else.

The draws are small scenarios over every section, leaning on the values
that have let a scenario through validation only to fail in set-up or mid
run: compromise mixes that do not sum to 1 at fraction 0, key floors below
the library's 128 bits with swappers and old devices, and dense initial
edges against small degree caps.
"""

import random

from vouchnet import Simulation
from vouchnet.errors import ScenarioError
from vouchnet.scenario import Scenario

DRAWS = 300
STRATEGIES = ["free_rider", "lying_verifier", "tampered_server", "tocttou_swapper"]


def draw_ids(rng: random.Random, n: int) -> list[int]:
    ids = rng.sample(range(n), rng.randint(0, n))
    if rng.random() < 0.05:
        ids.append(rng.choice([-1, n]))
    return ids


def draw_selector(rng: random.Random, n: int, all_ok: bool) -> object:
    kind = rng.choices(["all", "list", "fraction", "bad"], weights=[3, 3, 3, 1])[0]
    if kind == "all":
        return "all" if all_ok else []
    if kind == "list":
        return draw_ids(rng, n)
    if kind == "fraction":
        return {"fraction": rng.choice([0.0, 0.25, 0.5, 1.0])}
    return rng.choice(["some", {"share": 0.5}, {"fraction": 1.5}, "all"])


def draw_mix(rng: random.Random, fraction: float) -> dict[str, float]:
    names = rng.sample(STRATEGIES, rng.randint(0 if fraction == 0 else 1, 3))
    weights = [rng.choice([0.5, 1.0, 2.0]) for _ in names]
    mix = {name: w / sum(weights) for name, w in zip(names, weights)}
    if rng.random() < 0.25:
        # Break one rule: weights that do not sum to 1, a name that is not
        # a strategy, or a negative weight.
        broken = rng.choice(["sum", "sum", "name", "negative"])
        if broken == "sum":
            mix = {rng.choice(STRATEGIES): rng.choice([0.5, 2.0])}
        elif broken == "name":
            mix[rng.choice(["honest", "store_blocker"])] = 0.0
        else:
            mix = {"free_rider": 1.5, "lying_verifier": -0.5}
    return mix


def draw_scenario(rng: random.Random) -> dict:
    n = rng.choice([0, 1, 2, 3, 4, 5, 6, 6])
    epochs = rng.choice([0, 1, 1, 2])
    apps = [{"name": name, "payload_bytes": rng.choice([0, 16, 64]),
             "holders": draw_selector(rng, n, all_ok=True),
             "tampered_holders": draw_selector(rng, n, all_ok=False)}
            for name in rng.sample(["cam", "lamp", "maps"], rng.choice([0, 1, 1, 2]))]
    labels = [f"{a['name']}@1" for a in apps]
    pairs = [[a, b] for a in range(n) for b in range(n) if a != b]
    fraction = rng.choice([0.0, 0.0, 0.3, 0.5, 1.0])
    return {
        "seed": rng.randrange(1000),
        "epochs": epochs,
        "node_count": n,
        "type_distribution": rng.choice([{"default": 1.0}, {"a": 1.0, "b": 1.0},
                                         {"a": 0.3, "b": 0.7, "c": 0.0}]),
        "topology": rng.choice(["none", "complete"]),
        "initial_edges": rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n))),
        "formation": {
            "max_degree": rng.choice([1, 2, 3, 6, 6]),
            "join_rate": rng.choice([0.0, 0.5, 1.0]),
            "leave_rate": rng.choice([0.0, 0.2, 0.5]),
            "proposals_per_round": rng.randint(0, 3),
            "supernode_count": rng.randint(0, 2),
            "trust_weight": rng.choice([0.0, 0.5]),
        },
        "protocol": {
            "digest_width_bits": rng.choice([224, 256]),
            "mac_fanout": rng.randint(1, 3),
            "quorum": rng.choice([0.34, 0.5, 0.9]),
            "min_key_bits": rng.choice([8, 32, 64, 64, 64, 128, 256]),
            "hop_limit": rng.choice([None, None, 1, 2]),
            "vote_binding": rng.random() < 0.8,
        },
        "apps": apps,
        "compromise": {"fraction": fraction, "mix": draw_mix(rng, fraction)},
        "workload": {
            "requests_per_epoch": rng.choice([0, 1, 3, 3]),
            "explicit": [{"epoch": rng.randint(0, max(epochs - 1, 0)),
                          "requester": rng.randrange(n), "app": rng.choice(labels)}
                         for _ in range(rng.randint(0, 3) if n and apps else 0)],
        },
        "old_devices": {"fraction": rng.choice([0.0, 0.5, 1.0, 1.0]),
                        "key_bits": rng.choice([32, 64, 64, 128])},
        "study": {"delivery_substitution": rng.random() < 0.2,
                  "verifier_compromise_p": rng.choice([None, None, 0.5, 1.0])},
        "store_blocked": rng.random() < 0.3,
        "record_trust": rng.random() < 0.3,
    }


def test_every_scenario_that_validates_runs():
    rng = random.Random(20261018)
    ran = refused = 0
    for i in range(DRAWS):
        data = draw_scenario(rng)
        try:
            scenario = Scenario.from_dict(data)
        except ScenarioError:
            refused += 1
            continue
        try:
            Simulation(scenario).run()
        except Exception as exc:
            raise AssertionError(f"draw {i} validated but failed to run: {data}") from exc
        ran += 1
    # Both sides of the property are exercised, not just one.
    assert ran >= DRAWS // 4 and refused >= DRAWS // 4, (ran, refused)
