"""Full log digests of the runs that between them end retrievals in all
six ways.

The packaged scenarios and the N = 400 run (pinned in test_engine.py) end
only in quorum-reached, no-replies or vote-tie. These three runs also
reach no-verifiers, fingerprint-mismatch and insufficient-verdicts, so a
change to any of those paths moves a pinned digest.
"""

import pytest

from test_engine import SCENARIOS
from test_retrieval_outcomes import OUTCOMES, simulate
from vouchnet import apply_overrides, run
from vouchnet.events import EV_DELIVERY
from vouchnet.scenario import Scenario

DIGESTS = {
    "rich": "25b567fd64525432811addbe5a075f77b2bcd4fe569f41ef53d339e5",
    "hostile": "d6fa6f70b4367cf90d8e0269e1406ce0b087532b4373c9c2fff124c5",
    "hostile_store_blocked": "4a43eb1c613a6182f60c599440812dae5e7fd618a739e25f8c9a8a00",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest_pinned(name):
    assert simulate(name).log.digest().hex() == DIGESTS[name]


def test_pinned_runs_reach_every_outcome():
    assert {t.reason for name in DIGESTS for t in simulate(name).traces} == OUTCOMES


# The packaged campaign with in-flight substitution and the vote binding off,
# by the strategy every compromised node plays.
SUBSTITUTION_DIGESTS = {
    "tampered_server": "1ca15dee98f21f05cf0ecfa53520011841599f2675cd65ee3e37830e",
    "tocttou_swapper": "96b107ab0cd31c644e4d99c99ef0ccedf330b4dbae0029caa0b7f302",
}


@pytest.mark.parametrize("strategy", sorted(SUBSTITUTION_DIGESTS))
def test_substitution_digest_pinned(strategy):
    base = Scenario.from_file(SCENARIOS / "tampered_campaign.json")
    scenario = apply_overrides(base, {"study.delivery_substitution": True,
                                      "protocol.vote_binding": False,
                                      "compromise.mix": {strategy: 1.0}})
    log, report = run(scenario)
    assert any(r.kind == EV_DELIVERY for r in log.records)
    assert report.log_digest == SUBSTITUTION_DIGESTS[strategy]
