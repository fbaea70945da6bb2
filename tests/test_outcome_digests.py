"""Full log digests of the runs that between them end retrievals in all
six ways.

The packaged scenarios and the N = 400 run (pinned in test_engine.py) end
only in quorum-reached, no-replies or vote-tie. These three runs also
reach no-verifiers, fingerprint-mismatch and insufficient-verdicts, so a
change to any of those paths moves a pinned digest.
"""

import pytest

from test_retrieval_outcomes import OUTCOMES, simulate

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
