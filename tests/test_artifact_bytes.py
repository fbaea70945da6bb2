"""The bytes of each file ``MetricsReport.write`` produces, pinned for the
eight runs whose log digests are pinned elsewhere.

A log digest covers the event log only. The epoch counters, overhead rows
and totals are computed from the run, so a counter that is computed wrongly
moves one of these pins and no log digest.
"""

import hashlib

import pytest

from test_engine import SCENARIOS
from test_retrieval_outcomes import COUNTED_RUNS
from vouchnet import apply_overrides, run
from vouchnet.scenario import Scenario


def n400_scenario() -> Scenario:
    return apply_overrides(Scenario.from_file(SCENARIOS / "community_study.json"),
                           {"node_count": 400, "epochs": 10,
                            "workload.requests_per_epoch": 20, "seed": 7})


BUILDERS = {**COUNTED_RUNS, "n400": n400_scenario}

SHA256 = {
    "community_study": {
        "epochs.csv": "d6baa864f984d9c231de0bce121ff2f2daa390112ff7779c94efda6650abeb34",
        "overhead.csv": "2e8fb33ac63f675d5ebfbaabbe240cc544e03775b6fe4f062d92861956839957",
        "summary.json": "9528fc3c9b4efa180853f89bccc71bd1faeca29d60e7f5049af8f3927df4fa8f",
        "metrics.jsonl": "04b38cbc6b8337d0d3bfe24b68f47911ea39a2c91e3008efe998a3b54a589299",
    },
    "connected": {
        "epochs.csv": "97eeb2d1fb786fb5fb7ec3940c2061a469b58f658e3b4e082d27fcb2a1ce3899",
        "overhead.csv": "2c80b989136bb660e939907d4dc39cf2e47a5c4540b504b111c24782dc158564",
        "summary.json": "c2d0ed9ac4da9f3af9919cda60169ed7c8f04fbe52e930de927886dd0f820af9",
        "metrics.jsonl": "341c5901282bbd17c09ec0e8359e826ae711d04422f572134690e050c36e6432",
    },
    "hostile": {
        "epochs.csv": "57215b1b5f9c14ebcfb5d17c3d9d2b653ade84f74cc21fc60dd84aea444856be",
        "overhead.csv": "e1fc0b641b5237661a957821041862e8431524a99f382d90a95a27cf2f81c719",
        "summary.json": "5c2e60d3f4ffbd8c7316b43c9262118e740fc45bb1823df8e50fef7315cf835e",
        "metrics.jsonl": "0351525c16dc74ec7cf96889d126370c1179af5ef767fad592e643a730e8e4bc",
    },
    "hostile_store_blocked": {
        "epochs.csv": "232929ad4b655e63ec74f4358cf8225f459f5ffce51d1de10ee102bd5dc63320",
        "overhead.csv": "4e30f6adee0c10552b3cb85e4229a062e4d5567bea7fcc624b68dba1ee7e6b72",
        "summary.json": "5743bf99631c16d80969e10250f0dd6869470b942ad379d3792f4ed520f05582",
        "metrics.jsonl": "2a0cd732732801d3dabf3cf2f88efca348f612f629dc8bcce610ded3161af9ca",
    },
    "n400": {
        "epochs.csv": "89a12359ea5a8389e12df66e6fddf32a3b970eddcbc532f33b763d40be84db76",
        "overhead.csv": "7239860165412b0d94f2859a3ca830e86e8282ed08fb4cdf7bd6e79cb45e6647",
        "summary.json": "4bed090bfb04206283e57272431981bb9fe29c82efb9c5f370fcfc301b8a1971",
        "metrics.jsonl": "e5b2c653c9427cd4149198cd3f913b6e45431e3d3c199d1fd4616d1adbd9ad7a",
    },
    "rich": {
        "epochs.csv": "6876e4edec5c962f7886d46a3fd346a856714d976c4571fadd6ec7ad5dd7c181",
        "overhead.csv": "f65296922e854457be3baa81b7eef74e882a5e67ef56fa8627641d39707404a2",
        "summary.json": "ee1950bd0b0cd1e37fc363664a10a8a893190616044afa909a0034b42b47e8d3",
        "metrics.jsonl": "2db02a274eb25e174858050dfb24b69013c92df2fc64c8c17d42cfc9cb79b330",
    },
    "smoke": {
        "epochs.csv": "ed23675b67939530cfd12b3892a1d8d05f8381ccc2c2d03a1084cf690d4e0af7",
        "overhead.csv": "f1af62427209b9d7d7b5772eefeb70e0d819df31cf3b9467eca6b48af1fc7979",
        "summary.json": "5048fa13e53a9df68738878f5e02e93eaeec450f6397ece4e0c29250a5b0eeea",
        "metrics.jsonl": "66815d4db0751526528dd90be8cb34bacabb4e429f8a63a1ade36b1fd5f79a54",
    },
    "tampered_campaign": {
        "epochs.csv": "e68b48573394b50c8ecaf0f1bda206473f75056d8d15d07237efd775b6feabf9",
        "overhead.csv": "97ac1878fb9328613544d504372d7c84275dfd4569a90d0ec2844906a3253368",
        "summary.json": "f08572933c92979ec73a856d612531cad28833533d9ab0aaea2c4d5e3acb6dfd",
        "metrics.jsonl": "f943ebd89e3f28cf7324a2044b9b8063849cbb70fd59cc8a60287175ac1c9529",
    },
}


@pytest.mark.parametrize("name", sorted(SHA256))
def test_artifact_bytes_pinned(name, tmp_path):
    _, report = run(BUILDERS[name]())
    report.write(tmp_path)
    got = {artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
           for artifact in SHA256[name]}
    assert got == SHA256[name]
