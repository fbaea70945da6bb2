"""Trust ledger smoothing rules and the combined-trust computation."""

import random
from fractions import Fraction

import pytest

from vouchnet.errors import VouchnetError
from vouchnet.trust import (
    Ledger,
    combined_trust,
    subjective_trust,
    update_correctness,
    update_response,
)


def ledger_with(records):
    """records: {peer: (resp_prob, cond_trust)}"""
    ledger = Ledger(owner=0)
    for peer, (resp, cond) in records.items():
        rec = ledger._touch(peer)
        rec.resp_prob = resp
        rec.cond_trust = cond
    return ledger


def oracle_subjective_trust(records):
    """Exact-arithmetic reference: response-weighted mean of conditional
    trusts, uniform when every weight is zero. Fraction(float) is exact,
    so this path shares no floating-point rounding with the library."""
    weights = [Fraction(r) for r, _ in records]
    conds = [Fraction(c) for _, c in records]
    total = sum(weights)
    if total == 0:
        return sum(conds, Fraction(0)) / len(conds)
    return sum(c * (w / total) for w, c in zip(weights, conds))


# -- combined trust ------------------------------------------------------


def test_single_fully_trusted_responder():
    ledger = ledger_with({1: (1.0, 1.0)})
    assert subjective_trust(ledger, [1]) == 1.0


def test_two_equal_responders_mix_evenly():
    ledger = ledger_with({1: (0.8, 1.0), 2: (0.8, 0.5)})
    assert subjective_trust(ledger, [1, 2]) == pytest.approx(0.75, abs=1e-12)


def test_three_responder_example_matches_oracle():
    records = {1: (0.9, 0.8), 2: (0.3, 0.2), 3: (0.6, 0.5)}
    ledger = ledger_with(records)
    got = subjective_trust(ledger, [1, 2, 3])
    want = oracle_subjective_trust([records[p] for p in (1, 2, 3)])
    assert abs(Fraction(got) - want) < Fraction(1, 10**12)
    assert got == pytest.approx(0.6, abs=1e-12)


def test_empty_responder_set_is_an_error():
    ledger = ledger_with({})
    with pytest.raises(VouchnetError):
        subjective_trust(ledger, [])


def test_all_zero_response_probs_fall_back_to_uniform():
    ledger = ledger_with({1: (0.0, 1.0), 2: (0.0, 0.0), 3: (0.0, 0.5)})
    assert subjective_trust(ledger, [1, 2, 3]) == pytest.approx(0.5, abs=1e-12)


def test_strangers_read_as_half():
    ledger = ledger_with({})
    assert subjective_trust(ledger, [42]) == 0.5
    assert combined_trust(ledger, 42) == 0.5


def test_combined_trust_decays_with_silence():
    ledger = ledger_with({})
    values = [combined_trust(ledger, 7)]
    for _ in range(12):
        update_response(ledger, 7, False)
        values.append(combined_trust(ledger, 7))
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.2  # below the default severance threshold


def test_combined_trust_caps_at_one():
    ledger = ledger_with({1: (1.0, 1.0), 2: (0.9, 0.7)})
    assert combined_trust(ledger, 1) == 1.0
    assert combined_trust(ledger, 2) == 1.0
    ledger2 = ledger_with({3: (0.8, 0.5)})
    assert combined_trust(ledger2, 3) == pytest.approx(0.8)


def test_combined_trust_low_for_reliable_liar():
    # answers every time, never agrees with the majority
    ledger = ledger_with({4: (1.0, 0.05)})
    assert combined_trust(ledger, 4) == pytest.approx(0.1)


def test_result_always_within_unit_interval():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 8)
        records = {p: (rng.random(), rng.random()) for p in range(n)}
        ledger = ledger_with(records)
        value = subjective_trust(ledger, list(range(n)))
        assert 0.0 <= value <= 1.0
        assert min(c for _, c in records.values()) - 1e-12 <= value
        assert value <= max(c for _, c in records.values()) + 1e-12


def test_invariant_under_uniform_scaling_of_weights():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(1, 7)
        base = [(rng.random(), rng.random()) for _ in range(n)]
        scale = rng.uniform(0.01, 5.0)
        l1 = ledger_with({p: base[p] for p in range(n)})
        l2 = ledger_with({p: (base[p][0] * scale, base[p][1]) for p in range(n)})
        a = subjective_trust(l1, list(range(n)))
        b = subjective_trust(l2, list(range(n)))
        assert a == pytest.approx(b, abs=1e-12)


# -- smoothing updates -----------------------------------------------------


def test_response_update_from_prior():
    ledger = Ledger(0)
    rec = update_response(ledger, 1, True)
    assert rec.resp_prob == pytest.approx(0.55, abs=1e-12)


def test_zero_is_a_fixed_point_for_silence():
    ledger = Ledger(0)
    ledger._touch(1).resp_prob = 0.0
    for _ in range(5):
        rec = update_response(ledger, 1, False)
    assert rec.resp_prob == 0.0


def test_response_closed_form_convergence():
    # After n straight responses from the 0.5 prior: 1 - 0.5 * 0.9^n.
    ledger = Ledger(0)
    for n in range(1, 101):
        rec = update_response(ledger, 1, True)
        assert rec.resp_prob == pytest.approx(1.0 - 0.5 * 0.9 ** n, abs=1e-12)
    assert rec.resp_prob > 0.99


def test_correctness_update_from_prior():
    ledger = Ledger(0)
    rec = update_correctness(ledger, 1, True)
    assert rec.cond_trust == pytest.approx(0.55, abs=1e-12)


def test_correctness_drop_after_disagreement():
    ledger = Ledger(0)
    ledger._touch(1).cond_trust = 1.0
    rec = update_correctness(ledger, 1, False)
    assert rec.cond_trust == pytest.approx(0.9, abs=1e-12)


def test_alternating_outcomes_stay_bounded():
    ledger = Ledger(0)
    values = []
    for step in range(200):
        rec = update_correctness(ledger, 1, step % 2 == 0)
        assert 0.0 <= rec.cond_trust <= 1.0
        values.append(rec.cond_trust)
    # The alternating cycle converges to [0.9x + 0.1, 0.9x]; well inside
    # a narrow band around one half.
    assert all(0.45 <= v <= 0.56 for v in values[20:])


def test_updates_only_touch_their_peer():
    ledger = Ledger(0)
    update_response(ledger, 1, True)
    assert ledger.get_record(2).resp_prob == 0.5
    assert ledger.known_peers() == [1]

