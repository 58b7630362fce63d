"""The acceptance gate: ten numbered checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each check prints ``criterion N: PASS`` or ``criterion N: FAIL`` before
asserting, in order.
"""

import random
from fractions import Fraction
from time import perf_counter

from splitvote.adversary import CollusionScenario, attack_any_valid, attack_targeted
from splitvote.blindsig import (
    Signature,
    SigningKey,
    blind,
    confirm,
    honest_responder,
    sign,
    unblind,
)
from splitvote.errors import RegimeError
from splitvote.harness import (
    ElectionConfig,
    ElectionRun,
    parse_attack_config,
    run_attack,
    run_election,
)
from splitvote.modmath import FIXTURE_FIELD, generate_params, sample_subgroup_element
from splitvote.sharing import complete_split, reconstruct, split
from tests.conftest import logged
from tests.oracles import marginal_distribution, sweep_image

FIELD = FIXTURE_FIELD
SUBGROUP = tuple(sorted({pow(u, 2, 23) for u in range(1, 23)}))

ELECTION_CONFIG = ElectionConfig(
    params=FIELD,
    field_bits=None,
    n_voters=100,
    k=4,
    candidates=("alpha", "beta", "gamma"),
    recast_fraction=0.2,
    incomplete_fraction=0.0,
    booth_mode="key-copy",
    seed=42,
)

ATTACK_CONFIG_TEXT = """
p = 23
q = 11
g = 2
servers = 3
colluders = 0,2
goal = targeted
trials = exhaustive
seed = 1
"""


def _verdict(number: int, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {number} failed: {failed}"


def test_criterion_01_blind_signature_round_trip():
    start = perf_counter()
    key = SigningKey(3, FIELD)
    pub = key.public_key()
    hits = 0
    for m in SUBGROUP:
        direct = sign(m, key).sig
        for b in range(1, 11):
            blinded_sig = sign(blind(m, b, pub), key).sig
            hits += unblind(blinded_sig, b, pub) == direct
    duration = perf_counter() - start
    _verdict(1, {
        "110/110 round trips": hits == 110,
        "runtime under 1s": duration < 1.0,
    })


def test_criterion_02_sharing_round_trip():
    start = perf_counter()
    random_trips = 0
    for v in range(1, 23):
        for k in range(2, 7):
            shares = split(v, k, FIELD, random.Random(1000 * v + k))
            random_trips += reconstruct(shares, FIELD) == v
    forced = 0
    for v in range(1, 23):
        for r1 in range(1, 23):
            for r2 in range(1, 23):
                forced += reconstruct(complete_split(v, (r1, r2), FIELD), FIELD) == v
    duration = perf_counter() - start
    _verdict(2, {
        "22x5 seeded round trips": random_trips == 110,
        "all 484 forced choices at k=3, every v": forced == 22 * 484,
        "runtime under 5s": duration < 5.0,
    })


def test_criterion_03_targeted_attack_rate():
    start = perf_counter()
    scenario = CollusionScenario(FIELD, 4, (0, 1, 3), seed=3)
    exact = attack_targeted(scenario, 8, 5)
    big = generate_params(31, random.Random(1))
    mc_scenario = CollusionScenario(big, 3, (0, 2), seed=5)
    mc = attack_targeted(
        mc_scenario,
        1234567 % big.p,
        7654321 % big.p,
        trials=1_000_000,
    )
    truth = 1.0 / (big.p - 1)
    band = 3.0 * (truth * (1.0 - truth) / mc.trials) ** 0.5
    duration = perf_counter() - start
    _verdict(3, {
        "exhaustive rate exactly 1/22": exact.exact == Fraction(1, 22),
        "large-field figure 1/23 alongside": exact.asymptotic == Fraction(1, 23),
        "monte carlo within 3 standard errors": abs(float(mc.estimate) - truth) <= band,
        "monte carlo ran 10^6 trials": mc.trials == 1_000_000,
        "runtime under 30s": duration < 30.0,
    })


def test_criterion_04_any_valid_attack_rate():
    checks = {}
    for m in (2, 3, 5):
        signed = list((1, 2, 3, 4, 6)[:m])
        scenario = CollusionScenario(FIELD, 3, (1, 2), seed=m)
        any_hit, _ = attack_any_valid(scenario, signed[0], signed)
        checks[f"m={m} rate exactly {m}/22"] = any_hit.exact == Fraction(m, 22)
        checks[f"m={m} large-field figure {m}/23"] = any_hit.asymptotic == Fraction(m, 23)
    _verdict(4, checks)


def test_criterion_05_sweep_and_coalition_size():
    fixed = [5, 7, 11]
    image = sweep_image(FIELD, fixed)
    rates = []
    for colluders in ((0,), (0, 1), (0, 1, 2)):
        scenario = CollusionScenario(FIELD, 4, colluders, seed=2)
        rates.append(attack_targeted(scenario, 9, 14).exact)
    _verdict(5, {
        "sweep image is all 22 nonzero residues": sorted(image) == list(range(1, 23)),
        "1, 2, 3 colluders all at 1/22": rates == [Fraction(1, 22)] * 3,
    })


def test_criterion_06_share_subsets_hide_the_secret():
    subsets = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
    identical = True
    for positions in subsets:
        baseline = marginal_distribution(1, 3, positions, FIELD)
        for v in range(2, 23):
            identical &= marginal_distribution(v, 3, positions, FIELD) == baseline
    _verdict(6, {
        "every proper subset's table identical across all v": identical,
    })


def test_criterion_07_confirmation_soundness():
    key = SigningKey(3, FIELD)
    pub = key.public_key()
    responder = honest_responder(key)
    rng = random.Random(5)
    genuine = 0
    for _ in range(100):
        message = sample_subgroup_element(FIELD, rng)
        genuine += confirm(sign(message, key), pub, responder, rng).accepted
    # 4**3 = 18, so both claims below are forgeries; 13 stays inside the
    # subgroup, 17 does not
    in_subgroup_forgery = Signature(4, 13, FIELD)
    outside_forgery = Signature(4, 17, FIELD)
    counts = []
    for forged in (in_subgroup_forgery, outside_forgery):
        accepted = 0
        for e1 in range(11):
            for e2 in range(11):
                accepted += confirm(forged, pub, responder, e1=e1, e2=e2).accepted
        counts.append(accepted)
    _verdict(7, {
        "genuine accepted 100/100": genuine == 100,
        "subgroup forgery accepted in at most 11 of 121": counts[0] <= 11,
        "non-subgroup forgery accepted in at most 11 of 121": counts[1] <= 11,
        "acceptance rate at most 1/11": max(counts) * 11 <= 121,
    })


def test_criterion_08_end_to_end_election():
    start = perf_counter()
    run = ElectionRun(ELECTION_CONFIG)
    final_choice: dict[int, int] = {}
    all_or_nothing = True
    while run.cursor < len(run.schedule):
        event = run.schedule[run.cursor]
        voter = run.voters[event.voter_index]
        anon = voter.credential.message
        before = len(run.bus)
        run.step()
        accepts = sum(1 for m in logged(run.bus, before) if m.kind == "cast-accept")
        all_or_nothing &= accepts in (0, 4)
        if accepts == 4:
            final_choice[anon] = event.candidate_index
    # replay: stored versions reached 2 via re-votes; a version-1 cast with a
    # fresh valid token must still bounce
    anon, record = max(run.servers[0].store.items(), key=lambda kv: kv[1][0])
    token = run.booth.authenticate(sign(anon, run.key), run.bus)
    accepted, reason = run.servers[0].store_share(anon, 1, 5, token, run.bus)
    run.finish()
    result = run.result
    expected = {label: 0 for label in ELECTION_CONFIG.candidates}
    for candidate_index in final_choice.values():
        expected[ELECTION_CONFIG.candidates[candidate_index]] += 1
    duration = perf_counter() - start
    _verdict(8, {
        "tally equals ledger prediction": result == run.predicted,
        "no invalid ids": result.invalid == 0,
        "no inconsistent ids": result.inconsistent == 0,
        "every id counted exactly once": sum(result.counts.values()) == result.distinct_ids,
        "final accepted choice is what counts": result.counts == expected,
        "casts accepted all-or-nothing": all_or_nothing,
        "replayed version-1 cast after version-2 rejected": (
            record[0] >= 2 and not accepted and reason == "stale-version"
        ),
        "runtime under 5s": duration < 5.0,
    })


def test_criterion_09_determinism():
    first_run, first = run_election(ELECTION_CONFIG)
    second_run, second = run_election(ELECTION_CONFIG)
    _verdict(9, {
        "event logs byte-identical": first_run.bus.render_log() == second_run.bus.render_log(),
        "reports byte-identical": first.render_records() == second.render_records(),
    })


def test_criterion_10_headline_number_substituted():
    # the huge-field rate cannot be counted directly; asking for it must be
    # refused, and the small-field report must carry the exact rate beside
    # the idealized one so the substitution is visible
    big = generate_params(100, random.Random(7))
    refused = False
    try:
        attack_targeted(
            CollusionScenario(big, 2, (0,), seed=0), 4, 9
        )
    except RegimeError:
        refused = True
    records = run_attack(parse_attack_config(ATTACK_CONFIG_TEXT)).render_records()
    _verdict(10, {
        "100-bit exhaustive count refused": refused,
        "exact 1/22 in the report": "exact=1/22" in records,
        "idealized 1/23 beside it": "asymptotic=1/23" in records,
        "the two figures differ": Fraction(1, 22) != Fraction(1, 23),
    })
