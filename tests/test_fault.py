"""Voting, fault classification, and built-in-test visibility."""

import math
import statistics
from dataclasses import fields

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lanesim.fault import (
    Consensus,
    FaultKind,
    FaultSpec,
    FaultTarget,
    InsufficientLanes,
    TargetKind,
    VoteOutcome,
    VoterConfig,
    bit_detects,
    bit_visible,
    classify,
    cross_monitor,
    exchange_vote,
    median,
    police_matches,
)
from lanesim.model import TimingConfig

import oracles
from oracles import contains, overlaps

CFG = VoterConfig(tolerance=0.5)


def median_of_others_oracle(values, tol):
    """Straightforward re-derivation: a lane is deviant when its value sits

    more than tol away from the median of everyone else's values.
    Usable as an oracle only while a clear healthy majority exists.
    """
    flagged = set()
    for lane, v in values.items():
        others = [w for k, w in values.items() if k != lane]
        if abs(v - statistics.median(others)) > tol:
            flagged.add(lane)
    return flagged


def test_cross_monitor_matches_median_of_others_oracle():
    values = {0: 10.0, 1: 10.1, 2: 9.9, 3: 14.0}
    outcome = cross_monitor(values, CFG)
    assert outcome.flagged == frozenset(median_of_others_oracle(values, 0.5))
    assert outcome.flagged == frozenset({3})
    assert not outcome.ambiguous


def test_cross_monitor_masks_one_outlier_in_triplex():
    outcome = cross_monitor({0: 10.0, 1: 10.2, 2: 100.0}, CFG)
    assert outcome.flagged == frozenset({2})
    assert not outcome.ambiguous


def test_cross_monitor_agreement_flags_nothing():
    assert cross_monitor({0: 5.0, 1: 5.1, 2: 4.9}, CFG).flagged == frozenset()


def test_cross_monitor_duplex_disagreement_is_ambiguous():
    outcome = cross_monitor({0: 1.0, 1: 7.0}, CFG)
    assert outcome.ambiguous
    assert outcome.flagged == frozenset({0, 1})
    agreeing = cross_monitor({0: 1.0, 1: 1.3}, CFG)
    assert not agreeing.ambiguous and agreeing.flagged == frozenset()


def test_cross_monitor_without_majority_is_ambiguous():
    # three mutually distant values: no clique can out-vote the rest
    outcome = cross_monitor({0: 1.0, 1: 5.0, 2: 9.0}, CFG)
    assert outcome.ambiguous
    assert outcome.flagged == frozenset({0, 1, 2})
    # an even split is just as undecidable
    split = cross_monitor({0: 1.0, 1: 1.1, 2: 9.0, 3: 9.1}, CFG)
    assert split.ambiguous


def test_cross_monitor_needs_two_values():
    with pytest.raises(InsufficientLanes):
        cross_monitor({0: 1.0}, CFG)


def test_consensus_statistic_changes_the_verdict():
    # clique {10.0, 10.0, 10.4}: median 10.0, mean 10.1333...; the value at
    # 10.55 deviates only from the median
    values = {0: 10.0, 1: 10.0, 2: 10.4, 3: 10.55}
    by_median = cross_monitor(values, VoterConfig(tolerance=0.5))
    by_mean = cross_monitor(
        values, VoterConfig(tolerance=0.5, consensus=Consensus.MEAN_OF_OTHERS))
    assert by_median.flagged == frozenset({3})
    assert by_mean.flagged == frozenset()


def test_clique_anchor_ties_resolve_deterministically():
    values = {0: 1.0, 1: 1.4, 2: 1.8}
    results = {cross_monitor(values, CFG).flagged for _ in range(20)}
    assert results == {frozenset({2})}


@given(st.dictionaries(st.integers(0, 7),
                       st.floats(min_value=-0.2, max_value=0.2),
                       min_size=2, max_size=8),
       st.floats(min_value=-1e6, max_value=1e6))
def test_agreeing_lanes_are_never_flagged(offsets, base):
    values = {lane: base + off for lane, off in offsets.items()}
    outcome = cross_monitor(values, CFG)
    assert outcome.flagged == frozenset()
    assert not outcome.ambiguous


@given(st.integers(min_value=3, max_value=8), st.integers(0, 7),
       st.floats(min_value=-1e3, max_value=1e3))
def test_single_far_outlier_is_always_isolated(n, outlier_seed, base):
    outlier = outlier_seed % n
    values = {lane: base + (lane % 3) * 0.1 for lane in range(n)}
    values[outlier] = base + 50.0
    outcome = cross_monitor(values, CFG)
    assert outcome.flagged == frozenset({outlier})
    assert not outcome.ambiguous


def _full_search_cross_monitor(values, cfg):
    """cross_monitor as it reads with the clique search run in every round."""
    items = sorted(values.items())
    tol = cfg.tolerance
    if len(items) == 2:
        (a, va), (b, vb) = items
        if abs(va - vb) <= tol:
            return VoteOutcome(frozenset())
        return VoteOutcome(frozenset({a, b}), ambiguous=True)
    best = []
    for _, anchor in items:
        clique = [(k, v) for k, v in items if abs(v - anchor) <= tol]
        vals = [v for _, v in clique]
        if max(vals) - min(vals) <= tol and len(clique) > len(best):
            best = clique
    if 2 * len(best) <= len(items):
        return VoteOutcome(frozenset(k for k, _ in items), ambiguous=True)
    vals = [v for _, v in best]
    if cfg.consensus is Consensus.MEAN_OF_OTHERS:
        consensus = min(max(sum(vals) / len(vals), min(vals)), max(vals))
    else:
        consensus = statistics.median(vals)
    return VoteOutcome(frozenset(k for k, v in items if abs(v - consensus) > tol))


def _verdict(voter, values, cfg):
    """The voter's outcome, or the type of what it raised."""
    try:
        return voter(values, cfg)
    except ValueError as exc:
        return type(exc)


@st.composite
def _rounds_at_the_tolerance_edge(draw):
    """Values whose spread is the tolerance, or one ulp either side of it."""
    lo = draw(st.floats(min_value=-1e6, max_value=1e6))
    tol = draw(st.one_of(st.floats(min_value=1e-6, max_value=1e3),
                         st.integers(1, 4).map(lambda k: k * math.ulp(lo))))
    hi = lo + tol
    step = draw(st.sampled_from([-1, 0, 1]))
    if step:
        hi = math.nextafter(hi, step * math.inf)
    n = draw(st.integers(2, 6))
    inner = st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi),
                      st.floats(-1e6, 1e6))
    vals = [lo, hi] + [draw(inner) for _ in range(n - 2)]
    lanes = draw(st.permutations(range(n)))
    consensus = draw(st.sampled_from(list(Consensus)))
    return ({lane: v for lane, v in zip(lanes, vals)},
            VoterConfig(tolerance=tol, consensus=consensus))


@given(_rounds_at_the_tolerance_edge())
def test_cross_monitor_equals_the_full_clique_search(round_):
    values, cfg = round_
    assert (_verdict(cross_monitor, values, cfg)
            == _verdict(_full_search_cross_monitor, values, cfg))


# the spread is the tolerance, yet the float mean of lo, hi, lo falls below
# lo, and hi sits more than the tolerance from it
_LO, _HI = -411.83191171340616, -411.8319117134061
_MEAN_AT_THE_EDGE = VoterConfig(tolerance=_HI - _LO,
                                consensus=Consensus.MEAN_OF_OTHERS)


def test_a_quiet_round_flags_nothing_under_the_mean():
    values = {0: _LO, 1: _HI, 2: _LO}
    assert sum(values.values()) / 3 < _LO
    assert cross_monitor(values, _MEAN_AT_THE_EDGE) == VoteOutcome(frozenset())


def test_the_agreeing_clique_keeps_its_mean_inside_its_values():
    # lane 3 is the outlier; the clique {lo, hi, lo} is found by search,
    # and its mean, taken within [lo, hi], leaves hi within the tolerance
    values = {0: _LO, 1: _HI, 2: _LO, 3: _LO + 1000.0}
    assert (cross_monitor(values, _MEAN_AT_THE_EDGE)
            == VoteOutcome(frozenset({3})))


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(min_value=1e-300, max_value=1e300),
       st.lists(st.floats(0, 1), min_size=3, max_size=4),
       st.permutations(range(4)),
       st.sampled_from(list(Consensus)))
def test_a_quiet_round_flags_nothing(base, tol, offsets, lanes, consensus):
    # cross_monitor returns a quiet round without its consensus: the median,
    # and the mean taken within the values' range, lie between the
    # extremes, so no value is further from either than the spread, which
    # is within the tolerance
    values = {lane: base + off * tol for lane, off in zip(lanes, offsets)}
    vals = list(values.values())
    assume(max(vals) - min(vals) <= tol and math.isfinite(sum(vals)))
    cfg = VoterConfig(tolerance=tol, consensus=consensus)
    assert (cross_monitor(values, cfg) == VoteOutcome(frozenset())
            == _full_search_cross_monitor(values, cfg))


@given(st.dictionaries(st.integers(0, 5), st.floats(), min_size=2, max_size=6),
       st.one_of(st.floats(min_value=1e-9), st.just(math.nan)),
       st.sampled_from(list(Consensus)))
def test_cross_monitor_equals_the_full_clique_search_on_any_floats(values, tol,
                                                                   consensus):
    # NaN and infinities included: there the full search decides, and a
    # NaN makes both raise alike
    cfg = VoterConfig(tolerance=tol, consensus=consensus)
    assert (_verdict(cross_monitor, values, cfg)
            == _verdict(_full_search_cross_monitor, values, cfg))


# --- exchange (interactive) voting ------------------------------------------------


def _honest_matrix(lanes, value=10.0):
    return {r: {s: value for s in lanes} for r in lanes}


def test_exchange_vote_isolates_per_receiver_liar_with_four_lanes():
    lanes = [0, 1, 2, 3]
    received = _honest_matrix(lanes)
    # lane 0 tells a different story to every receiver
    received[1][0] = 15.0
    received[2][0] = 5.0
    received[3][0] = 15.0
    outcome = exchange_vote(received, CFG)
    assert outcome.flagged == frozenset({0})
    assert not outcome.ambiguous


def test_exchange_vote_triplex_liar_stays_ambiguous():
    # a single Byzantine lane is identifiable only with four lanes: the
    # same lie that four lanes isolate (above) leaves three undecided
    lanes = [0, 1, 2]
    received = _honest_matrix(lanes)
    received[1][0] = 15.0
    received[2][0] = 5.0
    # the liar also misreports the honest lanes
    received[0][1] = 12.0
    received[0][2] = 12.0
    outcome = exchange_vote(received, CFG)
    assert outcome.ambiguous


def test_exchange_vote_majority_silence_is_confident():
    # a sender a majority reports silent is left out of the vote: neither
    # flagged nor counted, so the two lanes left agree and nothing is
    # ambiguous (the engine implicates the silent copy itself)
    lanes = [0, 1, 2]
    received = _honest_matrix(lanes)
    for r in (1, 2):
        received[r][0] = None
    del received[0]  # the silent lane reports nothing
    outcome = exchange_vote(received, CFG)
    assert outcome == VoteOutcome(frozenset())
    assert outcome.flagged == frozenset()
    assert not outcome.ambiguous
    # taken as equivocal, the silent sender would be flagged above; two
    # silent senders of four would make the vote ambiguous
    received = _honest_matrix([0, 1, 2, 3])
    for r in (2, 3):
        for s in (0, 1):
            received[r][s] = None
    del received[0], received[1]
    assert exchange_vote(received, CFG) == VoteOutcome(frozenset())


def test_a_vote_outcome_is_what_was_flagged_and_whether_it_is_ambiguous():
    # silence is the engine's verdict, made before it votes: no outcome
    # restates it
    assert [f.name for f in fields(VoteOutcome)] == ["flagged", "ambiguous"]


def test_exchange_vote_two_presents_disagreeing_is_ambiguous():
    received = {1: {1: 10.0, 2: 10.0}, 2: {1: 20.0, 2: 20.0}}
    outcome = exchange_vote(received, CFG)
    assert outcome.ambiguous


def test_both_voters_return_a_vote_outcome():
    received = _honest_matrix([0, 1, 2, 3])
    received[1][0] = 15.0
    received[2][0] = 5.0
    received[3][0] = 15.0
    assert exchange_vote(received, CFG) == VoteOutcome(frozenset({0}))
    for values in ({0: 5.0, 1: 5.1, 2: 4.9}, {0: 1.0, 1: 7.0},
                   {0: 10.0, 1: 10.2, 2: 100.0}, {0: 1.0, 1: 5.0, 2: 9.0}):
        assert type(cross_monitor(values, CFG)) is VoteOutcome


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.one_of(_FINITE, st.sampled_from([-1.5, 0.0, 2.0, 2.5])),
                min_size=1, max_size=9))
@example([1.0, 3.0])                    # even: the mean of the middle two
@example([2.0, 2.0, 2.0, 5.0])          # ties
@example([1e308, 1e308])                # the sum overflows, as in statistics
def test_the_one_median_is_statistics_median(values):
    assert median(list(values)) == statistics.median(values)


def test_exchange_vote_needs_two_participants():
    with pytest.raises(InsufficientLanes):
        exchange_vote({0: {0: 1.0}}, CFG)


_CLAIMS = st.one_of(
    st.none(),                                      # heard nothing
    st.sampled_from([9.5, 9.75, 10.0, 10.25, 10.5, 11.0]),   # 0.25 apart, exact
    st.floats(-100, 100))
_VOTERS = st.builds(VoterConfig, tolerance=st.sampled_from([0.25, 0.5, 1.0]),
                    consensus=st.sampled_from(list(Consensus)))


@st.composite
def _matrices(draw):
    """A received-values matrix over 2-4 lanes: each receiver's claim of
    each sender absent, silent or a value, its own included now and then;
    one receiver alone at times."""
    lanes = list(range(draw(st.integers(2, 4))))
    receivers = draw(st.lists(st.sampled_from(lanes), min_size=1,
                              max_size=len(lanes), unique=True))
    received = {}
    for r in receivers:
        claims = {}
        for s in lanes:
            if draw(st.integers(0, 9)) < (1 if s == r else 8):
                claims[s] = draw(_CLAIMS)
        received[r] = claims
    return received


def _outcome(vote, received, cfg):
    """The vote's outcome, or the type of what it raised: fewer than two
    participants, or a lone receiver's own claim of silence, which both
    votes take as its value."""
    try:
        return vote(received, cfg)
    except (InsufficientLanes, TypeError) as exc:
        return type(exc)


@settings(max_examples=1000)
@given(_matrices(), _VOTERS)
@example({0: {1: 10.0, 2: 10.0}, 1: {0: None, 2: 10.0}, 2: {0: 10.0, 1: 10.0}},
         VoterConfig())                             # silence ties a value
@example({0: {1: None, 2: None}, 1: {0: 10.5, 2: 10.0}, 2: {0: 10.0, 1: None}},
         VoterConfig())                             # values tolerance apart
@example({0: {1: 10.0, 2: 12.0}}, VoterConfig())    # a lone receiver
@example({0: {1: 10.5, 2: 10.5, 3: 10.5}, 1: {0: 9.5, 2: 10.5, 3: 10.5},
          2: {0: 10.0, 1: 10.5, 3: 10.5}, 3: {0: 10.5, 1: 10.5, 2: 10.5}},
         VoterConfig())                             # a clique agrees pairwise
def test_the_exchange_kernel_agrees_with_the_reference_vote(received, cfg):
    # the kernel reads each sender's reports as a list of floats and a
    # count of silences; the reference reads (receiver, value) pairs
    assert (_outcome(exchange_vote, received, cfg)
            == _outcome(oracles.exchange_vote, received, cfg))


# --- BIT visibility ------------------------------------------------


def _fault(kind, target, at_us=0, duration_us=None, bit=True):
    return FaultSpec(fault_id=0, kind=kind, target=target, at_us=at_us,
                     duration_us=duration_us, bit_detectable=bit)


def test_bit_sees_local_processor_faults():
    fault = _fault(FaultKind.PERMANENT,
                   FaultTarget(TargetKind.PROCESSOR, lane=0, proc=1))
    assert bit_detects(fault, (0, 1), set(), now_us=10)
    assert not bit_detects(fault, (0, 2), set(), now_us=10)
    assert not bit_detects(fault, (1, 1), set(), now_us=10)


def test_bit_sees_hosted_task_faults_only_where_hosted():
    fault = _fault(FaultKind.TRANSIENT,
                   FaultTarget(TargetKind.TASK, lane=0, proc=1, app=2, task=3),
                   at_us=100, duration_us=50)
    here = (0, 1)
    assert bit_detects(fault, here, {(2, 3)}, now_us=120)
    assert not bit_detects(fault, here, {(2, 4)}, now_us=120)
    assert not bit_detects(fault, here, {(2, 3)}, now_us=10)    # not yet active
    assert not bit_detects(fault, here, {(2, 3)}, now_us=200)   # already cleared


def test_bit_is_blind_to_byzantine_lane_and_masked_faults():
    byz = _fault(FaultKind.BYZANTINE,
                 FaultTarget(TargetKind.PROCESSOR, lane=0, proc=1))
    assert not bit_detects(byz, (0, 1), set(), now_us=10)
    lane = _fault(FaultKind.PERMANENT, FaultTarget(TargetKind.LANE, lane=0))
    assert not bit_detects(lane, (0, 1), set(), now_us=10)
    hidden = _fault(FaultKind.PERMANENT,
                    FaultTarget(TargetKind.PROCESSOR, lane=0, proc=1),
                    bit=False)
    assert not bit_detects(hidden, (0, 1), set(), now_us=10)


_TARGETS = {
    TargetKind.LANE: FaultTarget(TargetKind.LANE, lane=0),
    TargetKind.PROCESSOR: FaultTarget(TargetKind.PROCESSOR, lane=0, proc=1),
    TargetKind.TASK: FaultTarget(TargetKind.TASK, lane=0, proc=1, app=2, task=3),
    TargetKind.SENSOR: FaultTarget(TargetKind.SENSOR, lane=0, app=2),
}


@pytest.mark.parametrize("bit", [True, False])
@pytest.mark.parametrize("target_kind", list(TargetKind))
@pytest.mark.parametrize("kind", list(FaultKind))
def test_bit_detects_only_visible_faults_and_each_on_its_own_place(
        kind, target_kind, bit):
    fault = _fault(kind, _TARGETS[target_kind], at_us=100, bit=bit,
                   duration_us=50 if kind is FaultKind.TRANSIENT else None)
    visible = bit_visible(fault)
    assert visible == (bit and kind is not FaultKind.BYZANTINE
                       and target_kind in (TargetKind.PROCESSOR, TargetKind.TASK))
    detected = any(bit_detects(fault, (lane, proc), hosted, now)
                   for lane in range(2) for proc in range(3)
                   for hosted in (set(), {(2, 3)}) for now in (10, 120, 200))
    assert detected == visible
    if visible:
        # active, on its own place, with its task hosted
        assert bit_detects(fault, (0, 1), {(2, 3)}, now_us=120)


# --- classification ------------------------------------------------


def _classify(implicated, hosted):
    """classify handed what the engine hands it, from a map of every
    place's hosted copies: each implicated place's copies, and for each
    implicated lane how many of its places host any."""
    lanes = {copy[0] for copy in implicated}
    return classify(
        implicated,
        {copy[:2]: hosted.get(copy[:2], set()) for copy in implicated},
        {lane: sum(1 for place, keys in hosted.items() if place[0] == lane and keys)
         for lane in lanes})


def test_classify_single_copy_is_task_granularity():
    hosted = {(0, 0): {(1, 1), (2, 2)}}
    directives = _classify({(0, 0, 1, 1)}, hosted)
    assert directives == [(0, 0, 1, 1)]


def test_classify_full_processor():
    hosted = {(0, 0): {(1, 1), (2, 2)}, (0, 1): {(3, 3)}}
    directives = _classify({(0, 0, 1, 1), (0, 0, 2, 2)}, hosted)
    assert directives == [(0, 0)]


def test_classify_whole_lane_needs_two_full_processors():
    hosted = {(0, 0): {(1, 1)}, (0, 1): {(2, 2)}, (1, 0): {(1, 1)}}
    directives = _classify({(0, 0, 1, 1), (0, 1, 2, 2)}, hosted)
    assert directives == [(0,)]


def test_classify_single_processor_lane_stays_processor_granularity():
    hosted = {(0, 0): {(1, 1)}, (1, 0): {(1, 1)}}
    directives = _classify({(0, 0, 1, 1)}, hosted)
    assert directives == [(0, 0)]


def test_classify_partial_lane_yields_mixed_directives():
    hosted = {(0, 0): {(1, 1)}, (0, 1): {(2, 2), (3, 3)}}
    directives = _classify({(0, 0, 1, 1), (0, 1, 2, 2)}, hosted)
    assert (0, 0) in directives
    assert (0, 1, 2, 2) in directives
    assert len(directives) == 2


def test_classify_empty_spares_do_not_block_lane_escalation():
    # the spare (0, 2) hosts nothing; lane escalation considers only
    # processors that host copies
    hosted = {(0, 0): {(1, 1)}, (0, 1): {(2, 2)}, (0, 2): set(),
              (1, 0): {(1, 1)}}
    directives = _classify({(0, 0, 1, 1), (0, 1, 2, 2)}, hosted)
    assert directives == [(0,)]


def test_classify_orders_lane_then_processor_then_task_scopes():
    hosted = {(0, 0): {(1, 1)}, (0, 1): {(2, 2), (3, 3)},
              (1, 0): {(1, 1)}, (1, 1): {(2, 2)}, (2, 0): {(1, 1)}}
    implicated = {(0, 1, 3, 3), (0, 0, 1, 1), (1, 0, 1, 1), (1, 1, 2, 2),
                  (2, 0, 1, 1)}
    assert _classify(implicated, hosted) == [
        (1,),
        (0, 0),
        (2, 0),
        (0, 1, 3, 3),
    ]


def _scopes_by_rule(implicated, hosted):
    """The scopes README's rule gives, read off the full map of hosted
    copies: a processor is taken whole when it hosts a copy and every
    copy it hosts is implicated; a lane is taken whole when at least two
    of its processors host copies and every one of them is taken whole.
    Lanes first, then processors, then task copies, each sorted."""
    whole = {place for place, keys in hosted.items()
             if keys and all((*place, *key) in implicated for key in keys)}
    lanes = set()
    for lane in {copy[0] for copy in implicated}:
        hosting = [p for p, keys in hosted.items() if p[0] == lane and keys]
        if len(hosting) >= 2 and all(p in whole for p in hosting):
            lanes.add(lane)
    procs = {copy[:2] for copy in implicated} & whole
    return ([(lane,) for lane in sorted(lanes)]
            + sorted(p for p in procs if p[0] not in lanes)
            + sorted(c for c in implicated
                     if c[0] not in lanes and c[:2] not in procs))


_places = [(lane, proc) for lane in range(3) for proc in range(3)]
_task_keys = [(app, task) for app in (1, 2) for task in (1, 2)]
_hosted_maps = st.fixed_dictionaries({place: st.sets(
    st.sampled_from(_task_keys), max_size=3) for place in _places})


@given(_hosted_maps, st.sets(st.sampled_from(
    [(*place, *key) for place in _places for key in _task_keys])))
def test_classify_reads_only_the_implicated_lanes(hosted, implicated):
    # the engine hands classify the implicated places' copies and a count
    # per implicated lane: the scopes must be those the rule reads off
    # every place's copies, implicated copies a place no longer hosts too
    assert _classify(implicated, hosted) == _scopes_by_rule(implicated, hosted)


# --- scopes ------------------------------------------------

_coord = st.integers(min_value=0, max_value=1)
scopes = st.one_of(
    st.builds(FaultTarget, st.just(TargetKind.LANE), lane=_coord),
    st.builds(FaultTarget, st.just(TargetKind.PROCESSOR), lane=_coord,
              proc=_coord),
    st.builds(FaultTarget, st.just(TargetKind.TASK), lane=_coord, proc=_coord,
              app=_coord, task=_coord),
    st.builds(FaultTarget, st.just(TargetKind.SENSOR), lane=_coord,
              app=_coord),
)


def _prefixes(a, b):
    """Does a's key prefix b's: the engine's rule for "a covers b"."""
    return b.key[:len(a.key)] == a.key


@given(scopes, scopes)
def test_key_prefix_is_coordinate_containment(a, b):
    assert _prefixes(a, b) == contains(a, b)


@given(scopes, scopes, scopes)
def test_key_prefix_is_reflexive_and_transitive(a, b, c):
    assert _prefixes(a, a)
    if _prefixes(a, b) and _prefixes(b, c):
        assert _prefixes(a, c)
    # the engine keys its fault indexes by key: one scope, one key
    assert (a == b) == (a.key == b.key)
    # a sensor key is never a prefix of a lane, processor or task key
    if a.kind is TargetKind.SENSOR and b.kind is not TargetKind.SENSOR:
        assert not _prefixes(a, b)


@given(scopes, scopes)
def test_overlap_is_symmetric(a, b):
    assert overlaps(a, b) == overlaps(b, a)
    assert overlaps(a, b) == (_prefixes(a, b) or _prefixes(b, a))


@pytest.mark.parametrize("kind, fields", [
    (TargetKind.LANE, {"lane": 0, "proc": 1}),
    (TargetKind.LANE, {}),
    (TargetKind.PROCESSOR, {"lane": 0}),
    (TargetKind.PROCESSOR, {"lane": 0, "proc": 1, "task": 2}),
    (TargetKind.TASK, {"lane": 0, "proc": 1, "app": 2}),
    (TargetKind.SENSOR, {"lane": 0, "app": 1, "proc": 0}),
])
def test_a_target_sets_exactly_the_coordinates_of_its_kind(kind, fields):
    # the engine finds halting faults by target equality, so a lane target
    # carrying a stray processor would halt nothing; it cannot be built
    with pytest.raises(ValueError):
        FaultTarget(kind, **fields)


# --- policing ------------------------------------------------


def test_police_matches_at_tolerance_boundary():
    cfg = TimingConfig(tolerance=0.5)
    assert police_matches(10.5, 10.0, cfg)
    assert not police_matches(10.51, 10.0, cfg)
