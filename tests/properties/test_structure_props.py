"""Property-based tests for core data structures (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core import Epoch, MsgHdr, Vote
from repro.core.election import decide_vote, max_vote, new_bigger_epoch, won_election, \
    VoteDecision
from repro.core.types import VOTE_ZERO, pack_hdr, unpack_hdr
from repro.protocols.entrylog import EntryLog
from tests.properties import budget

epochs = st.builds(Epoch, st.integers(0, 5), st.integers(0, 6))
hdrs = st.builds(MsgHdr, epochs, st.integers(0, 50))
votes = st.builds(Vote, epochs, hdrs)


# ---------------------------------------------------------------- orderings

@given(hdrs, hdrs, hdrs)
def test_header_order_is_total_and_transitive(a, b, c):
    assert (a < b) or (b < a) or (a == b)
    if a < b and b < c:
        assert a < c


@given(hdrs)
def test_header_next_strictly_increases_within_epoch(h):
    n = h.next()
    assert n > h
    assert n.e == h.e


@given(epochs, epochs, st.integers(0, 6))
def test_new_bigger_epoch_dominates_both_inputs(e_new, seen, self_id):
    e = new_bigger_epoch(e_new, seen, self_id)
    assert e > e_new and e > seen
    assert e.leader == self_id


# ------------------------------------------------------------- message log
# Acuerdo's log: an EntryLog keyed by the packed header.

@given(st.lists(st.tuples(hdrs, st.text(max_size=3)), max_size=40))
def test_log_headers_always_sorted_and_lookup_consistent(entries):
    log = EntryLog()
    model: dict[MsgHdr, str] = {}
    for hdr, payload in entries:
        log.insert(pack_hdr(hdr), payload, 10)
        model[hdr] = payload
    assert [unpack_hdr(k) for k in log.keys] == sorted(model)
    for hdr, payload in model.items():
        assert log.payload(log.find(pack_hdr(hdr))) == payload
    assert len(log) == len(log.sizes) == len(model)


@given(st.lists(hdrs, unique=True, max_size=30), hdrs)
def test_log_truncate_matches_model(headers, cut):
    log = EntryLog()
    for h in headers:
        log.insert(pack_hdr(h), h, 10)
    log.truncate_from(pack_hdr(cut))
    assert [unpack_hdr(k) for k in log.keys] == sorted(h for h in headers if h < cut)
    assert log.payloads == sorted(h for h in headers if h < cut)


@given(st.lists(hdrs, unique=True, max_size=30), hdrs, hdrs)
def test_log_range_matches_model(headers, lo, hi):
    log = EntryLog()
    for h in headers:
        log.insert(pack_hdr(h), h, 10)
    got = log.span(pack_hdr(lo) + 1, pack_hdr(hi) + 1).payloads
    assert got == sorted(h for h in headers if lo < h <= hi)


@given(st.lists(hdrs, unique=True, max_size=30), hdrs)
def test_log_trim_below_keeps_suffix(headers, cut):
    log = EntryLog()
    for h in headers:
        log.insert(pack_hdr(h), h, 10)
    assert log.drop_below(pack_hdr(cut)) == sum(1 for h in headers if h < cut)
    assert [unpack_hdr(k) for k in log.keys] == sorted(h for h in headers if h >= cut)


# --------------------------------------------------------------- elections

@given(st.dictionaries(st.integers(0, 6), votes, max_size=7))
def test_max_vote_is_an_upper_bound(table)  :
    mx = max_vote(table)
    for v in table.values():
        assert v <= mx


@given(st.integers(0, 6), votes, epochs, hdrs,
       st.dictionaries(st.integers(0, 6), votes, max_size=7),
       st.booleans())
def test_decide_vote_never_decreases_own_vote(self_id, own, e_new, accepted,
                                              table, timed_out):
    action = decide_vote(self_id, own, e_new, accepted, table, timed_out)
    if action.decision is VoteDecision.VOTE_SELF:
        # Self-votes strictly exceed both own vote and the visible max.
        assert action.new_vote.e_new > e_new or action.new_vote > own
        assert action.new_vote.e_new.leader == self_id
    elif action.decision is VoteDecision.JOIN_MAX:
        assert action.new_vote > own
        # Joining requires the candidate to subsume our state.
        assert accepted <= action.new_vote.acpt


@given(st.dictionaries(st.integers(0, 8), votes, min_size=1, max_size=9),
       st.integers(0, 8))
def test_winner_dominates_agreeing_voters(table, self_id):
    own = table.get(self_id, VOTE_ZERO)
    quorum = len(table) // 2 + 1
    if won_election(self_id, table, own, quorum):
        # Everyone whose row equals the winning vote voted for self_id
        # with the winner's accepted header — by construction at least
        # as large as what rule 2 allowed them to join with.
        assert own.e_new.leader == self_id
        agreeing = [k for k, v in table.items() if v == own]
        assert len(agreeing) >= quorum


@settings(max_examples=budget(30))
@given(st.lists(hdrs, min_size=3, max_size=5),
       st.integers(0, 100))
def test_synchronous_election_converges_and_winner_is_up_to_date(accepted_list, _salt):
    """Fixed-point convergence on arbitrary accepted-state vectors."""
    n = len(accepted_list)
    accepted = dict(enumerate(accepted_list))
    table = {i: VOTE_ZERO for i in range(n)}
    e_new = {i: Epoch(0, 0) for i in range(n)}
    for round_no in range(40):
        changed = False
        for i in range(n):
            a = decide_vote(i, table[i], e_new[i], accepted[i], dict(table),
                            timed_out=(round_no == 0))
            if a.decision is not VoteDecision.HOLD and a.new_vote != table[i]:
                table[i] = a.new_vote
                e_new[i] = a.new_e_new
                changed = True
        if not changed:
            break
    assert not changed, "election must converge"
    quorum = n // 2 + 1
    winners = [i for i in range(n) if won_election(i, table, table[i], quorum)]
    assert len(winners) == 1
    w = winners[0]
    voters = [i for i in range(n) if table[i] == table[w]]
    for v in voters:
        assert accepted[w] >= accepted[v], "up-to-date property violated"
