from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpclease.errors import ConfigurationError

from reference import (
    ArrivalBatch,
    ConcentratorState,
    ServiceGrant,
    advance_virtual,
    enqueue,
    littles_law_delay,
    measured_mean_delay,
    serve,
)


def test_enqueue_adds_packets():
    s = ConcentratorState()
    enqueue(s, ArrivalBatch(slot=0, packets=5))
    enqueue(s, ArrivalBatch(slot=1, packets=2))
    assert s.q_len == 7
    assert s.ledger_count() == 7


def test_enqueue_empty_batch_is_identity():
    s = ConcentratorState()
    enqueue(s, ArrivalBatch(slot=4, packets=0))
    assert s.q_len == 0
    assert s.ledger_count() == 0


def test_serve_removes_oldest():
    s = ConcentratorState()
    enqueue(s, ArrivalBatch(slot=0, packets=5))
    serve(s, ServiceGrant(packets_served=3), now=2)
    assert s.q_len == 2
    assert s.ledger_count() == 2


def test_serve_empty_queue_no_underflow():
    s = ConcentratorState()
    serve(s, ServiceGrant(packets_served=5), now=3)
    assert s.q_len == 0
    assert s.total_served == 0


def test_serve_records_delay():
    s = ConcentratorState()
    enqueue(s, ArrivalBatch(slot=4, packets=1))
    serve(s, ServiceGrant(packets_served=1), now=9)
    assert s.delivered_delays == Counter({5: 1})
    assert measured_mean_delay(s) == 5


def test_serve_same_slot_delay_zero():
    s = ConcentratorState()
    enqueue(s, ArrivalBatch(slot=6, packets=2))
    serve(s, ServiceGrant(packets_served=2), now=6)
    assert s.delivered_delays == Counter({0: 2})


def test_service_grant_rejects_negative():
    with pytest.raises(ConfigurationError):
        ServiceGrant(packets_served=-1)


def test_advance_virtual_examples():
    s = ConcentratorState(z_len=1.0)
    advance_virtual(s, served=0, epsilon=1.0, busy_before_service=True)
    assert s.z_len == 2.0

    s = ConcentratorState(z_len=3.0)
    advance_virtual(s, served=5, epsilon=1.0, busy_before_service=True)
    assert s.z_len == 0.0  # clamped

    s = ConcentratorState(z_len=0.0)
    advance_virtual(s, served=0, epsilon=1.0, busy_before_service=False)
    assert s.z_len == 0.0  # idle fixed point


def test_advance_virtual_rejects_bad_inputs():
    s = ConcentratorState()
    with pytest.raises(ConfigurationError):
        advance_virtual(s, served=0, epsilon=0.0, busy_before_service=False)
    with pytest.raises(ConfigurationError):
        advance_virtual(s, served=-1, epsilon=1.0, busy_before_service=False)


def test_littles_law_examples():
    assert littles_law_delay(10.0, 5.0) == 2.0
    assert littles_law_delay(0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        littles_law_delay(10.0, 0.0)


def test_y_len_combines_queues():
    s = ConcentratorState(z_len=2.5)
    enqueue(s, ArrivalBatch(slot=0, packets=3))
    assert s.y_len == 5.5


def test_copy_is_independent():
    s = ConcentratorState()
    enqueue(s, ArrivalBatch(slot=0, packets=2))
    c = s.copy()
    serve(c, ServiceGrant(packets_served=2), now=1)
    assert s.q_len == 2 and c.q_len == 0
    assert s.delivered_delays == Counter()


# -- property tests -----------------------------------------------------

op_sequences = st.lists(
    st.tuples(
        st.sampled_from(["enqueue", "serve", "advance"]),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=60,
)


def apply_ops(ops, epsilon=1.5):
    """Run an op sequence against the module and a straight-line reference.

    The reference keeps a plain list of arrival stamps (FIFO), a float z,
    and recomputes every quantity from first principles.
    """
    state = ConcentratorState()
    ref_stamps: list[int] = []
    ref_z = 0.0
    ref_delays: Counter = Counter()
    ref_arrived = ref_served = 0

    for now, (op, amount) in enumerate(ops):
        if op == "enqueue":
            enqueue(state, ArrivalBatch(slot=now, packets=amount))
            ref_stamps.extend([now] * amount)
            ref_arrived += amount
        elif op == "serve":
            serve(state, ServiceGrant(packets_served=amount), now=now)
            taken = min(amount, len(ref_stamps))
            for stamp in ref_stamps[:taken]:
                ref_delays[now - stamp] += 1
            del ref_stamps[:taken]
            ref_served += taken
        else:
            busy = state.q_len > 0
            advance_virtual(state, amount, epsilon, busy)
            ref_z = max(ref_z - amount + (epsilon if busy else 0.0), 0.0)

        assert state.q_len >= 0
        assert state.z_len >= 0
        assert state.q_len == state.ledger_count() == len(ref_stamps)
        assert state.z_len == ref_z
        assert state.total_arrived == ref_arrived
        assert state.total_arrived == state.total_served + state.q_len
    assert state.delivered_delays == ref_delays
    assert state.total_served == ref_served


@given(op_sequences)
@settings(max_examples=300, deadline=None)
def test_random_operation_sequences_match_reference(ops):
    apply_ops(ops)


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=40),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_virtual_queue_matches_straight_line(serves, epsilon):
    # alternate enqueue/advance so both branches of the indicator fire
    state = ConcentratorState()
    z = 0.0
    for i, served in enumerate(serves):
        if i % 3 == 0:
            enqueue(state, ArrivalBatch(slot=i, packets=i % 4))
        busy = state.q_len > 0
        advance_virtual(state, served, epsilon, busy)
        z = max(z - served + (epsilon if busy else 0.0), 0.0)
        assert state.z_len == z
        serve(state, ServiceGrant(packets_served=served), now=i)


@given(st.lists(st.integers(min_value=0, max_value=20), max_size=50))
@settings(max_examples=200, deadline=None)
def test_fifo_stamps_nondecreasing(batches):
    # all arrivals first, then drain one at a time recording stamps
    state = ConcentratorState()
    for slot, packets in enumerate(batches):
        enqueue(state, ArrivalBatch(slot=slot, packets=packets))
    total = state.q_len
    now = len(batches) + 1
    last_stamp = -1
    for _ in range(total):
        before = state.delivered_delays.copy()
        serve(state, ServiceGrant(packets_served=1), now=now)
        (delay,) = (+state.delivered_delays - before).keys()
        stamp = now - delay
        assert stamp >= last_stamp
        last_stamp = stamp
    assert state.q_len == 0
