"""Simulated MPI: collectives, synchronization, cost model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hardware import VirtualClock
from repro.mpi import CommModel, MpiError, SimComm


def _comm(n=4, node_of_rank=None):
    clocks = [VirtualClock() for _ in range(n)]
    return SimComm(clocks, node_of_rank=node_of_rank), clocks


def test_barrier_synchronizes_clocks():
    comm, clocks = _comm()
    clocks[2].advance(5.0)
    comm.barrier()
    times = [c.now for c in clocks]
    assert max(times) == min(times)
    assert times[0] > 5.0  # collective latency added


def test_allreduce_default_sum():
    comm, _ = _comm()
    assert comm.allreduce([1.0, 2.0, 3.0, 4.0]) == 10.0


def test_allreduce_min_op():
    comm, _ = _comm()
    assert comm.allreduce([0.4, 0.1, 0.3, 0.2], op=min) == 0.1


def test_allreduce_numpy_arrays():
    comm, _ = _comm(2)
    out = comm.allreduce([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    assert np.allclose(out, [4.0, 6.0])


def test_wrong_contribution_count_rejected():
    comm, _ = _comm(4)
    with pytest.raises(MpiError):
        comm.allreduce([1.0, 2.0])


def test_bcast_returns_copies_per_rank():
    comm, _ = _comm(3)
    out = comm.bcast("hello", root=0)
    assert out == ["hello"] * 3


def test_gather_and_allgather():
    comm, _ = _comm(3)
    assert comm.gather([10, 20, 30]) == [10, 20, 30]
    assert comm.allgather(["a", "b", "c"]) == ["a", "b", "c"]


def test_alltoall_transposes():
    comm, _ = _comm(2)
    matrix = [["00", "01"], ["10", "11"]]
    out = comm.alltoall(matrix)
    assert out[0] == ["00", "10"]
    assert out[1] == ["01", "11"]


def test_sendrecv_advances_only_endpoints():
    comm, clocks = _comm(4)
    comm.sendrecv(0, 1, 1e6)
    assert clocks[0].now == clocks[1].now > 0
    assert clocks[2].now == 0.0


def test_sendrecv_self_is_noop():
    comm, clocks = _comm(2)
    comm.sendrecv(1, 1, 1e9)
    assert clocks[1].now == 0.0


def test_invalid_rank_rejected():
    comm, _ = _comm(2)
    with pytest.raises(MpiError):
        comm.sendrecv(0, 5, 10.0)
    with pytest.raises(MpiError):
        comm.bcast("x", root=9)


def test_stats_accumulate():
    comm, clocks = _comm(2)
    clocks[0].advance(1.0)
    comm.barrier()
    comm.allreduce([1.0, 2.0])
    assert comm.stats.calls["barrier"] == 1
    assert comm.stats.calls["allreduce"] == 1
    assert comm.stats.sync_wait_s > 0  # rank 1 waited for rank 0


def test_intra_vs_inter_node_costs():
    model = CommModel()
    fast = model.point_to_point_s(1e6, same_node=True)
    slow = model.point_to_point_s(1e6, same_node=False)
    assert fast < slow


def test_collective_scales_with_log_ranks():
    model = CommModel()
    t8 = model.collective_s(8, 1e3)
    t64 = model.collective_s(64, 1e3)
    assert t8 < t64


def test_multi_node_detection():
    comm, _ = _comm(4, node_of_rank=[0, 0, 1, 1])
    assert comm.multi_node
    comm2, _ = _comm(4, node_of_rank=[0, 0, 0, 0])
    assert not comm2.multi_node


def test_empty_comm_rejected():
    with pytest.raises(MpiError):
        SimComm([])


def test_reduce_scatter_column_sums():
    comm, clocks = _comm(4)
    matrix = [[float(src * 10 + dst) for dst in range(4)] for src in range(4)]
    out = comm.reduce_scatter(matrix)
    # rank dst receives sum over src of matrix[src][dst]
    assert out == [60.0, 64.0, 68.0, 72.0]
    assert comm.stats.calls["reduce_scatter"] == 1
    assert max(c.now for c in clocks) > 0.0


def test_reduce_scatter_custom_op_and_shape_check():
    comm, _ = _comm(2)
    assert comm.reduce_scatter([[3.0, 1.0], [2.0, 4.0]], op=min) == [2.0, 1.0]
    with pytest.raises(MpiError):
        comm.reduce_scatter([[1.0], [2.0]])  # row shorter than n_ranks
    with pytest.raises(MpiError):
        comm.reduce_scatter([[1.0, 2.0]])  # missing a contributor


def test_reduce_scatter_costs_more_than_allreduce():
    comm_a, clocks_a = _comm(4)
    comm_b, clocks_b = _comm(4)
    comm_a.allreduce([1.0] * 4)
    comm_b.reduce_scatter([[1.0] * 4] * 4)
    assert max(c.now for c in clocks_b) > max(c.now for c in clocks_a)


def test_alltoall_stats_accounting():
    comm, _ = _comm(3)
    comm.alltoall([[b"x" * 10] * 3 for _ in range(3)])
    assert comm.stats.calls["alltoall"] == 1
    assert comm.stats.bytes_moved > 0


def test_per_rank_wait_accounting():
    comm, clocks = _comm(3)
    clocks[0].advance(2.0)
    comm.barrier()
    waits = comm.stats.rank_wait_s
    assert len(waits) == 3
    assert waits[0] == 0.0  # the late rank never waits
    assert waits[1] == pytest.approx(2.0)
    assert waits[2] == pytest.approx(2.0)
    assert comm.stats.sync_wait_s == pytest.approx(sum(waits))


def test_stats_state_roundtrip_keeps_rank_waits():
    comm, clocks = _comm(2)
    clocks[1].advance(1.0)
    comm.barrier()
    state = comm.stats.state_dict()
    comm2, _ = _comm(2)
    comm2.stats.restore_state(state)
    assert comm2.stats.rank_wait_s == comm.stats.rank_wait_s
    # Old checkpoints predate per-rank waits: restore must tolerate it.
    del state["rank_wait_s"]
    comm2.stats.restore_state(state)
    assert comm2.stats.rank_wait_s == []


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=8))
def test_allreduce_sum_matches_python_sum(values):
    comm, _ = _comm(len(values))
    assert comm.allreduce(list(values)) == pytest.approx(sum(values))


@given(
    st.integers(min_value=1, max_value=128),
    st.floats(min_value=0.0, max_value=1e9),
)
def test_collective_time_positive_and_finite(n, nbytes):
    model = CommModel()
    t = model.collective_s(n, nbytes)
    assert 0.0 < t < 10.0
