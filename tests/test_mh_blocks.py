"""The block independence-MH chain against a per-step reference.

The reference below is the per-step rule of ``MHKernel.step`` (draw, accept
iff ``log u < lw_y - lw_x``, then mark a regeneration iff
``log v < log_regen_prob``) driven as ``simulate`` drives a kernel; it lives
only here, as the oracle the block chain must match exactly when both are fed
the same random numbers.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from priorscan.chain_runtime import load_trace, log_regen_prob, save_trace, segment_tours
from priorscan.models import normal_hier
from priorscan.models.normal_hier import NormalHierModel, _accept_scan

H1 = [0.0, 1.0]


def per_step_reference(kernel, state, Z, log_u, log_v, n=None, R=None):
    """(Tmat, theta1, delta, ends_at_regen, accepted step indices)."""
    theta, lw_x = state
    T_rows, th1, deltas, accepted = [], [], [], []
    delta, flags, ends_at_regen = True, 0, False
    for i in range(len(Z) + 1):
        if R is not None and delta and flags >= R:
            ends_at_regen = True
            break
        flags += delta
        T, g = kernel.observe((theta, lw_x))
        T_rows.append(T)
        th1.append(g["theta1"])
        deltas.append(delta)
        if (n is not None and len(T_rows) >= n) or i == len(Z):
            break
        prop = kernel.mean + kernel.prop_sd * Z[i]
        lw_y = float(kernel._log_w(prop)[0])
        if log_u[i] < lw_y - lw_x:
            delta = bool(log_v[i] < log_regen_prob(lw_x, lw_y, kernel.log_c))
            theta, lw_x = prop, lw_y
            accepted.append(i)
        else:
            delta = False
    return np.array(T_rows), np.array(th1), np.array(deltas), ends_at_regen, accepted


def random_numbers(seed, steps, J):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((steps, J)), np.log(rng.random(steps)),
            np.log(rng.random(steps)))


def in_blocks(Z, log_u, log_v, edges):
    """The arrays cut at the given step indices, as ``run_blocks`` takes them."""
    cuts = [0, *edges, len(Z)]
    return [(Z[a:b], log_u[a:b], log_v[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


def assert_same_chain(kernel, state, Z, log_u, log_v, edges, n=None, R=None):
    trace = kernel.run_blocks(state, iter(in_blocks(Z, log_u, log_v, edges)), n=n, R=R)
    Tmat, th1, delta, ends_at_regen, accepted = per_step_reference(
        kernel, state, Z, log_u, log_v, n=n, R=R)
    assert np.array_equal(trace.Tmat, Tmat)
    assert np.array_equal(trace.functional("theta1"), th1)
    assert np.array_equal(trace.delta, delta)
    assert trace.ends_at_regen == ends_at_regen

    lw_y = kernel._log_w(kernel.mean + kernel.prop_sd * Z)
    acc, lw = [], state[1]
    for a, b in zip([0, *edges], [*edges, len(Z)]):
        idx, lw = _accept_scan(lw_y[a:b], log_u[a:b], lw)
        acc.extend((idx + a).tolist())
    assert acc[:len(accepted)] == accepted
    # rates over the stored steps: step i leads to draw i + 1
    steps = max(trace.n - 1, 1)
    assert trace.meta["accept_rate"] == sum(i < trace.n - 1 for i in accepted) / steps
    assert trace.meta["regen_rate"] == delta[1:].sum() / steps
    return trace


@pytest.fixture(scope="module")
def kernels():
    model = NormalHierModel(y=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    base = model.mh_kernel(H1)
    # a smaller splitting constant regenerates more often in a short chain
    return base, model.mh_kernel(H1, c=float(np.exp(base.log_c - 1.5)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(0, 400),
       block=st.sampled_from(["1", "7", "non-divisor", "larger"]),
       slice_rows=st.sampled_from([1, 3, 64, normal_hier.SLICE_ROWS]),
       which=st.integers(0, 1), target=st.sampled_from(["n", "R"]),
       frac=st.floats(0.0, 1.0))
def test_block_chain_matches_per_step(kernels, seed, steps, block, slice_rows, which,
                                      target, frac):
    kernel = kernels[which]
    Z, log_u, log_v = random_numbers(seed, steps, kernel.model.J)
    state = kernel.start(np.random.default_rng(seed + 1))
    n_draws = steps + 1
    b = {"1": 1, "7": 7, "larger": n_draws + 3,
         "non-divisor": next(d for d in range(3, n_draws + 4) if n_draws % d)}[block]
    edges = list(range(b, steps, b))
    with mock.patch.object(normal_hier, "SLICE_ROWS", slice_rows):
        if target == "n":
            n = 1 + int(frac * steps)
            assert_same_chain(kernel, state, Z, log_u, log_v, edges, n=n)
        else:
            total = int(per_step_reference(kernel, state, Z, log_u, log_v)[2].sum())
            R = 1 + int(frac * max(total - 1, 0))
            trace = assert_same_chain(kernel, state, Z, log_u, log_v, edges, R=R)
            if R < total:
                assert trace.ends_at_regen and segment_tours(trace).R == R


def drawn_numbers(kernel, seed, sizes):
    """The start and the random numbers ``kernel.trace`` draws from
    ``default_rng(seed)`` in blocks of the given numbers of steps, joined."""
    rng = np.random.default_rng(seed)
    state = kernel.start(rng)
    drawn = [(rng.standard_normal((b, kernel.model.J)), np.log(rng.random(b)),
              np.log(rng.random(b))) for b in sizes]
    return state, *(np.concatenate(x) for x in zip(*drawn))


@pytest.mark.parametrize("target", [{"n": 1}, {"n": 50}, {"n": 1234}, {"R": 1},
                                    {"R": 30}])
@pytest.mark.parametrize("slice_rows", [1, 7, 64])
def test_trace_equals_chain_on_its_drawn_numbers(kernels, monkeypatch, target,
                                                 slice_rows):
    # trace() draws blocks of 50 rows and runs them in slices; fed the same
    # numbers as one block, run_blocks and the per-step reference give the
    # same chain, and the header's rates follow from it
    kernel = kernels[1]
    monkeypatch.setattr(normal_hier, "BLOCK_FLOATS", 50 * kernel.model.J)
    monkeypatch.setattr(normal_hier, "SLICE_ROWS", slice_rows)
    tr = kernel.trace(np.random.default_rng(11), **target)
    # n - 1 proposals for n draws, the last block short; R: full blocks
    steps = target.get("n", 20_001) - 1
    sizes = [50] * (steps // 50) + [steps % 50] * (steps % 50 > 0)
    state, Z, log_u, log_v = drawn_numbers(kernel, 11, sizes or [0])
    ref = assert_same_chain(kernel, state, Z, log_u, log_v, [], **target)
    assert np.array_equal(tr.Tmat, ref.Tmat)
    assert np.array_equal(tr.functional("theta1"), ref.functional("theta1"))
    assert np.array_equal(tr.delta, ref.delta)
    assert tr.ends_at_regen == ref.ends_at_regen == ("R" in target)
    assert tr.meta["accept_rate"] == ref.meta["accept_rate"]
    assert tr.meta["regen_rate"] == ref.meta["regen_rate"]
    if "R" in target:
        assert segment_tours(tr).R == target["R"]
    else:
        assert tr.n == target["n"]


def test_trace_memory_is_the_trace_and_one_block(kernels):
    # the chain writes its draws into arrays sized for n; beside them it
    # holds one drawn block (normals and two uniform arrays) and one slice
    kernel = kernels[0]
    n = 300_000
    rows = normal_hier.BLOCK_FLOATS // kernel.model.J
    block = (normal_hier.BLOCK_FLOATS + 2 * rows) * 8
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr = kernel.trace(rng, n=n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    trace_bytes = tr.Tmat.nbytes + tr.functional("theta1").nbytes + tr.delta.nbytes
    assert peak <= trace_bytes + block + 2 ** 20


@pytest.mark.parametrize("which", [0, 1])
def test_last_tour_ends_at_a_block_edge(kernels, which):
    # the regeneration opening tour R + 1 is the first step of a block, so
    # the trace ends exactly where the previous block ends
    kernel = kernels[which]
    Z, log_u, log_v = random_numbers(7, 3000, kernel.model.J)
    state = kernel.start(np.random.default_rng(8))
    _, _, delta, _, _ = per_step_reference(kernel, state, Z, log_u, log_v)
    flags = np.flatnonzero(delta)           # draw i follows step i - 1
    assert flags.size >= 6
    for R in (1, 2, flags.size // 2, flags.size - 1):
        step = int(flags[R]) - 1
        for edges in ([step], [step - 1, step], range(step % 5, 3000, 5)):
            # step 0 opens the first block whatever the edges
            edges = sorted({e for e in edges if 0 < e < 3000})
            assert step == 0 or step in edges
            trace = assert_same_chain(kernel, state, Z, log_u, log_v, edges, R=R)
            assert trace.n == flags[R] and trace.ends_at_regen
            assert segment_tours(trace).R == R


def test_state_carried_across_block_edges(kernels):
    # a state accepted in one block is the current state of the next blocks
    # until a proposal is accepted there
    kernel = kernels[0]
    Z, log_u, log_v = random_numbers(3, 500, kernel.model.J)
    state = kernel.start(np.random.default_rng(4))
    accepted = per_step_reference(kernel, state, Z, log_u, log_v)[4]
    gaps = [(a, b) for a, b in zip(accepted, accepted[1:]) if b - a > 2]
    assert gaps
    edges = sorted({a + 1 for a, _ in gaps} | {a + 2 for a, _ in gaps})
    trace = assert_same_chain(kernel, state, Z, log_u, log_v, edges, n=501)
    a, b = gaps[0]
    assert np.all(trace.Tmat[a + 1:b + 1] == trace.Tmat[a + 1])


@pytest.mark.parametrize("rows", [1, 7, 13])
def test_trace_in_small_blocks(kernels, monkeypatch, rows):
    # the block size comes from BLOCK_FLOATS; a few rows force many blocks
    kernel = kernels[0]
    monkeypatch.setattr(normal_hier, "BLOCK_FLOATS", rows * kernel.model.J)
    tr = kernel.trace(np.random.default_rng(5), n=250)
    assert tr.n == 250 and tr.delta[0] and not tr.ends_at_regen
    tr = kernel.trace(np.random.default_rng(5), R=3)
    assert tr.ends_at_regen and segment_tours(tr).R == 3


@pytest.mark.parametrize("target", [{"n": 3000}, {"R": 40}, {"n": 1}])
def test_rates_in_trace_header(kernels, tmp_path, target):
    # the share of steps whose row changed and of regeneration flags after
    # the first, recomputed from the rows of the written trace
    tr = kernels[1].trace(np.random.default_rng(9), **target)
    save_trace(tr, tmp_path / "trace.txt")
    back = load_trace(tmp_path / "trace.txt")
    steps = max(back.n - 1, 1)
    changed = np.any(back.Tmat[1:] != back.Tmat[:-1], axis=1)
    assert back.meta["accept_rate"] == changed.sum() / steps
    assert back.meta["regen_rate"] == back.delta[1:].sum() / steps
    if back.n > 1:
        assert 0.0 < back.meta["regen_rate"] < back.meta["accept_rate"] < 1.0


def test_target_validation(kernels):
    kernel = kernels[0]
    rng = np.random.default_rng(0)
    for bad in ({}, {"n": 10, "R": 2}, {"R": 0}):
        with pytest.raises(ValueError):
            kernel.trace(rng, **bad)
