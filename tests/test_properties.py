"""Property tests (hypothesis): the Hermiticity gate and the queue update.

* The Hermiticity gate accepts a matrix whose max|W - W^H| sits just below
  HERMITIAN_ATOL and rejects one just above it, in both places a matrix is
  solved: per matrix (max_eigpair) and per stack (eigh_stack).
* For any nonnegative queues and any deficits, the queue update keeps the
  queues nonnegative and the quadratic drift inequality holds to within
  DRIFT_SLACK, for raw deficits and for the deficits the policies produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim.harness import DRIFT_SLACK, advance_queues
from wptsim.linalg import HERMITIAN_ATOL, eigh_stack, max_eigpair
from wptsim.policies import POLICIES, QUEUE_DRIVEN_KINDS, PolicyParams, core_step
from oracles import random_hermitian

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def perturbed(draw, factor):
    """An exactly Hermitian W with one entry moved so that max|W - W^H| is
    factor * HERMITIAN_ATOL, up to round-off far below the margins drawn."""
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(SEEDS))
    w = random_hermitian(rng, n, scale=draw(st.floats(min_value=1e-3, max_value=10.0)))
    dev = draw(factor) * HERMITIAN_ATOL
    a = draw(st.integers(min_value=0, max_value=n - 1))
    b = draw(st.integers(min_value=0, max_value=n - 1))
    if a == b:
        # W - W^H on the diagonal is twice the imaginary part
        w[a, a] += 0.5j * dev
    else:
        w[a, b] += dev * np.exp(1j * draw(st.floats(min_value=0.0, max_value=2 * np.pi)))
    return w


BELOW = st.floats(min_value=0.0, max_value=0.99)
ABOVE = st.floats(min_value=1.01, max_value=100.0)


@settings(max_examples=150, deadline=None)
@given(perturbed(BELOW))
def test_hermitian_gate_accepts_just_below_tolerance(w):
    max_eigpair(w)
    eigh_stack(np.stack([w, np.eye(len(w), dtype=complex)]))


@settings(max_examples=150, deadline=None)
@given(perturbed(ABOVE))
def test_hermitian_gate_rejects_just_above_tolerance(w):
    with pytest.raises(ValueError, match="not Hermitian"):
        max_eigpair(w)
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh_stack(np.stack([np.eye(len(w), dtype=complex), w]))


@st.composite
def queues_and_deficits(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    q = draw(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=n, max_size=n))
    d = draw(st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=n, max_size=n))
    return np.array(q), np.array(d)


@settings(max_examples=300, deadline=None)
@given(queues_and_deficits())
def test_queue_update_is_nonnegative_and_keeps_the_drift_bound(case):
    q, d = case
    q_new, q_new_sq, slack = advance_queues(q, (q**2).sum(), d)
    assert np.array_equal(q_new, np.maximum(q + d, 0.0))
    assert np.all(q_new >= 0.0)
    assert q_new_sq == (q_new**2).sum()
    assert slack <= DRIFT_SLACK


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(QUEUE_DRIVEN_KINDS), seed=SEEDS)
def test_policy_deficits_keep_the_drift_bound(kind, seed):
    rng = np.random.default_rng(seed)
    params = PolicyParams(p_peak=10.0, v=float(rng.uniform(0.01, 50.0)), p_avg=5.0,
                          p_targets=(0.01, 0.02), p_min=0.005)
    q = rng.uniform(0.0, 50.0, size=sum(POLICIES[kind].queues(2)))
    q_sq = (q**2).sum()
    for _ in range(20):
        h = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        ws = 1e-3 * np.einsum("kmn,kmp->knp", h.conj(), h)
        ws = 0.5 * (ws + np.conj(np.swapaxes(ws, 1, 2)))
        _, _, d = core_step(kind, q, params, ws, 1.0)
        q, q_sq, slack = advance_queues(q, q_sq, d)
        assert np.all(q >= 0.0)
        assert slack <= DRIFT_SLACK
