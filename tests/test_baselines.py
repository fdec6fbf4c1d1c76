import dataclasses

import numpy as np
import pytest

import oracle_reference as oracle
from conftest import random_spherical
from mocapkey import baselines, metrics
from mocapkey.errors import MocapKeyError
from mocapkey.keyframes import KeyframeSet


def test_random_selection_bounds_and_determinism():
    a = baselines.select_random(60, 7, seed=5)
    b = baselines.select_random(60, 7, seed=5)
    c = baselines.select_random(60, 7, seed=6)
    assert a.indices == b.indices
    assert a.indices != c.indices
    assert len(a) == 7
    assert a.indices[0] == 0 and a.indices[-1] == 59
    assert all(0 < k < 59 for k in a.indices[1:-1])


def test_random_selection_covers_interior_uniformly():
    hits = np.zeros(20, dtype=int)
    for seed in range(400):
        for k in baselines.select_random(20, 4, seed).indices[1:-1]:
            hits[k] += 1
    assert hits[0] == 0 and hits[-1] == 0
    assert np.all(hits[1:-1] > 0)


def test_uniform_selection_documented_example():
    assert baselines.select_uniform(60, 5).indices == (0, 15, 30, 44, 59)


def test_uniform_selection_small_cases():
    assert baselines.select_uniform(10, 2).indices == (0, 9)
    assert baselines.select_uniform(10, 10).indices == tuple(range(10))
    keys = baselines.select_uniform(61, 5)
    assert keys.indices == (0, 15, 30, 45, 60)


def test_uniform_spacing_is_monotone_and_spans():
    for n in (12, 37, 60, 101):
        for w in (2, 3, 5, 9):
            keys = baselines.select_uniform(n, w)
            assert len(keys) == w
            assert keys.indices[0] == 0 and keys.indices[-1] == n - 1
            gaps = np.diff(keys.indices)
            assert gaps.min() >= 1
            assert gaps.max() - gaps.min() <= 1


@pytest.mark.parametrize("w", [1, 0, -3])
def test_budget_must_be_at_least_two(w):
    message = rf"^keyframe count must be in \[2, 60\], got {w}$"
    with pytest.raises(MocapKeyError, match=message):
        baselines.select_uniform(60, w)
    with pytest.raises(MocapKeyError, match=message):
        baselines.select_random(60, w, seed=0)


def test_budget_cannot_exceed_frames():
    with pytest.raises(MocapKeyError, match=r"^keyframe count must be in \[2, 10\], got 11$"):
        baselines.select_uniform(10, 11)
    with pytest.raises(MocapKeyError, match=r"^keyframe count must be in \[2, 10\], got 11$"):
        baselines.select_random(10, 11, seed=0)


def _spike_window():
    # a flat track with one raised frame: adding any other frame leaves the
    # error at exactly 1, so every pick is a tie
    theta = np.ones((9, 1))
    theta[5] = 2.0
    zeros = np.zeros((9, 1))
    return dataclasses.replace(random_spherical(0, n=9, m=1), theta=theta,
                               phi=zeros, theta_dot=zeros, phi_dot=zeros)


def test_greedy_matches_exhaustive_reference():
    cases = [(random_spherical(seed, n=n, m=2), w)
             for seed, n, w in ((0, 9, 5), (1, 9, 5), (2, 9, 5), (3, 16, 6))]
    for sph, w in cases + [(_spike_window(), 4)]:
        got = baselines.select_greedy(sph, w)
        ref = oracle.greedy_reference(
            sph.theta.tolist(), sph.phi.tolist(),
            sph.theta_dot.tolist(), sph.phi_dot.tolist(), sph.dt, w)
        assert list(got.indices) == ref


def test_greedy_each_step_is_argmin(small_sph):
    # rebuild the selection one exhaustive argmin at a time (ties keep the
    # lowest frame index) and compare against the implementation
    sph = small_sph[0]
    keys = KeyframeSet.endpoints(sph.frame_count)
    for _ in range(4):
        qs = {c: metrics.q_error(sph, keys.add(c)) for c in keys.complement()}
        best = min(sorted(qs), key=lambda c: qs[c])
        keys = keys.add(best)
    assert baselines.select_greedy(sph, 6).indices == keys.indices


def test_greedy_with_full_budget_keeps_everything(small_sph):
    sph = small_sph[0]
    n = sph.frame_count
    got = baselines.select_greedy(sph, n)
    assert got.indices == tuple(range(n))
