import numpy as np
import pytest

from mocapkey.errors import MocapKeyError
from mocapkey.keyframes import KeyframeSet


def test_from_indices_sorts_and_dedups():
    keys = KeyframeSet.from_indices([59, 0, 12, 12, 30], 60)
    assert keys.indices == (0, 12, 30, 59)
    assert len(keys) == 4


def test_endpoints():
    keys = KeyframeSet.endpoints(60)
    assert keys.indices == (0, 59)
    assert keys.frame_count == 60


@pytest.mark.parametrize("bad", [
    [0],                 # fewer than two entries
    [1, 30, 59],         # first frame missing
    [0, 30, 58],         # last frame missing
    [0, 65],             # out of range
    [0, -1, 59],         # negative
])
def test_validation_rejects_bad_sets(bad):
    with pytest.raises(MocapKeyError, match=r"^(need at least the first and last frame"
                                            r"|set must span frames 0\.\.59)"):
        KeyframeSet.from_indices(bad, 60)


def test_validation_rejects_non_integer():
    with pytest.raises(MocapKeyError, match="^indices must be integers$"):
        KeyframeSet(indices=(0, 12.5, 59), frame_count=60)


def test_builders_reject_non_integers_and_store_plain_ints():
    # from_indices and add apply the constructor's rule, not a truncation
    with pytest.raises(MocapKeyError, match="integers"):
        KeyframeSet.from_indices([0, 2.5, 4], 5)
    with pytest.raises(MocapKeyError, match="integers"):
        KeyframeSet.endpoints(5).add(2.5)
    for keys in (KeyframeSet.from_indices([0, np.int64(2), 4.0], 5),
                 KeyframeSet.endpoints(5).add(np.int64(2)),
                 KeyframeSet.endpoints(5).add(2.0)):
        assert keys.indices == (0, 2, 4)
        assert [type(i) for i in keys.indices] == [int, int, int]


def test_add_returns_new_set_and_rejects_duplicates():
    keys = KeyframeSet.endpoints(10)
    more = keys.add(4)
    assert keys.indices == (0, 9)
    assert more.indices == (0, 4, 9)
    with pytest.raises(MocapKeyError, match="^frame 4 is already a keyframe$"):
        more.add(4)


def test_mask_and_from_mask_round_trip():
    keys = KeyframeSet.from_indices([0, 3, 7, 9], 10)
    mask = keys.mask
    assert mask.dtype == np.bool_
    assert mask.tolist() == [True, False, False, True, False,
                             False, False, True, False, True]
    assert KeyframeSet.from_mask(mask).indices == keys.indices


def test_complement_lists_free_interior_frames():
    keys = KeyframeSet.from_indices([0, 3, 9], 10)
    assert keys.complement().tolist() == [1, 2, 4, 5, 6, 7, 8]


def test_membership_and_iteration():
    keys = KeyframeSet.from_indices([0, 5, 9], 10)
    assert 5 in keys and 4 not in keys
    assert list(keys) == [0, 5, 9]
