"""The integer-array helpers against numpy's own functions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crowdcdr.arrays import distinct, index_dtype

INTEGER_DTYPES = st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                                  np.uint8, np.uint32])


class TestDistinct:
    @settings(max_examples=300, deadline=None)
    @given(values=INTEGER_DTYPES.flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(0, 200))))
    def test_equals_np_unique(self, values):
        got = distinct(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()

    def test_leaves_its_input_alone(self):
        values = np.array([3, 1, 3, 2], np.int64)
        assert distinct(values).tolist() == [1, 2, 3]
        assert values.tolist() == [3, 1, 3, 2]


class TestIndexDtype:
    def test_int32_up_to_its_largest_value(self):
        assert index_dtype(0) is np.int32
        assert index_dtype(2 ** 31 - 1) is np.int32
        assert np.array(2 ** 31 - 1, index_dtype(2 ** 31 - 1)) == 2 ** 31 - 1

    def test_int64_past_it(self):
        assert index_dtype(2 ** 31) is np.int64
        assert np.array(2 ** 31, index_dtype(2 ** 31)) == 2 ** 31

