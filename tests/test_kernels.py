import numpy as np
import pytest

from lexmrc import kernels


def read_only(kernel):
    """`kernel` called on read-only copies of its array arguments.

    Scorers hand the kernels arrays that `TextIndex` caches, so a kernel
    must never write into its inputs; numpy raises if one tries.
    """

    def call(*args):
        frozen = []
        for arg in args:
            if isinstance(arg, np.ndarray):
                arg = arg.copy()
                arg.setflags(write=False)
            frozen.append(arg)
        return kernel(*frozen)

    return call


def both_call_forms(kernel):
    """Each test runs on plain inputs (`...0`) and on read-only ones (`...1`).

    The ids keep the test names stable across the kernels' history.
    """
    name = kernel.__name__ + "_numpy"
    return pytest.mark.parametrize(
        "impl", [kernel, read_only(kernel)], ids=[name + "0", name + "1"]
    )


class TestMaxWindowSum:
    @both_call_forms(kernels.max_window_sum)
    def test_basic(self, impl):
        w = np.array([0.0, 1.0, 1.0, 0.0])
        assert impl(w, 2) == pytest.approx(2.0)
        assert impl(w, 1) == pytest.approx(1.0)

    @both_call_forms(kernels.max_window_sum)
    def test_window_wider_than_text(self, impl):
        w = np.array([0.5, 0.25])
        assert impl(w, 10) == pytest.approx(0.75)

    @both_call_forms(kernels.max_window_sum)
    def test_empty(self, impl):
        assert impl(np.zeros(0), 3) == 0.0
        assert impl(np.ones(3), 0) == 0.0


class TestExtremePairDistance:
    @both_call_forms(kernels.extreme_pair_distance)
    def test_min_and_max(self, impl):
        a = np.array([1, 5], dtype=np.int64)
        b = np.array([4], dtype=np.int64)
        assert impl(a, b, False) == 1
        assert impl(a, b, True) == 3

    @both_call_forms(kernels.extreme_pair_distance)
    def test_same_position_pairs_skipped(self, impl):
        a = np.array([2], dtype=np.int64)
        assert impl(a, a, False) == -1
        b = np.array([2, 4], dtype=np.int64)
        assert impl(a, b, False) == 2

    @both_call_forms(kernels.extreme_pair_distance)
    def test_empty(self, impl):
        a = np.zeros(0, dtype=np.int64)
        b = np.array([1], dtype=np.int64)
        assert impl(a, b, False) == -1


def prefixes(rows, known):
    rows = np.asarray(rows, dtype=np.float64)
    known = np.asarray(known, dtype=np.int64)
    vec = np.zeros((rows.shape[0] + 1, rows.shape[1]))
    vec[1:] = np.cumsum(rows * known[:, None], axis=0)
    cnt = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    cnt[1:] = np.cumsum(known)
    return vec, cnt


def window_cosine(vec_prefix, cnt_prefix, target, width):
    """The best window cosine as a scorer forms it: the window means of one
    width, then the cosine of `target` against them."""
    return kernels.max_window_cosine(kernels.window_means(vec_prefix, cnt_prefix, width), target)


window_cosine.__name__ = "max_window_cosine"


class TestMaxWindowCosine:
    @both_call_forms(window_cosine)
    def test_exact_match_window(self, impl):
        rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        vec, cnt = prefixes(rows, [1, 1, 1])
        target = np.array([0.0, 1.0])
        assert impl(vec, cnt, target, 1) == pytest.approx(1.0)

    @both_call_forms(window_cosine)
    def test_zero_target_undefined(self, impl):
        vec, cnt = prefixes([[1.0, 0.0]], [1])
        assert impl(vec, cnt, np.zeros(2), 1) == 0.0

    @both_call_forms(window_cosine)
    def test_unknown_windows_count_as_zero(self, impl):
        # one all-unknown window, one negative-similarity window: the
        # undefined window's 0 wins
        rows = [[0.0, 0.0], [-1.0, 0.0]]
        vec, cnt = prefixes(rows, [0, 1])
        target = np.array([1.0, 0.0])
        assert impl(vec, cnt, target, 1) == pytest.approx(0.0)

    @both_call_forms(window_cosine)
    def test_all_windows_negative(self, impl):
        rows = [[-1.0, 0.0], [-1.0, -1.0]]
        vec, cnt = prefixes(rows, [1, 1])
        target = np.array([1.0, 0.0])
        got = impl(vec, cnt, target, 1)
        assert got == pytest.approx(-np.sqrt(0.5))


class TestWindowMeans:
    def test_cached_arrays_are_read_only(self):
        vec, cnt = prefixes([[1.0, 0.0], [0.0, 0.0]], [1, 1])
        windows = kernels.window_means(vec, cnt, 1)
        for array in windows:
            with pytest.raises(ValueError):
                array[...] = 0

    def test_keeps_only_valid_windows(self):
        # an unknown token and a known zero vector give no valid window
        vec, cnt = prefixes([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [1, 0, 1])
        windows = kernels.window_means(vec, cnt, 1)
        assert windows.valid.tolist() == [True, False, False]
        assert windows.means.tolist() == [[1.0, 0.0]]
        assert windows.norms.tolist() == [1.0]

    def test_width_of_the_whole_text_is_one_window(self):
        vec, cnt = prefixes([[1.0, 0.0], [0.0, 1.0]], [1, 1])
        windows = kernels.window_means(vec, cnt, 2)
        assert windows.valid.tolist() == [True]
        assert windows.means.tolist() == [[0.5, 0.5]]
