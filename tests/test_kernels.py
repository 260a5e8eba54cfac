import numpy as np
import pytest

from lexmrc import kernels


def read_only(kernel):
    """`kernel` called on read-only copies of its array arguments.

    Scorers hand the kernels arrays that `TextIndex` keeps for every call
    on its text, so a kernel must never write into its inputs; numpy
    raises if one tries.
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


def running(*rows):
    """The (rows, n + 1) running sums of rows of n weights, from 0.0, as
    `TextIndex.window_score` hands them to `max_window_sum`."""
    weights = np.array(rows, dtype=np.float64)
    prefix = np.zeros((weights.shape[0], weights.shape[1] + 1))
    np.cumsum(weights, axis=1, out=prefix[:, 1:])
    return prefix


def masks(n, *position_lists):
    """One (rows, n) bool row per list of positions."""
    out = np.zeros((len(position_lists), n), dtype=bool)
    for row, positions in zip(out, position_lists):
        row[list(positions)] = True
    return out


def widths(*values):
    return np.array(values, dtype=np.intp)


class TestMaxWindowSum:
    @both_call_forms(kernels.max_window_sum)
    def test_basic(self, impl):
        w = [0.0, 1.0, 1.0, 0.0]
        assert impl(running(w, w), widths(2, 1)).tolist() == pytest.approx([2.0, 1.0])

    @both_call_forms(kernels.max_window_sum)
    def test_window_wider_than_text(self, impl):
        assert impl(running([0.5, 0.25]), widths(10)).tolist() == pytest.approx([0.75])

    @both_call_forms(kernels.max_window_sum)
    def test_empty(self, impl):
        assert impl(running([], []), widths(3, 0)).tolist() == [0.0, 0.0]
        assert impl(running([1.0] * 3), widths(0)).tolist() == [0.0]
        assert impl(np.zeros((0, 4)), widths()).tolist() == []

    def test_rows_of_many_widths_are_scored_each_on_its_own(self):
        rows = [[0.5, 0.0, 0.25, 1.0, 0.125], [1.0, 1.0, 0.0, 0.0, 2.0], [0.0] * 5]
        batch = [(r, w) for r in rows for w in (0, 1, 2, 3, 5, 9)]
        got = kernels.max_window_sum(running(*(r for r, _ in batch)),
                                     widths(*(w for _, w in batch)))
        want = [kernels.max_window_sum(running(r), widths(w))[0] for r, w in batch]
        assert got.tolist() == want


class TestExtremePairDistance:
    @both_call_forms(kernels.extreme_pair_distance)
    def test_min_and_max(self, impl):
        q, o = masks(6, [1, 5]), masks(6, [4])
        assert impl(q, o, np.zeros(1, dtype=np.intp), False).tolist() == [1]
        assert impl(q, o, np.zeros(1, dtype=np.intp), True).tolist() == [3]

    @both_call_forms(kernels.extreme_pair_distance)
    def test_same_position_pairs_skipped(self, impl):
        q, o = masks(5, [2]), masks(5, [2], [2, 4])
        for use_max in (False, True):
            assert impl(q, o, np.zeros(2, dtype=np.intp), use_max).tolist() == [-1, 2]

    @both_call_forms(kernels.extreme_pair_distance)
    def test_empty(self, impl):
        q, o = masks(3, [], [1]), masks(3, [1], [])
        for use_max in (False, True):
            assert impl(q, o, np.array([0, 1]), use_max).tolist() == [-1, -1]
            assert impl(masks(0, []), masks(0, []), np.zeros(1, dtype=np.intp),
                        use_max).tolist() == [-1]

    def test_each_option_is_held_to_its_own_question(self):
        # token 3 is next to question 0's token 2; question 1's tokens
        # are at 0 and 7
        q = masks(8, [2], [0, 7])
        o = masks(8, [3], [3], [0, 6])
        question_of = np.array([0, 1, 1])
        assert kernels.extreme_pair_distance(q, o, question_of, False).tolist() == [1, 3, 1]
        assert kernels.extreme_pair_distance(q, o, question_of, True).tolist() == [1, 4, 7]


def prefixes(rows, known):
    rows = np.asarray(rows, dtype=np.float64)
    known = np.asarray(known, dtype=np.int64)
    vec = np.zeros((rows.shape[0] + 1, rows.shape[1]))
    vec[1:] = np.cumsum(rows * known[:, None], axis=0)
    cnt = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    cnt[1:] = np.cumsum(known)
    return vec, cnt


def window_cosine(vec_prefix, cnt_prefix, target, width):
    """The best window cosine of one target at one width."""
    return float(kernels.max_window_cosine(vec_prefix, cnt_prefix, width, target[None])[0])


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

    def test_keeps_only_valid_windows(self):
        # a known zero vector and an unknown token give no valid window:
        # their 0 beats the one real window's -1, and no 0/0 is formed
        rows = [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        vec, cnt = prefixes(rows, [1, 1, 0])
        targets = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert kernels.max_window_cosine(vec, cnt, 1, targets).tolist() == [0.0, 1.0]

    def test_width_of_the_whole_text_is_one_window(self):
        # the one window's mean is [0.5, 0.5]; a window of either token
        # alone would give [1.0, 0.0] a cosine of 1
        vec, cnt = prefixes([[1.0, 0.0], [0.0, 1.0]], [1, 1])
        got = kernels.max_window_cosine(vec, cnt, 2, np.array([[1.0, 0.0]]))
        assert got.tolist() == [pytest.approx(np.sqrt(0.5))]


def cosines_one_target_at_a_time(vec_prefix, cnt_prefix, width, targets):
    """`max_window_cosine` as it scored one target alone: the valid window
    means of `width` and their norms, then per target `target @ target`
    and `means @ target`, and the max of a zero-filled row of windows.
    Also returns how many windows are valid."""
    sums = vec_prefix[width:] - vec_prefix[:-width]
    cnts = (cnt_prefix[width:] - cnt_prefix[:-width]).astype(np.float64)
    means = sums / np.maximum(cnts, 1.0)[:, None]
    norms = np.sqrt((means * means).sum(axis=1))
    valid = norms > 0
    means, norms = means[valid], norms[valid]
    out = []
    for target in targets:
        target_norm = float(np.sqrt(target @ target))
        if target_norm == 0.0:
            out.append(0.0)
            continue
        scores = np.zeros(valid.shape[0])
        scores[valid] = (means @ target) / (norms * target_norm)
        out.append(float(scores.max()))
    return out, int(valid.sum())


@pytest.mark.parametrize("valid", ["all", "some", "one", "none"])
@pytest.mark.parametrize("dim", [1, 3, 100])
def test_stacked_cosines_equal_one_target_at_a_time(valid, dim):
    """The stacked kernel gives every target the float it gets alone,
    bit for bit, whichever windows are valid and at widths from one token
    to the whole text; among the targets are a zero one, a -0.0 one, and
    repeated rows of the text."""
    rng = np.random.default_rng(dim)
    n = 40
    rows = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    signed_zeros = rng.random(size=(n, dim)) < 0.2
    signed_zeros[:, 0] = False  # every row keeps a nonzero component
    rows[signed_zeros] = -0.0
    known = np.ones(n, dtype=np.int64)
    if valid != "all":
        known[:] = 0
        if valid == "some":
            known[::3] = 1
        elif valid == "one":
            known[17] = 1
    vec, cnt = prefixes(rows, known)
    targets = np.concatenate([rng.normal(size=(30, dim)), np.zeros((1, dim)),
                              np.full((1, dim), -0.0), rows[:5], rows[:5]])
    for width in (1, 4, n):
        got = kernels.max_window_cosine(vec, cnt, width, targets)
        want, valid_windows = cosines_one_target_at_a_time(vec, cnt, width, targets)
        assert [repr(x) for x in got.tolist()] == [repr(x) for x in want]
        if width == 1:
            assert valid_windows == known.sum() == {"all": n, "some": 14, "one": 1,
                                                    "none": 0}[valid]
