import math
import tracemalloc

import numpy as np
import pytest

from glome import geodesics as geo
from glome import jetcalc as jc
from glome import tape


def _reciprocal(a, seed):
    """(1/a, its derivative along seed): a dual division, which tests its divisor."""
    return jc.directional(lambda u: 1.0 / u, (a,), (seed,))


def test_replay_repeats_the_recorded_operations_bitwise():
    seed = np.array([[1.0, -2.0], [0.5, 3.0]])
    replay = tape.record(_reciprocal, (3.0, seed))
    for a in (0.1, -7.5, 1e-150, math.inf, math.nan):
        got, want = replay(a, seed), _reciprocal(a, seed)
        assert type(got[0]) is type(want[0]) and math.isnan(got[0]) == math.isnan(want[0])
        assert got[0] == want[0] or math.isnan(want[0])
        assert np.array_equal(got[1], want[1], equal_nan=True)


def test_a_divisor_check_raises_the_pass_own_error_in_a_replay():
    # jetcalc's divisor check is recorded as one call, which a replay runs
    replay = tape.record(_reciprocal, (3.0, 1.0))
    for a, detail in ((0.0, "zero denominator"), (-0.0, "zero denominator"),
                      (1e-160, "squared denominator underflows")):
        messages = []
        for f in (replay, _reciprocal):
            with pytest.raises(jc.DomainError, match=detail) as err:
                f(a, 1.0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("branch", [bool, lambda u: u == 0.0, lambda u: u != 0.0,
                                    lambda u: u < 1.0, lambda u: 1.0 >= u, abs],
                         ids=["bool", "==", "!=", "<", "reflected >=", "abs"])
def test_a_branch_on_a_traced_value_is_refused(branch):
    with pytest.raises(TypeError):
        tape.record(branch, (0.5,))


def test_elementary_functions_raise_their_own_error_in_a_replay():
    replay = tape.record(lambda x: jc.sin(x) * jc.sqrt(x), (0.5,))
    assert replay(2.0) == math.sin(2.0) * math.sqrt(2.0)
    for x, message in ((math.inf, "sin evaluated at inf"), (-1.0, "sqrt evaluated at -1.0")):
        with pytest.raises(jc.DomainError, match=message):
            replay(x)


def test_a_value_that_would_leave_the_tape_is_refused():
    with pytest.raises(TypeError):
        tape.record(math.exp, (1.0,))
    with pytest.raises(TypeError):
        tape.record(np.exp, (np.ones(2),))


def _chain(a, n=40):
    """n array operations in a chain, each reading only the one before."""
    for _ in range(n // 2):
        a = a * 1.0000001 + 1.0
    return a


def _peak(f, *args) -> int:
    """The peak of the bytes that f(*args) allocates, its result included."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_replay_holds_only_the_intermediates_still_to_be_read():
    replay = tape.record(_chain, (np.ones(3),))
    a = np.linspace(0.0, 1.0, 100_000)
    assert np.array_equal(replay(a), _chain(a))
    # the chain's 40 arrays would peak at 40 arrays' worth if each stayed
    # until the replay returned
    assert _peak(replay, a) < 4 * a.nbytes


def test_a_batch_kernel_call_peaks_below_the_dual_pass():
    geo._curvatures(0.1, 0.2, 0.3, 0.4)  # records the tape
    rng = np.random.default_rng(5)
    x, y, y_x, v_x = rng.uniform(-1.0, 1.0, (4, 10_000))
    assert _peak(geo._curvatures, x, y, y_x, v_x) < _peak(
        geo._nested_pass, x, y, y_x, v_x, *geo._seeds(y, y_x))
