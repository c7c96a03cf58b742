import math

import numpy as np
import pytest

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


def test_a_guard_that_sees_another_path_returns_none():
    # jetcalc's divisor test branches on |a| < 1.49e-154: the replay stops
    # there, where the pass itself raises DomainError
    replay = tape.record(_reciprocal, (3.0, 1.0))
    for a in (0.0, -0.0, 1e-160):
        assert replay(a, 1.0) is None
        with pytest.raises(jc.DomainError):
            _reciprocal(a, 1.0)


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
