"""The one-pass panel quadrature kernel against one mp.quad per integral.

The oracle is the panel loop quad_unit_interval ran before the kernel:
mp.quad once per integral and panel, under the ladder and target that
_panel_quad reads from muntz_space at call time.  Every part of one
_panel_quad pass must reproduce its own oracle value and error estimate bit
for bit, while the black box is called once per node of the pass, node
powers come from the cache or not, and an escalation round keeps the
panels it already has.  Tests that need another ladder, or the target in
their ids rather than 10^(-bits/8), set it with monkeypatch.
"""

import pytest
from mpmath import mp, mpc, mpf

from muntzlab import QuadratureError, generate_exponents, working_precision
from muntzlab import muntz_space
from muntzlab.muntz_space import _NODE_POWERS, _moment_parts, _norm2_part, _panel_quad


class Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


def oracle(f, part, bits):
    """One mp.quad per panel for the single integrand part(t, f(t)).

    Returns (value, error, calls per panel of the last round, failed); on
    failure value is the unnormalised complex total, as QuadratureError
    carries it.
    """
    counted = Counted(f)
    with working_precision(bits):
        tol = mpf(muntz_space.inverse_residual_tolerance(bits))
        ratio = mpf(muntz_space._QUAD_RATIO)
        levels, degree = muntz_space._QUAD_LEVELS, muntz_space._QUAD_MAXDEGREE
        for _ in range(muntz_space._QUAD_ROUNDS + 1):
            points = [mpf(0)] + [ratio ** j for j in range(levels, 0, -1)] + [mpf(1)]
            total, err, calls = mpc(0), mpf(0), []
            for a, b in zip(points[:-1], points[1:]):
                before = counted.calls
                val, e = mp.quad(lambda t: part(t, counted(t)), [a, b], error=True,
                                 maxdegree=degree)
                calls.append(counted.calls - before)
                total += val
                err += abs(e)
            if err <= tol:
                return (total if total.imag != 0 else total.real), err, calls, False
            levels += 4
            degree += 1
        return total, err, calls, True


A = mpf("2.3")
B = mpf("1.7")
BLACK_BOXES = {
    "power": lambda t: t ** A,
    "power_log": lambda t: t ** B * mp.log(t),
    "complex": lambda t: mpc(t, t * t),
    "python_int": lambda t: 1,
}


def set_target(monkeypatch, tol):
    """Make tol the target of _panel_quad and the oracle at every bit count."""
    monkeypatch.setattr(muntz_space, "inverse_residual_tolerance", lambda bits: tol)


@pytest.mark.parametrize("bits,tol", [(64, 1e-20), (512, 1e-30)])
@pytest.mark.parametrize("name", sorted(BLACK_BOXES))
def test_parts_match_one_quad_per_integral(name, bits, tol, monkeypatch):
    f = BLACK_BOXES[name]
    set_target(monkeypatch, tol)
    parts = _moment_parts([1, 4]) + [_norm2_part]
    got = _panel_quad(f, parts, bits)
    for part, (val, err) in zip(parts, got):
        want_val, want_err, _, failed = oracle(f, part, bits)
        assert not failed
        assert repr(val) == repr(want_val) and repr(err) == repr(want_err)


def test_black_box_called_once_per_node_of_the_pass():
    squares = [n * n for n in range(1, 11)]
    parts = _moment_parts(squares) + [_norm2_part]
    per_part = [oracle(BLACK_BOXES["power"], part, 256)[2] for part in parts]
    f = Counted(BLACK_BOXES["power"])
    _panel_quad(f, parts, 256)
    # each panel evaluates f at the nodes of the highest degree any part reaches
    assert f.calls == sum(max(panel) for panel in zip(*per_part))
    # parts reach the top degree on different panels, so the pass may cost a
    # little more than the dearest single integral, but not 11 integrals' worth
    assert f.calls < 1.25 * max(sum(calls) for calls in per_part)


def test_only_the_unsettled_part_escalates(monkeypatch):
    # at maxdegree 4 and 256 bits (target 1e-32) the oscillating part needs
    # the second round, the others the first
    monkeypatch.setattr(muntz_space, "_QUAD_MAXDEGREE", 4)
    monkeypatch.setattr(muntz_space, "_QUAD_ROUNDS", 1)
    parts = [lambda t, v: v * v, lambda t, v: mp.sin(20 * v), lambda t, v: v ** 3]
    f = Counted(lambda t: t)
    got = _panel_quad(f, parts, 256)
    for part, (val, err) in zip(parts, got):
        want_val, want_err, _, failed = oracle(lambda t: t, part, 256)
        assert not failed
        assert repr(val) == repr(want_val) and repr(err) == repr(want_err)
    second = oracle(lambda t: t, parts[1], 256)[2]

    # one round: the oracle's calls are round one's, settled or not
    monkeypatch.setattr(muntz_space, "_QUAD_ROUNDS", 0)
    # round one calls f at the nodes every part needs; round two at the
    # oscillating part's nodes on its five new panels, and on the six panels
    # it keeps only at the degree the oracle adds there (none where it settled)
    first = [oracle(lambda t: t, part, 256)[2] for part in parts]
    new, kept = second[:5], zip(second[5:], first[1][1:])
    assert f.calls == sum(max(panel) for panel in zip(*first)) + sum(new) + sum(
        now - before for now, before in kept)
    assert f.calls < sum(max(panel) for panel in zip(*first)) + sum(second)

    # with one round it fails; a later failing part does not mask it
    late = lambda t, v: mp.sin(25 * v)
    assert oracle(lambda t: t, late, 256)[3]
    with pytest.raises(QuadratureError) as info:
        _panel_quad(lambda t: t, parts + [late], 256)
    want_total, _, _, failed = oracle(lambda t: t, parts[1], 256)
    assert failed
    assert repr(info.value.achieved) == repr(want_total)


# integer exponents and the first non-integer ones of the p = 1.5 sequence
MIXED_EXPONENTS = [1, 4] + list(generate_exponents("power", {"p": 1.5}, 3).values[1:])


def _no_power(t, lam):
    raise AssertionError("a warm pass computed a node power")


@pytest.mark.parametrize("bits,tol", [(64, 1e-20), (256, 1e-30), (512, 1e-30)])
@pytest.mark.parametrize("name", ["complex", "python_int"])
def test_cold_and_warm_node_powers_match_one_quad_per_integral(name, bits, tol, monkeypatch):
    f = BLACK_BOXES[name]
    set_target(monkeypatch, tol)
    parts = _moment_parts(MIXED_EXPONENTS)
    _NODE_POWERS.clear()
    cold = _panel_quad(f, parts, bits)
    with monkeypatch.context() as m:
        m.setattr(muntz_space, "_power", _no_power)
        warm = _panel_quad(f, parts, bits)
    for part, got_cold, got_warm in zip(parts, cold, warm):
        want_val, want_err, _, failed = oracle(f, part, bits)
        assert not failed
        assert repr(got_cold) == repr(got_warm) == repr((want_val, want_err))


def test_node_power_cache_stays_under_its_cap():
    # ten exponents at 512 bits hold more node powers than the cap admits
    _NODE_POWERS.clear()
    parts = _moment_parts(range(1, 11))
    got = _panel_quad(lambda t: 1, parts, 512)
    assert 0 < _NODE_POWERS.size <= _NODE_POWERS.CAP
    assert _NODE_POWERS.size == sum(size for _, _, size in _NODE_POWERS.entries.values())
    # the evicted powers are recomputed, to the same bits
    assert repr(_panel_quad(lambda t: 1, parts, 512)) == repr(got)
    assert _NODE_POWERS.size <= _NODE_POWERS.CAP


def test_impure_black_box_gets_fresh_values():
    scale = [1]
    f = lambda t: scale[0] * t
    parts = _moment_parts([1, 4]) + [_norm2_part]
    first = _panel_quad(f, parts, 128)
    scale[0] = 3
    second = _panel_quad(f, parts, 128)
    for part, (val, err), (old, _) in zip(parts, second, first):
        want_val, want_err, _, _ = oracle(lambda t: 3 * t, part, 128)
        assert repr(val) == repr(want_val) and repr(err) == repr(want_err)
        assert val != old


def test_precision_restored_when_black_box_raises():
    def broken(t):
        if broken.calls == 50:
            raise ZeroDivisionError("black box failed")
        broken.calls += 1
        return t

    broken.calls = 0
    before = mp.prec
    with pytest.raises(ZeroDivisionError):
        _panel_quad(broken, _moment_parts([1, 4]), 256)
    assert mp.prec == before
