"""The bench suite's timing harness (``benchmarks/conftest.py``'s
``rotating_rounds``), driven by a fake clock so every sample is known."""

import importlib.util
import pathlib

import numpy as np

import repro

REPO = pathlib.Path(repro.__file__).resolve().parent.parent.parent


def _harness():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO / "benchmarks" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.rotating_rounds


class FakeClock:
    """A clock that only moves when a side advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_rotating_rounds_rotates_skips_warmup_and_pairs_rounds():
    rotating_rounds = _harness()
    clock = FakeClock()
    rounds, warmup = 6, 2
    calls = []  # (side, round) in call order; round -1 = warm-up

    def side(name, cost):
        """A side whose call in round r advances the clock by ``cost(r)``;
        the round is read off the call count (``warmup`` untimed calls per
        side, then one call per side and round).  Warm-up calls cost
        1000 s, so a sampled warm-up would show."""

        def run():
            n = len(calls) - 3 * warmup
            r = -1 if n < 0 else n // 3
            calls.append((name, r))
            clock.now += 1000.0 if r < 0 else cost(r)
            return name

        return run

    # b/a is 2 in every round, so pairing samples across rounds would show
    sides = {
        "a": side("a", lambda r: r + 1.0),
        "b": side("b", lambda r: 2.0 * (r + 1.0)),
        "c": side("c", lambda r: 7.0),
    }
    res = rotating_rounds(sides, rounds, warmup=warmup, clock=clock)

    warm = [c for c in calls if c[1] < 0]
    assert len(warm) == 3 * warmup and {name for name, _ in warm} == {"a", "b", "c"}
    timed = [c for c in calls if c[1] >= 0]
    firsts = [timed[3 * r][0] for r in range(rounds)]
    assert {name: firsts.count(name) for name in sides} == {"a": 2, "b": 2, "c": 2}
    for r in range(rounds):
        assert {name for name, rr in timed[3 * r: 3 * r + 3]} == {"a", "b", "c"}
        assert all(rr == r for _, rr in timed[3 * r: 3 * r + 3])

    # warm-up is not sampled: every sample is its round's cost
    assert res.samples["a"] == [r + 1.0 for r in range(rounds)]
    assert res.samples["c"] == [7.0] * rounds
    assert res.outputs == {"a": "a", "b": "b", "c": "c"}

    # quartiles are those of the samples
    for name in sides:
        assert res.quartiles(name) == list(np.percentile(res.samples[name], [25, 50, 75]))
        assert res.median(name) == float(np.median(res.samples[name]))
    assert res.quartiles("a", 1e3) == [q * 1e3 for q in res.quartiles("a")]

    # per-round ratios pair samples of the same round
    assert res.ratios("b", "a") == [2.0] * rounds
    assert res.ratio_quartiles("b", "a") == [2.0, 2.0, 2.0]
    assert res.ratios("c", "a") == [7.0 / (r + 1.0) for r in range(rounds)]


def test_rotating_rounds_calls_per_sample_average():
    rotating_rounds = _harness()
    clock = FakeClock()
    costs = iter([1.0, 3.0, 5.0, 7.0])

    def run():
        clock.now += next(costs)

    res = rotating_rounds({"x": run}, 2, calls=2, warmup=0, clock=clock)
    assert res.samples["x"] == [2.0, 6.0]
    assert res.record() == {"rounds": 2, "x": res.quartiles("x")}
