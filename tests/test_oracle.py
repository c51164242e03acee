import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slatelearn as sl
from conftest import mnl, stream_states
from slatelearn import ledger as ledger_mod
from slatelearn import oracle as oracle_mod
from slatelearn.oracle import (BINOMIAL_CHUNK, BINOMIAL_MAX_COUNT, BINOMIAL_TAG,
                               GEOMETRIC_CAP, INT64_MAX, NEGLIGIBLE_LOG,
                               SCALAR_PAIRS, STREAM_CHUNK,
                               STREAM_MAX_DRAWS, pair_streams_seed)


def uniform_pair():
    return mnl(1.0, 1.0)


def binomial_stream(seed):
    """The one stream every binomial-mode draw of a seeded oracle reads."""
    return np.random.default_rng(np.random.SeedSequence((seed, BINOMIAL_TAG)))


def one_column(o, u, v, counts):
    """``sample_geometric_sums`` of u against the one member v: the loss
    totals of runs of ``counts[g]`` waits, as a vector."""
    return o.sample_geometric_sums(u, np.array([v]),
                                   np.asarray(counts)[:, None])[:, 0]


class TestMaxSample:
    def test_singleton_always_returns_the_item(self):
        o = sl.LiveOracle(mnl(1.0, 2.0, 3.0), seed=0)
        assert all(o.max_sample([2]) == 2 for _ in range(20))

    def test_pair_frequency_is_close_to_truth(self):
        o = sl.LiveOracle(uniform_pair(), seed=1)
        wins = np.count_nonzero(o.sample_pair_block(0, 1, 100_000) == 0)
        # binomial 3 sigma is about 0.0047
        assert abs(wins / 100_000 - 0.5) < 0.01

    def test_pseudo_mnl_lone_highest_member_always_wins(self):
        model = sl.MatchingPseudoMnl(np.array([0.7, 0.2]), np.arange(4))
        o = sl.LiveOracle(model, seed=2)
        assert all(o.max_sample([0, 1, 2]) == 2 for _ in range(20))

    def test_big_slate_counts_match_distribution(self):
        model = mnl(1.0, 2.0, 3.0, 4.0)
        o = sl.LiveOracle(model, seed=3)
        counts = o.slate_win_counts([0, 1, 2, 3], 100_000)
        np.testing.assert_allclose(counts / 100_000,
                                   model.slate_distribution([0, 1, 2, 3]),
                                   atol=0.01)


class TestLedger:
    def test_counts_every_query(self):
        o = sl.LiveOracle(mnl(1.0, 1.0, 1.0), seed=0)
        o.max_sample([0, 1])
        o.max_sample([0, 1, 2])
        o.pair_win_count(1, 2, 10)
        assert o.ledger.total == 12
        assert o.ledger.per_pair == {(0, 1): 1, (1, 2): 10}
        assert o.ledger.per_size == {2: 11, 3: 1}

    def test_pair_keys_are_canonical(self):
        o = sl.LiveOracle(mnl(1.0, 2.0), seed=0)
        o.sample_pair(1, 0)
        o.sample_pair(0, 1)
        assert o.ledger.per_pair == {(0, 1): 2}

    def test_geometric_charges_losses_plus_one(self):
        o = sl.LiveOracle(mnl(1.0, 5.0), seed=7)
        losses = o.sample_geometric(0, 1)
        assert o.ledger.total == losses + 1

    def test_max_per_pair(self):
        led = sl.QueryLedger()
        assert led.max_per_pair == 0
        led.record_pair(0, 1, 5)
        led.record_pair(1, 2, 9)
        assert led.max_per_pair == 9

    @pytest.mark.parametrize("mode", ["binomial", "stream", "replay"])
    def test_zero_count_calls_leave_the_ledger_untouched(self, mode):
        o = sl.LiveOracle(mnl(1.0, 2.0, 3.0), seed=1,
                          pair_mode="binomial" if mode == "binomial" else "stream")
        if mode == "replay":
            o = sl.ReplayOracle(sl.build_replay_table(o, 4))
        else:
            o.slate_win_counts([0, 1, 2], 0)
        o.pair_win_count(0, 1, 0)
        o.pair_win_count(np.array([0, 2]), 1, 0)
        o.sample_pair_block(1, 2, 0)
        o.sample_geometric_block(2, 0, 0)
        one_column(o, 0, 2, [0, 0])
        assert o.ledger == sl.QueryLedger()   # per_pair {}, total 0

    def test_record_pairs_is_repeated_record_pair(self):
        # one id against its partners, below and above it, some repeated
        u, vs = 2, [3, 0, 1, 0, 3]
        for count in (0, 1, 7, 2**64):
            batched, looped = sl.QueryLedger(), sl.QueryLedger()
            batched.record_pair(2, 3)
            looped.record_pair(2, 3)
            batched.record_pairs(u, np.array(vs), count)
            for v in vs:
                looped.record_pair(u, v, count)
            assert batched == looped
            assert list(batched.per_pair) == list(looped.per_pair)
            assert all(type(k) is int for key in batched.per_pair for k in key)
        empty = sl.QueryLedger()
        empty.record_pairs(5, np.array([], dtype=np.int64), 5)
        assert empty == sl.QueryLedger()
        # numpy ids of any integer dtype give Python int keys
        for a, b in ((np.int64(2), np.array([0])),
                     (np.uint64(1), np.array([2], dtype=np.uint64)),
                     (np.array(3), np.array([1], dtype=np.int32))):
            batched, looped = sl.QueryLedger(), sl.QueryLedger()
            batched.record_pairs(a, b, 4)
            looped.record_pair(int(a), int(b[0]), 4)
            assert batched == looped
            assert all(type(k) is int for key in batched.per_pair for k in key)
        with pytest.raises(TypeError):   # two arrays of ids
            sl.QueryLedger().record_pairs(np.array([1], dtype=np.uint64),
                                          np.array([2]), 3)
        # one count per pair: a zero adds no key, and counts may pass 2^63
        for counts in ([0, 4, 0, 2**64, 1], np.array([5, 0, 3, 0, 2]),
                       [2**63, 2**63 + 1, 0, 0, 2**70], [0] * 5):
            batched, looped = sl.QueryLedger(), sl.QueryLedger()
            batched.record_pairs(u, np.array(vs), counts)
            for v, count in zip(vs, counts):
                looped.record_pair(u, v, int(count))
            assert batched == looped
            assert list(batched.per_pair) == list(looped.per_pair)
            assert all(type(c) is int for c in batched.per_pair.values())
        batched = sl.QueryLedger()
        batched.record_pairs(2, np.array([0, 1, 3]), np.array([1, 0, 6]))
        assert batched.per_pair == {(0, 2): 1, (2, 3): 6}
        assert batched.total == batched.per_size[2] == 7
        with pytest.raises(ValueError):
            batched.record_pairs(u, np.array(vs), [1, 2])


class DictLedger:
    """The per-pair dict ledger a charge loop builds: the reference."""

    def __init__(self):
        self.total, self.batch, self.batch_pairs = 0, 0, 0
        self.per_pair, self.per_size = {}, {}

    def record_pair(self, u, v, count):
        if count:
            key = (u, v) if u < v else (v, u)
            self.per_pair[key] = self.per_pair.get(key, 0) + count
            self.per_size[2] = self.per_size.get(2, 0) + count
            self.total += count

    def record_pairs(self, u, vs, counts):
        each = counts if isinstance(counts, list) else [counts] * len(vs)
        for v, count in zip(vs, each):
            self.record_pair(u, v, count)

    def record_batch(self, pairs, count):
        if pairs and count:
            self.batch, self.batch_pairs = self.batch + count, pairs
            self.per_size[2] = self.per_size.get(2, 0) + pairs * count
            self.total += pairs * count

    @property
    def max_per_pair(self):
        return self.batch + max(self.per_pair.values(), default=0)


def charge_lists(ids, counts):
    """Interleavings of scalar, array and batch charges, key lookups and
    reads."""
    return st.lists(st.one_of(
        st.tuples(st.just("pair"), ids, ids, counts),
        st.tuples(st.just("get"), ids, ids),
        st.tuples(st.just("pairs"), ids, st.lists(ids, max_size=12),
                  st.one_of(counts, st.lists(counts, min_size=12,
                                             max_size=12))),
        st.tuples(st.just("batch"), st.integers(0, 40), counts),
        st.tuples(st.just("read"))), max_size=40)


# few ids, so pairs repeat; sums that may pass int64; and ids that span
# more than one int64 sort key holds, out to int64's ends, with counts
# past int64
SMALL_IDS = st.integers(0, 7)
CHARGES = {
    "small": charge_lists(SMALL_IDS, st.integers(0, 3)),
    "large": charge_lists(SMALL_IDS | st.just(2**30),
                          st.integers(0, 3) | st.integers(0, 2**62)),
    "exotic": charge_lists(
        SMALL_IDS | st.sampled_from([-1, 2**30, 2**31, 2**40,
                                     -2**63, 2**63 - 1]),
        st.integers(0, 3) | st.integers(2**63, 2**70)),
}


def assert_reads_alike(ledger, ref):
    # in pair order, (a, b) ascending
    pairs, listed = ledger.per_pair, sorted(ref.per_pair.items())
    assert list(pairs.items()) == listed
    assert list(pairs) == [key for key, _ in listed]
    assert list(pairs.values()) == [count for _, count in listed]
    assert pairs == ref.per_pair and len(pairs) == len(ref.per_pair)
    assert all(type(k) is int for key in pairs for k in key)
    assert all(type(c) is int for c in pairs.values())
    for key, count in ref.per_pair.items():
        assert pairs[key] == pairs.get(key) == count and key in pairs
    for key in ((0, 99), (1, 0), (3, 3), "ab", (0, 1.5)):
        if key not in ref.per_pair:
            assert key not in pairs and pairs.get(key, -1) == -1
            with pytest.raises(KeyError):
                pairs[key]
    assert (ledger.total, ledger.per_size, ledger.max_per_pair) == (
        ref.total, ref.per_size, ref.max_per_pair)
    assert (json.dumps(sl.ledger_report(ledger))
            == json.dumps(sl.ledger_report(ref)))


@pytest.mark.parametrize("kind", sorted(CHARGES))
@given(data=st.data(), fold_min=st.sampled_from([1, 5, ledger_mod.FOLD_MIN]))
@settings(max_examples=150, deadline=None)
def test_runs_read_as_the_dict_loop(kind, data, fold_min):
    # any interleaving of charges, read at any point and folded early
    # or late, reads as the dict a charge loop builds
    charges = data.draw(CHARGES[kind])
    saved, ledger_mod.FOLD_MIN = ledger_mod.FOLD_MIN, fold_min
    try:
        ledger, twin, ref = sl.QueryLedger(), sl.QueryLedger(), DictLedger()
        for op, *args in charges:
            if op == "pairs":   # one count for all, or one per pair
                u, vs, counts = args
                if isinstance(counts, list):
                    counts = counts[:len(vs)]
                ledger.record_pairs(u, np.array(vs, dtype=np.int64), counts)
                ref.record_pairs(u, vs, counts)
                for v, count in zip(vs, counts if isinstance(counts, list)
                                    else [counts] * len(vs)):
                    twin.record_pair(u, v, count)
            elif op == "read":
                assert_reads_alike(ledger, ref)
            elif op == "get":   # one key, without listing
                key = tuple(args)
                assert (ledger.per_pair.get(key) == twin.per_pair.get(key)
                        == ref.per_pair.get(key))
            else:
                getattr(ledger, "record_" + op)(*args)
                getattr(twin, "record_" + op)(*args)
                getattr(ref, "record_" + op)(*args)
        assert_reads_alike(ledger, ref)
        assert_reads_alike(twin, ref)
        assert ledger == twin
    finally:
        ledger_mod.FOLD_MIN = saved
    with pytest.raises(TypeError):
        ledger.per_pair[(0, 1)] = 1
    with pytest.raises(TypeError):
        del ledger.per_pair[(0, 1)]


class TestLedgerRuns:
    @pytest.mark.parametrize("call", [
        lambda led: led.record_pairs(0, np.array([1, 2]), -3),
        lambda led: led.record_pairs(0, np.array([1, 2]), 1.0),
        lambda led: led.record_pairs(0, np.array([1, 2]), np.array([1, -1])),
        lambda led: led.record_pairs(0, np.array([1, 2]), [1, 0.5]),
        lambda led: led.record_pairs(0, np.array([1, 2]), np.array([1.0, 2.0])),
        lambda led: led.record_pairs(0, np.array([1, 2]), [True, 1]),
        lambda led: led.record_pairs(0, np.array([1.5]), 1),
        lambda led: led.record_pairs(0, np.array([True]), 1),
        lambda led: led.record_pair(0, 1, -3),
        lambda led: led.record_pair(0, 1, 2.0),
        lambda led: led.record_pair(0, 2**70),
        lambda led: led.record_pairs(0, np.array([1, 2**63], dtype=np.uint64)),
        lambda led: led.record_batch(3, -1),
        lambda led: led.record_batch(-3, 1),
        lambda led: led.record_slate(3, -1),
    ])
    def test_charges_the_oracle_refuses_are_refused_unchanged(self, call):
        ledger = sl.QueryLedger()
        ledger.record_pairs(3, np.array([0, 5]), 2)
        before = (ledger.total, dict(ledger.per_size),
                  list(ledger.per_pair.items()))
        with pytest.raises(ValueError):
            call(ledger)
        assert before == (ledger.total, ledger.per_size,
                          list(ledger.per_pair.items()))

    def test_sums_near_int64_stay_exact(self):
        # a ledger whose charges add up past int64 keeps exact counts in
        # its arrays
        ledger, ref = sl.QueryLedger(), DictLedger()
        for u, vs, count in ((0, [1, 2, 3, 4, 5], 2**61), (0, [1], 5),
                             (2, [0], 2**62), (2, [0, 1], 2**62 - 1)):
            ledger.record_pairs(u, np.array(vs), count)
            ref.record_pairs(u, vs, count)
            assert_reads_alike(ledger, ref)
        assert ledger.per_pair[(0, 2)] == 2**61 + 2**63 - 1

    @pytest.mark.parametrize("last", [("pairs", 6, [7], 2**63),
                                      ("pairs", 6, [2**31], 1),
                                      ("pair", 7, 6, 2**63)])
    def test_interleaved_charges_list_in_pair_order(self, last):
        # scalar and array charges, interleaved, then a count past int64
        # or an id past 2^31, list in pair order
        ledger, ref = sl.QueryLedger(), DictLedger()
        for op, u, v, count in (("pairs", 0, [1], 1), ("pair", 3, 2, 1),
                                ("pairs", 4, [5, 2], 1), ("pair", 2, 3, 4),
                                ("pair", 1, 0, 2), last):
            if op == "pairs":
                ledger.record_pairs(u, np.array(v), count)
                ref.record_pairs(u, v, count)
            else:
                ledger.record_pair(u, v, count)
                ref.record_pair(u, v, count)
        assert_reads_alike(ledger, ref)
        assert list(ledger.per_pair) == [(0, 1), (2, 3), (2, 4), (4, 5),
                                         (6, last[2][0]) if last[0] == "pairs"
                                         else (6, 7)]

    def test_numpy_counts_are_charged_as_python_ints(self):
        ledger = sl.QueryLedger()
        ledger.record_pairs(0, np.array([1, 2]), np.int64(5))
        ledger.record_pair(0, 3, np.uint8(2))
        ledger.record_pairs(4, np.array([1], dtype=np.int32), np.array([7]))
        report = sl.ledger_report(ledger)
        assert json.loads(json.dumps(report)) == report
        assert report["total"] == 19 and report["pairs_touched"] == 4
        assert all(type(c) is int for c in ledger.per_pair.values())


class CheckedLedger(sl.QueryLedger):
    """A ledger that also tallies every pair charge through the dict loop."""

    def __init__(self):
        super().__init__()
        self.ref = DictLedger()

    def record_pair(self, u, v, count=1):
        super().record_pair(u, v, count)
        self.ref.record_pair(u, v, int(count))

    def record_pairs(self, u, vs, counts=1, starts=None):
        super().record_pairs(u, vs, counts, starts=starts)
        vs = np.ravel(vs).tolist()
        counts = (int(counts) if np.isscalar(counts)
                  else [int(c) for c in np.ravel(counts).tolist()])
        if starts is None:
            self.ref.record_pairs(int(u), vs, counts)
            return
        # a ragged charge: run i is u[i] against its slice of vs
        ends = np.append(starts[1:], len(vs)).tolist()
        for item, lo, hi in zip(np.ravel(u).tolist(), starts.tolist(), ends):
            self.ref.record_pairs(item, vs[lo:hi], counts if type(counts)
                                  is int else counts[lo:hi])


@pytest.mark.parametrize("learn, n, fold_min", [
    (sl.learn_adaptive, 256, 64), (sl.learn_adaptive, 256, ledger_mod.FOLD_MIN),
    (sl.learn_balanced, 64, 64), (sl.learn_balanced, 64, ledger_mod.FOLD_MIN),
    (sl.learn_adaptive, 16384, ledger_mod.FOLD_MIN)])   # a total past int64
def test_learners_charge_as_the_dict_loop(learn, n, fold_min, monkeypatch):
    # the learners' array charges, folded often or only when read, read as
    # the dict loop's: same pairs in pair order, same counts
    monkeypatch.setattr(ledger_mod, "FOLD_MIN", fold_min)
    truth = sl.generate_instance(
        sl.InstanceSpec("power-law", n, 1201, {"gamma": 1.0}))
    o = sl.LiveOracle(truth, 1201)
    o.ledger = CheckedLedger()
    learn(o, n, 0.3, 0.1, seed=1201)
    ref = o.ledger.ref
    assert len(ref.per_pair) > n
    assert list(o.ledger.per_pair.items()) == sorted(ref.per_pair.items())
    assert o.ledger.max_per_pair == ref.max_per_pair
    assert (ref.total > INT64_MAX) == (n == 16384)
    assert len(o.ledger.per_pair) == len(ref.per_pair)


class TestBinomialChunks:
    def test_count_up_to_chunk_is_one_draw(self):
        # a count up to the chunk is one Binomial(count, p) draw from the
        # oracle's binomial stream, and one vector draw for many pairs
        model = mnl(1.0, 3.0, 2.0)
        p = sl.pair_probability(model, 0, 1)
        # one id against its partners, the array on either side
        calls = [(np.array([0, 2, 0]), 1), (2, np.array([1, 0]))]
        for count in (0, 1, 1000, 2**40, BINOMIAL_CHUNK):
            o = sl.LiveOracle(model, seed=8)
            rng = binomial_stream(8)
            assert o.pair_win_count(0, 1, count) == rng.binomial(count, p)
            for u, v in calls:
                wins = o.pair_win_count(u, v, count)
                np.testing.assert_array_equal(wins, rng.binomial(
                    count, sl.pair_probabilities(model, u, v)))
                assert wins.dtype == np.int64
            # a 0-d array is one pair, drawn and charged like the rest
            assert (o.pair_win_count(np.array(0), 1, count).tolist()
                    == [rng.binomial(count, p)])
            assert o.ledger.total == count * 7
            assert o._pair_rngs == {}

    def test_count_beyond_c_long(self):
        o = sl.LiveOracle(mnl(1.0, 3.0), seed=9)
        wins = o.pair_win_count(0, 1, 2**64)
        assert isinstance(wins, int) and 0 <= wins <= 2**64
        # every chunk is drawn: the sd of wins / 2^64 is about 1e-10
        assert abs(wins / 2**64 - 0.25) < 1e-6
        assert o.ledger.total == 2**64
        assert o.ledger.per_pair == {(0, 1): 2**64}
        o = sl.LiveOracle(mnl(1.0, 3.0, 1.0), seed=9)
        wins = o.pair_win_count(np.array([0, 2]), 1, 2**64).tolist()
        assert all(type(w) is int and abs(w / 2**64 - 0.25) < 1e-6
                   for w in wins)
        assert o.ledger.per_pair == {(0, 1): 2**64, (1, 2): 2**64}

    @pytest.mark.parametrize("pairs", [(0, 1), (np.array([2, 1]), 0)])
    def test_count_of_too_many_pieces_is_refused(self, pairs):
        # 7.6e27 queries of one pair would be 1.6e9 pieces; a count above
        # 2^16 pieces is refused before any pair is drawn or charged
        o = sl.LiveOracle(mnl(1.0, 3.0, 1.0), seed=9)
        state = o._binomial_rng.bit_generator.state
        with pytest.raises(sl.DemandTooLarge) as info:
            o.pair_win_count(*pairs, BINOMIAL_MAX_COUNT + 1)
        assert (info.value.count, info.value.cap) == (BINOMIAL_MAX_COUNT + 1,
                                                      BINOMIAL_MAX_COUNT)
        assert "use a larger eps" in str(info.value)
        assert o.ledger == sl.QueryLedger()
        assert o._binomial_rng.bit_generator.state == state
        wins = o.pair_win_count(0, 1, BINOMIAL_MAX_COUNT)
        assert abs(wins / BINOMIAL_MAX_COUNT - 0.25) < 1e-6
        assert o.ledger.total == BINOMIAL_MAX_COUNT

    def test_array_pieces_are_drawn_pair_by_pair(self, monkeypatch):
        # every piece of one pair before the next pair, as scalar calls draw
        monkeypatch.setattr(oracle_mod, "BINOMIAL_CHUNK", 7)
        model = mnl(1.0, 3.0, 2.0, 0.5)
        a, b = (sl.LiveOracle(model, seed=12) for _ in range(2))
        wins = a.pair_win_count(0, np.array([1, 3, 2]), 20)
        assert wins.tolist() == [b.pair_win_count(0, v, 20) for v in (1, 3, 2)]
        assert all(type(w) is int for w in wins.tolist())
        assert a.ledger == b.ledger
        assert a._binomial_rng.random() == b._binomial_rng.random()


class TestArrayDraws:
    """Small arrays draw a scalar per pair, larger ones one vector draw."""

    @pytest.mark.parametrize("size", [1, SCALAR_PAIRS, SCALAR_PAIRS + 1])
    @pytest.mark.parametrize("scalar_first", [False, True])
    def test_any_size_equals_one_vector_draw(self, size, scalar_first):
        model = sl.generate_instance(sl.InstanceSpec(
            "power-law", n=SCALAR_PAIRS + 2, seed=size, params={"gamma": 1.0}))
        items = np.arange(1, size + 1)
        o = sl.LiveOracle(model, seed=size)
        rng = binomial_stream(size)
        if scalar_first:
            wins = o.pair_win_count(0, items, 1000)
            p = sl.pair_probabilities(model, np.zeros(size, dtype=int), items)
        else:
            wins = o.pair_win_count(items, 0, 1000)
            p = sl.pair_probabilities(model, items, np.zeros(size, dtype=int))
        np.testing.assert_array_equal(wins, rng.binomial(1000, p))
        assert wins.dtype == np.int64
        # the stream stands where the vector draw left it
        assert o._binomial_rng.random() == rng.random()
        assert o.ledger.per_pair == {(0, int(u)): 1000 for u in items}


def hit_model(size, hits):
    """Items 1..size against item 0: those in ``hits`` win nearly always."""
    log_w = np.full(size + 1, -30.0)
    log_w[0] = 0.0
    log_w[[h + 1 for h in hits]] = 30.0
    return sl.LogWeightMnl(log_w)


def stop_loop(o, items, v, count, stop):
    """Reference: scalar calls in order, through the first count >= stop."""
    wins = []
    for u in items.tolist():
        wins.append(o.pair_win_count(u, v, count))
        if wins[-1] >= stop:
            break
    return wins


class TestStop:
    """``stop`` answers the prefix through the first hit, as a scalar loop."""

    @pytest.mark.parametrize("mode", ["binomial", "stream", "replay"])
    @pytest.mark.parametrize("hit", [0, 5, SCALAR_PAIRS - 1, SCALAR_PAIRS,
                                     SCALAR_PAIRS + 1, 3 * SCALAR_PAIRS - 1,
                                     3 * SCALAR_PAIRS, 100, None])
    def test_stop_is_the_scalar_loop(self, mode, hit):
        size, count = 120, 200
        hits = [] if hit is None else [hit, hit + 1, size - 1]
        model = hit_model(size, hits)
        a, b = (sl.LiveOracle(model, seed=3, pair_mode="stream"
                              if mode != "binomial" else "binomial")
                for _ in range(2))
        if mode == "replay":
            a, b = (sl.ReplayOracle(sl.build_replay_table(o, count))
                    for o in (a, b))
        items = np.arange(1, size + 1)
        wins = a.pair_win_count(items, 0, count, stop=count // 2)
        want = stop_loop(b, items, 0, count, count // 2)
        assert wins.tolist() == want
        assert len(want) == (size if hit is None else hit + 1)
        assert wins.dtype == np.int64
        assert a.ledger == b.ledger
        assert list(a.ledger.per_pair) == list(b.ledger.per_pair)
        if mode == "binomial":
            assert a._binomial_rng.random() == b._binomial_rng.random()
        elif mode == "stream":
            assert stream_states(a) == stream_states(b)

    def test_stop_with_the_scalar_side_first(self):
        model = hit_model(40, [30])
        a, b = (sl.LiveOracle(model, seed=4) for _ in range(2))
        # item 0 wins against every item but 31, so its count reaches the
        # stop at once
        wins = a.pair_win_count(0, np.arange(1, 41), 100, stop=50)
        assert wins.tolist() == [b.pair_win_count(0, 1, 100)]
        assert a.ledger == b.ledger
        assert a._binomial_rng.random() == b._binomial_rng.random()

    def test_empty_and_unreachable_stops(self):
        o = sl.LiveOracle(hit_model(20, []), seed=5)
        none = np.array([], dtype=np.int64)
        assert o.pair_win_count(none, 0, 10, stop=1).size == 0
        wins = o.pair_win_count(np.arange(1, 21), 0, 10, stop=11)
        assert wins.size == 20
        assert o.ledger.total == 200


def ragged_case(n=40, sizes=(10, 0, 20, 3), seed=7):
    """A power-law model and a ragged call on it: items, flat partners and
    starts, each run's partners drawn without its item."""
    model = sl.generate_instance(sl.InstanceSpec(
        "power-law", n=n, seed=seed, params={"gamma": 1.0}))
    rng = np.random.default_rng(seed)
    items = rng.choice(n, size=len(sizes), replace=False)
    runs = [rng.choice(np.delete(np.arange(n), item), size=size,
                       replace=False) for item, size in zip(items, sizes)]
    starts = np.cumsum([0, *sizes[:-1]])
    return model, items, np.concatenate(runs), starts


def run_slices(items, partners, starts):
    """(item, its partners) of each run of a ragged call, in run order."""
    ends = np.append(starts[1:], partners.size)
    return [(int(u), partners[lo:hi])
            for u, lo, hi in zip(items, starts.tolist(), ends.tolist())]


# three runs: 0 against [1, 2], 3 against [4] and 5 against [1, 2]
ITEMS, PARTNERS = np.array([0, 3, 5]), np.array([1, 2, 4, 1, 2])
BAD_STARTS = [np.array([0, 2]),             # wrong length
              np.array([0, 3, 2]),          # decreasing
              np.array([0, 2, 6]),          # past the end
              np.array([1, 2, 3]),          # not from 0
              np.array([0.0, 2.0, 3.0]),    # not integers
              np.array([0, 5, 3], dtype=np.uint64),
              np.array([[0, 2, 3]])]        # not 1-D


class TestRaggedCalls:
    """``starts`` answers each item against its slice of the partners."""

    @pytest.mark.parametrize("starts", BAD_STARTS)
    def test_the_ledger_refuses_bad_starts(self, starts):
        ledger = sl.QueryLedger()
        with pytest.raises(ValueError):
            ledger.record_pairs(ITEMS, PARTNERS, 3, starts=starts)
        assert ledger == sl.QueryLedger()

    @pytest.mark.parametrize("mode", ["binomial", "stream", "replay"])
    @pytest.mark.parametrize("items, partners, starts, stop", [
        *((ITEMS, PARTNERS, starts, None) for starts in BAD_STARTS),
        (ITEMS, PARTNERS, np.array([0, 2, 3]), 1),            # with stop
        (np.array([0, 3, 6]), PARTNERS, np.array([0, 2, 3]), None),
        (ITEMS, np.array([1, 2, 4, -1, 2]), np.array([0, 2, 3]), None),
        (np.array([0, 4, 5]), PARTNERS, np.array([0, 2, 3]), None),  # u == v
        (np.array([0, 3, 9]), PARTNERS, np.array([0, 2, 5]), None),  # empty run
        (np.array([0.0, 3.0, 5.0]), PARTNERS, np.array([0, 2, 3]), None),
        (ITEMS, PARTNERS.tolist(), np.array([0, 2, 3]), None),
        (0, PARTNERS, np.array([0]), None),
        (np.array([], dtype=np.int64), PARTNERS, np.array([], dtype=int),
         None),
    ])
    def test_refused_before_any_draw(self, mode, items, partners, starts,
                                     stop):
        o = sl.LiveOracle(mnl(*range(1, 7)), seed=3, pair_mode=mode
                          if mode == "binomial" else "stream")
        if mode == "replay":
            o = sl.ReplayOracle(sl.build_replay_table(o, 50))
            before = {}
        else:
            before = {"binomial": o._binomial_rng.bit_generator.state,
                      "slate": o._slate_rng.bit_generator.state}
        with pytest.raises(ValueError):
            o.pair_win_count(items, partners, 10, stop=stop, starts=starts)
        assert o.ledger == sl.QueryLedger()
        assert o._pair_rngs == {}
        if before:
            assert before == {"binomial": o._binomial_rng.bit_generator.state,
                              "slate": o._slate_rng.bit_generator.state}

    @pytest.mark.parametrize("sizes", [(10, 0, 20, 3), (2, 3, 0, 1), (0,)])
    def test_binomial_is_one_vector_draw(self, sizes):
        model, items, partners, starts = ragged_case(sizes=sizes)
        o = sl.LiveOracle(model, seed=4)
        wins = o.pair_win_count(items, partners, 1000, starts=starts)
        rng = binomial_stream(4)
        np.testing.assert_array_equal(wins, rng.binomial(
            1000, sl.pair_probabilities(
                model, np.repeat(items, np.diff(starts, append=partners.size)),
                partners)))
        assert wins.dtype == np.int64
        assert o._binomial_rng.random() == rng.random()
        ref = sl.QueryLedger()
        for u, vs in run_slices(items, partners, starts):
            ref.record_pairs(u, vs, 1000)
        assert o.ledger == ref
        assert list(o.ledger.per_pair.items()) == list(ref.per_pair.items())

    @pytest.mark.parametrize("replay", [False, True])
    def test_stream_and_replay_are_the_scalar_calls(self, replay):
        model, items, partners, starts = ragged_case()
        a, b = (sl.LiveOracle(model, seed=5, pair_mode="stream")
                for _ in range(2))
        if replay:
            a, b = (sl.ReplayOracle(sl.build_replay_table(o, 100))
                    for o in (a, b))
        for count in (7, 0, 30):
            wins = a.pair_win_count(items, partners, count, starts=starts)
            assert wins.tolist() == [
                b.pair_win_count(u, v, count)
                for u, vs in run_slices(items, partners, starts)
                for v in vs.tolist()]
            assert wins.dtype == np.int64
        assert a.ledger == b.ledger   # a replay's read position too
        assert list(a.ledger.per_pair) == list(b.ledger.per_pair)
        assert stream_states(a) == stream_states(b)

    @pytest.mark.parametrize("mode", ["binomial", "stream"])
    @pytest.mark.parametrize("size", [5, 30])
    def test_one_run_is_the_array_call(self, mode, size):
        model, items, partners, starts = ragged_case(sizes=(size,))
        a, b = (sl.LiveOracle(model, seed=6, pair_mode=mode)
                for _ in range(2))
        for count in (1000, 3):
            got = a.pair_win_count(items, partners, count, starts=starts)
            want = b.pair_win_count(int(items[0]), partners, count)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        assert a.ledger == b.ledger
        assert list(a.ledger.per_pair) == list(b.ledger.per_pair)
        assert a._binomial_rng.random() == b._binomial_rng.random()
        assert stream_states(a) == stream_states(b)


class TestDeterminism:
    def test_same_seed_same_answers(self):
        a = sl.LiveOracle(mnl(1.0, 2.0, 3.0), seed=5, pair_mode="stream")
        b = sl.LiveOracle(mnl(1.0, 2.0, 3.0), seed=5, pair_mode="stream")
        seq_a = [a.max_sample([0, 2]) for _ in range(50)]
        seq_b = [b.max_sample([0, 2]) for _ in range(50)]
        assert seq_a == seq_b
        assert a.ledger.per_pair == b.ledger.per_pair

    def test_pair_streams_are_interleaving_independent(self):
        # answers for a pair depend only on that pair's query count
        a = sl.LiveOracle(mnl(1.0, 2.0, 3.0), seed=9, pair_mode="stream")
        b = sl.LiveOracle(mnl(1.0, 2.0, 3.0), seed=9, pair_mode="stream")
        b.sample_pair_block(1, 2, 1000)  # noise on another pair
        np.testing.assert_array_equal(a.sample_pair_block(0, 1, 100),
                                      b.sample_pair_block(0, 1, 100))

    def test_orientation_does_not_change_the_stream(self):
        a = sl.LiveOracle(mnl(1.0, 3.0), seed=4, pair_mode="stream")
        b = sl.LiveOracle(mnl(1.0, 3.0), seed=4, pair_mode="stream")
        np.testing.assert_array_equal(a.sample_pair_block(0, 1, 200),
                                      b.sample_pair_block(1, 0, 200))

    def test_block_and_scalar_draws_agree(self):
        a = sl.LiveOracle(mnl(1.0, 3.0), seed=6, pair_mode="stream")
        b = sl.LiveOracle(mnl(1.0, 3.0), seed=6, pair_mode="stream")
        block = a.sample_pair_block(0, 1, 64)
        scalars = [b.sample_pair(0, 1) for _ in range(64)]
        np.testing.assert_array_equal(block, scalars)

    @pytest.mark.parametrize("replay", [False, True])
    def test_batched_win_counts_are_the_scalar_loop(self, replay):
        # stream and replay oracles answer an array of pairs pair by pair
        model = mnl(1.0, 2.0, 3.0, 0.5)
        us = np.array([1, 0, 3, 1])
        none = np.array([], dtype=np.int64)
        a, b = (sl.LiveOracle(model, seed=6, pair_mode="stream")
                for _ in range(2))
        if replay:
            a, b = (sl.ReplayOracle(sl.build_replay_table(o, 60))
                    for o in (a, b))
        for count in (7, 1, 0, 20):
            wins = a.pair_win_count(us, 2, count)
            assert wins.tolist() == [b.pair_win_count(int(u), 2, count)
                                     for u in us]
            assert wins.dtype == np.int64
            assert a.pair_win_count(none, 2, count).size == 0
            # a 0-d array is one pair, answered as a one-element array
            assert (a.pair_win_count(np.array(3), 1, count).tolist()
                    == [b.pair_win_count(3, 1, count)])
        assert a.ledger == b.ledger   # a replay's read position too
        if not replay:
            assert stream_states(a) == stream_states(b)
        with pytest.raises(ValueError):   # two arrays are refused
            a.pair_win_count(us, np.array([2, 3, 0, 0]), 1)


def one_shot_stream(model, seed, count):
    """The old stream draw: one random(count) for pair {0, 1}; True = 0 wins."""
    rng = np.random.default_rng(pair_streams_seed(seed, 0, 1))
    return rng.random(count) < sl.pair_probability(model, 0, 1), rng


class TestStreamChunks:
    @pytest.mark.parametrize("count", [STREAM_CHUNK - 1, STREAM_CHUNK,
                                       STREAM_CHUNK + 1, 2 * STREAM_CHUNK + 7])
    @pytest.mark.parametrize("u, v", [(0, 1), (1, 0)])
    def test_chunked_count_equals_one_shot(self, count, u, v):
        model = mnl(1.0, 1.5)
        o = sl.LiveOracle(model, seed=8, pair_mode="stream")
        first, rng = one_shot_stream(model, 8, count)
        wins_0 = int(np.count_nonzero(first))
        assert o.pair_win_count(u, v, count) == (wins_0 if u == 0
                                                 else count - wins_0)
        assert o.ledger.per_pair == {(0, 1): count}
        # the stream resumes where the one-shot draw left off
        p_0 = sl.pair_probability(model, 0, 1)
        assert o.sample_pair(0, 1) == (0 if rng.random() < p_0 else 1)

    def test_blocks_span_chunks(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "STREAM_CHUNK", 7)
        model = mnl(1.0, 2.0)
        o = sl.LiveOracle(model, seed=3, pair_mode="stream")
        winners = o.sample_pair_block(1, 0, 30)
        first, rng = one_shot_stream(model, 3, 30)
        np.testing.assert_array_equal(winners, np.where(first, 0, 1))
        assert winners.dtype == np.int64
        assert stream_states(o) == {(0, 1): rng.bit_generator.state}
        assert o.sample_pair_block(0, 1, 0).size == 0

    @pytest.mark.parametrize("method", ["pair_win_count", "sample_pair_block"])
    def test_demand_above_the_cap_draws_and_charges_nothing(self, method):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=5, pair_mode="stream")
        with pytest.raises(sl.DemandTooLarge) as info:
            getattr(o, method)(1, 0, STREAM_MAX_DRAWS + 1)
        assert info.value.count == STREAM_MAX_DRAWS + 1
        assert info.value.cap == STREAM_MAX_DRAWS
        assert "(0, 1)" in str(info.value)
        assert str(STREAM_MAX_DRAWS + 1) in str(info.value)
        assert o.ledger.total == 0 and o.ledger.per_pair == {}
        fresh = sl.LiveOracle(mnl(1.0, 1.0), seed=5, pair_mode="stream")
        np.testing.assert_array_equal(o.sample_pair_block(0, 1, 50),
                                      fresh.sample_pair_block(0, 1, 50))

    @pytest.mark.parametrize("call", [
        "block binomial", "block stream", "sums binomial", "sums stream"])
    def test_waits_above_the_cap_draw_and_charge_nothing(self, call):
        # p_0 = 1e-7 sends the binomial sums down the per-wait path
        method, mode = call.split()
        o = sl.LiveOracle(sl.LogWeightMnl(np.log([1.0, 1e7 - 1.0])), seed=5,
                          pair_mode=mode)
        states = [rng.bit_generator.state for rng in
                  (o._binomial_rng, o._pair_rng(0, 1))]
        count = 10**11
        with pytest.raises(sl.DemandTooLarge) as info:
            if method == "block":
                o.sample_geometric_block(0, 1, count)
            else:
                o.sample_geometric_sums(0, np.array([1]), [[count]])
        assert info.value.count == count
        assert info.value.cap == STREAM_MAX_DRAWS
        assert o.ledger == sl.QueryLedger()
        assert [rng.bit_generator.state for rng in
                (o._binomial_rng, o._pair_rng(0, 1))] == states

    def test_binomial_mode_has_no_stream_cap(self):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=5)
        assert o.pair_win_count(0, 1, 4 * STREAM_MAX_DRAWS) > 0


def batch(table, key):
    """Pair ``key``'s m answers in the batch of a table built on a fresh
    live oracle, True = lower id won: the first m of its stream."""
    return pair_stream(table.model, table.seed, *key, table.m)


def ledger_states(replay):
    """Where each pair stream of a replay stands by its ledger alone.

    That is the seeded stream of a table built on a fresh live oracle moved
    on by the ledger's count, where the stream stands if the replay drew
    exactly what it charged.
    """
    states = {}
    for key in replay._pair_rngs:
        bits = np.random.PCG64(pair_streams_seed(replay.table.seed, *key))
        bits.advance(replay.ledger.per_pair.get(key, 0))
        states[key] = bits.state
    return states


class TestReplay:
    def test_build_counts(self):
        o = sl.LiveOracle(mnl(1.0, 1.0, 1.0), seed=0)
        sl.build_replay_table(o, 2)
        assert o.ledger.total == 6 and o.ledger.per_size == {2: 6}
        # one batch charge of 2 for each of the 3 pairs, none of its own
        assert (o.ledger.batch, o.ledger.batch_pairs) == (2, 3)
        assert o.ledger.per_pair == {} and o.ledger.max_per_pair == 2

    def test_every_pair_count_is_m(self):
        o = sl.LiveOracle(sl.generate_instance(sl.InstanceSpec("uniform", n=8)),
                          seed=0)
        table = sl.build_replay_table(o, 5)
        assert table.states == {} and o._pair_rngs == {}
        assert (o.ledger.batch, o.ledger.batch_pairs) == (5, 28)
        assert o.ledger.total == 28 * 5 and o.ledger.max_per_pair == 5
        # each pair's batch is its live stream's first 5 answers, and a
        # replay reads them all
        live, replay = sl.LiveOracle(o.model, seed=0), sl.ReplayOracle(table)
        for u, v in itertools.combinations(range(8), 2):
            first = batch(table, (u, v))
            np.testing.assert_array_equal(
                first, live.sample_pair_block(u, v, 5) == u)
            np.testing.assert_array_equal(
                first, replay.sample_pair_block(u, v, 5) == u)
        assert stream_states(replay) == stream_states(live)

    def test_replay_matches_live_answers(self):
        model = mnl(1.0, 2.0, 3.0)
        live = sl.LiveOracle(model, seed=11, pair_mode="stream")
        table = sl.build_replay_table(sl.LiveOracle(model, seed=11,
                                                    pair_mode="stream"), 100)
        replay = sl.ReplayOracle(table)
        for _ in range(50):
            assert live.sample_pair(0, 2) == replay.sample_pair(0, 2)
            assert live.max_sample([2, 0]) == replay.max_sample([2, 0])
        assert replay.ledger == live.ledger
        assert replay.ledger.per_pair == {(0, 2): 100}

    def test_budget_exhaustion(self):
        o = sl.LiveOracle(uniform_pair(), seed=0)
        table = sl.build_replay_table(o, 3)
        replay = sl.ReplayOracle(table)
        replay.sample_pair_block(0, 1, 3)
        with pytest.raises(sl.ReplayBudgetExhausted):
            replay.sample_pair(0, 1)

    def test_replay_sample_cursor(self):
        o = sl.LiveOracle(uniform_pair(), seed=1)
        table = sl.build_replay_table(o, 4)
        replay = sl.ReplayOracle(table)
        expected = np.where(batch(table, (0, 1)), 0, 1).tolist()
        got = [replay.sample_pair(0, 1) for _ in range(4)]
        assert got == expected
        with pytest.raises(sl.ReplayBudgetExhausted) as info:
            replay.sample_pair(1, 0)
        assert info.value.pair == (0, 1)
        assert replay.ledger.per_pair == {(0, 1): 4}

    def test_exhausted_block_moves_nothing(self):
        table = sl.build_replay_table(sl.LiveOracle(uniform_pair(), seed=2), 5)
        replay = sl.ReplayOracle(table)
        replay.sample_pair_block(0, 1, 2)
        with pytest.raises(sl.ReplayBudgetExhausted) as info:
            replay.pair_win_count(1, 0, 4)
        assert (info.value.pair, info.value.m) == ((0, 1), 5)
        assert replay.ledger.per_pair == {(0, 1): 2}
        winners = np.where(batch(table, (0, 1)), 0, 1)
        assert replay.sample_pair(1, 0) == winners[2]
        assert replay.sample_pair(0, 1) == winners[3]
        assert replay.ledger.per_pair == {(0, 1): 4}

    def test_replay_geometric_consumes_like_live(self):
        model = mnl(1.0, 4.0)
        live = sl.LiveOracle(model, seed=13, pair_mode="stream")
        table = sl.build_replay_table(sl.LiveOracle(model, seed=13,
                                                    pair_mode="stream"), 500)
        replay = sl.ReplayOracle(table)
        for _ in range(30):
            assert live.sample_geometric(0, 1) == replay.sample_geometric(0, 1)
        assert live.ledger.per_pair == replay.ledger.per_pair

    def test_batch_of_4950_pairs_x_1e7_answers_is_accepted(self):
        # 4.95e10 declared answers, above the 2^30 a batch once took: the
        # build charges them at once and draws none of them
        model = sl.generate_instance(sl.InstanceSpec("power-law", n=100,
                                                     seed=4))
        o = sl.LiveOracle(model, seed=4, pair_mode="stream")
        table = sl.build_replay_table(o, 10**7)
        assert table.states == {}
        assert o.ledger.total == 4950 * 10**7 and o.ledger.batch_pairs == 4950
        assert o.ledger.max_per_pair == 10**7 and o._pair_rngs == {}
        replay = sl.ReplayOracle(table)
        np.testing.assert_array_equal(
            replay.sample_pair_block(98, 3, 1000) == 3,
            pair_stream(model, 4, 3, 98, 1000))
        # the live stream starts past the batch
        stream = pair_stream(model, 4, 3, 98, 10**7 + 1)
        assert o.sample_pair(3, 98) == (3 if stream[-1] else 98)

    def test_demand_no_table_holds_is_too_large(self):
        # one read above STREAM_MAX_DRAWS: no m serves it, so it is a demand
        # above a cap, refused before the budget is looked at
        for m in (50, 4 * STREAM_MAX_DRAWS):
            table = sl.build_replay_table(sl.LiveOracle(mnl(1.0, 2.0, 3.0),
                                                        seed=2), m)
            replay = sl.ReplayOracle(table)
            with pytest.raises(sl.DemandTooLarge) as info:
                replay.pair_win_count(2, 1, STREAM_MAX_DRAWS + 1)
            assert (info.value.count, info.value.cap) == (
                STREAM_MAX_DRAWS + 1, STREAM_MAX_DRAWS)
            message = str(info.value)
            assert "pair (1, 2)" in message
            assert "use the calibrated budget or a larger eps" in message
            assert "binomial" not in message
            assert replay._pair_rngs == {} and replay.ledger.total == 0
        with pytest.raises(sl.ReplayBudgetExhausted):
            sl.ReplayOracle(sl.build_replay_table(sl.LiveOracle(
                mnl(1.0, 2.0, 3.0), seed=2), 50)).pair_win_count(
                    2, 1, STREAM_MAX_DRAWS)

    def test_replay_rejects_big_slates(self):
        o = sl.LiveOracle(mnl(1.0, 1.0, 1.0), seed=0)
        replay = sl.ReplayOracle(sl.build_replay_table(o, 2))
        with pytest.raises(ValueError):
            replay.max_sample([0, 1, 2])

    @staticmethod
    def power_law_table(m):
        """A seed-10 power-law model of 4 items and a table of m."""
        model = sl.generate_instance(sl.InstanceSpec("power-law", n=4,
                                                     seed=10))
        table = sl.build_replay_table(
            sl.LiveOracle(model, seed=10, pair_mode="stream"), m)
        return model, table

    def test_one_table_replays_as_often_as_asked(self):
        model, table = self.power_law_table(400_000)
        live = sl.LiveOracle(model, seed=10, pair_mode="stream")
        runs = [(o, sl.learn_balanced(o, 4, 0.5, 0.1, seed=10)) for o in
                (live, sl.ReplayOracle(table), sl.ReplayOracle(table))]
        for replay, learned in runs[1:]:
            np.testing.assert_array_equal(learned.log_w, runs[0][1].log_w)
            assert replay.ledger == live.ledger
            assert stream_states(replay) == stream_states(live)
        assert live.ledger.max_per_pair <= table.m

    def test_interleaved_replays_of_one_table_agree(self):
        model, table = self.power_law_table(500)
        live = sl.LiveOracle(model, seed=10, pair_mode="stream")
        oracles = (live, sl.ReplayOracle(table), sl.ReplayOracle(table))
        calls = [lambda o: o.sample_pair_block(1, 0, 5),
                 lambda o: o.pair_win_count(np.array([1, 2, 3]), 0, 7),
                 lambda o: o.sample_geometric(2, 3),
                 lambda o: o.sample_geometric_sums(
                     0, np.array([1, 3]), [[2, 0], [3, 4]]),
                 lambda o: o.max_sample([3, 1]),
                 lambda o: o.pair_win_count(0, 1, 11)]
        for call in calls * 3:   # each oracle in turn answers one call
            first, *rest = (np.asarray(call(o)) for o in oracles)
            for got in rest:
                np.testing.assert_array_equal(got, first)
        assert oracles[1].ledger == oracles[2].ledger == live.ledger
        assert (stream_states(oracles[1]) == stream_states(oracles[2])
                == stream_states(live))

    def test_table_is_frozen(self):
        _, table = self.power_law_table(5)
        with pytest.raises(AttributeError):
            table.m = 6
        assert [f.name for f in dataclasses.fields(table)] == [
            "model", "m", "seed", "skip", "states"]


def pair_stream(model, seed, u, v, count):
    """Reference: the first ``count`` answers of pair {u, v}'s stream, u < v."""
    rng = np.random.default_rng(pair_streams_seed(seed, u, v))
    return rng.random(count) < sl.pair_probability(model, u, v)


class TestLazyTable:
    """A table pays for its batch up front; a replay draws answers as it reads."""

    @pytest.mark.parametrize("before", [0, 7])
    def test_live_stream_stands_m_answers_on(self, before):
        # pair (0, 2) answers `before` queries ahead of the build, (1, 2) none
        model, m = mnl(1.0, 2.0, 3.0), 40
        o = sl.LiveOracle(model, seed=21, pair_mode="stream")
        if before:
            o.sample_pair_block(2, 0, before)
        table = sl.build_replay_table(o, m)
        # only the stream the live oracle held is saved
        assert table.states.keys() == ({(0, 2)} if before else set())
        replay = sl.ReplayOracle(table)
        for u, v, skip in ((0, 2, before), (1, 2, 0)):
            stream = pair_stream(model, 21, u, v, skip + m + 1)
            assert o.sample_pair(v, u) == (u if stream[-1] else v)
            assert o.ledger.batch + o.ledger.per_pair[(u, v)] == skip + m + 1
            np.testing.assert_array_equal(
                replay.sample_pair_block(u, v, m) == u, stream[skip:skip + m])

    def test_a_second_batch_starts_past_the_first(self):
        # pair (0, 1) is read between the batches, (1, 2) only in replays
        model = mnl(1.0, 2.0, 3.0)
        o = sl.LiveOracle(model, seed=5, pair_mode="stream")
        first = sl.build_replay_table(o, 30)
        o.sample_pair_block(0, 1, 4)
        second = sl.build_replay_table(o, 20)
        assert (first.skip, second.skip, o.ledger.batch) == (0, 30, 50)
        assert second.states.keys() == {(0, 1)}
        for table, skips in ((first, (0, 0)), (second, (34, 30))):
            replay = sl.ReplayOracle(table)
            for (u, v), skip in zip(((0, 1), (1, 2)), skips):
                stream = pair_stream(model, 5, u, v, skip + table.m)
                answers = replay.sample_pair_block(v, u, table.m) == u
                np.testing.assert_array_equal(answers, stream[skip:])

    def test_replay_streams_stand_where_its_ledger_says(self):
        model = sl.generate_instance(sl.InstanceSpec("power-law", n=4,
                                                     seed=10))
        table = sl.build_replay_table(
            sl.LiveOracle(model, seed=10, pair_mode="stream"), 400_000)
        replay = sl.ReplayOracle(table)
        sl.learn_balanced(replay, 4, 0.5, 0.1, seed=10)
        # one stream per pair read, standing past exactly the answers the
        # ledger counts: the replay drew what it charged and nothing more
        assert replay.ledger.per_pair.keys() <= replay._pair_rngs.keys()
        assert stream_states(replay) == ledger_states(replay)
        assert replay.ledger.max_per_pair <= table.m

    def test_refused_read_draws_nothing(self):
        model = mnl(1.0, 2.0, 3.0)
        table = sl.build_replay_table(sl.LiveOracle(model, seed=2), 50)
        replay = sl.ReplayOracle(table)
        live = sl.LiveOracle(model, seed=2, pair_mode="stream")
        with pytest.raises(sl.ReplayBudgetExhausted) as info:
            replay.pair_win_count(2, 1, 51)
        assert (info.value.pair, info.value.m, info.value.needed) == (
            (1, 2), 50, 51)
        assert replay._pair_rngs == {} and replay.ledger.total == 0
        for o in (replay, live):
            o.sample_pair_block(0, 1, 3)
            o.sample_geometric(0, 2)
        for refused, needed in (
                (lambda: replay.pair_win_count(1, 0, 48), 51),
                (lambda: replay.sample_geometric_block(1, 2, 51), 51),
                (lambda: replay.sample_geometric_sums(
                    2, np.array([0, 1]), [[0, 30], [0, 30]]), 60)):
            with pytest.raises(sl.ReplayBudgetExhausted) as info:
                refused()
            assert info.value.needed == needed
            assert "at least {} ".format(needed) in str(info.value)
            assert "m = 50" in str(info.value)
            assert replay.ledger == live.ledger
            assert stream_states(replay) == ledger_states(replay)
        # the next reads go on from the ledger, as the live stream does
        for call in (lambda o: o.pair_win_count(1, 0, 40),
                     lambda o: o.sample_geometric_block(1, 2, 5),
                     lambda o: o.sample_pair_block(2, 0, 5)):
            np.testing.assert_array_equal(call(replay), call(live))
        assert replay.ledger == live.ledger
        assert stream_states(replay) == stream_states(live)


class TestGeometric:
    def test_impossible_win_raises(self):
        model = sl.MatchingPseudoMnl(np.array([1.0]), np.arange(2))
        o = sl.LiveOracle(model, seed=0)
        with pytest.raises(sl.GeometricCapExceeded):
            o.sample_geometric(0, 1)

    @pytest.mark.parametrize("mode, w1, losses", [("binomial", 999.0, 261),
                                                  ("stream", 4.0, 3)])
    def test_scalar_draw_is_pinned(self, mode, w1, losses):
        # seeded ledgers stay bit-identical now that the scalar wait is one
        # draw of the block path: in binomial mode, one Geometric(p) draw of
        # the binomial stream
        model = sl.LogWeightMnl(np.log([1.0, w1]))
        o = sl.LiveOracle(model, seed=7, pair_mode=mode)
        assert o.sample_geometric(0, 1) == losses
        assert o.ledger.per_pair == {(0, 1): losses + 1}
        if mode == "binomial":
            assert losses == binomial_stream(7).geometric(
                sl.pair_probability(model, 0, 1)) - 1

    def test_block_matches_distribution(self):
        o = sl.LiveOracle(mnl(1.0, 2.0), seed=21)
        losses = o.sample_geometric_block(0, 1, 50_000)
        assert abs(losses.mean() - 2.0) < 0.1


def segment_sums(losses, counts):
    """Reference: the loss total of each consecutive run of counts[k] waits."""
    out, at = [], 0
    for c in counts:
        out.append(int(losses[at:at + c].sum()))
        at += c
    return out


def per_query_waits(o, u, v, count):
    """Reference: geometric waits from one sample_pair call per query."""
    losses = []
    for _ in range(count):
        k = 0
        while o.sample_pair(u, v) != u:
            k += 1
            if k >= oracle_mod.GEOMETRIC_CAP:
                raise sl.GeometricCapExceeded("cap")
        losses.append(k)
    return np.array(losses, dtype=np.int64)


# (w_u, w_v) with p_u about 0.5, 0.1, 0.01 and 0.91
ODDS = [(1.0, 1.0), (1.0, 9.0), (1.0, 99.0), (10.0, 1.0)]
COUNTS = [3, 0, 5, 1, 0, 12, 2]


class TestGeometricSums:
    @pytest.mark.parametrize("w_u, w_v", ODDS)
    def test_binomial_sums_have_nb_moments(self, w_u, w_v):
        o = sl.LiveOracle(mnl(w_u, w_v), seed=31)
        p = sl.pair_probability(o.model, 0, 1)
        count, k = 7, 40_000
        sums = one_column(o, 0, 1, np.full(k, count))
        mean, var = count * (1 - p) / p, count * (1 - p) / p ** 2
        assert abs(sums.mean() - mean) < 5 * np.sqrt(var / k)
        assert abs(sums.var() / var - 1) < 0.06
        assert o.ledger.per_pair == {(0, 1): int(sums.sum()) + count * k}

    def test_binomial_draw_is_one_nb_per_nonzero_count(self):
        model = mnl(1.0, 3.0)
        o = sl.LiveOracle(model, seed=8)
        p = sl.pair_probability(model, 0, 1)
        rng = binomial_stream(8)
        sums = one_column(o, 0, 1, COUNTS)
        expected = np.zeros(len(COUNTS), dtype=np.int64)
        nonzero = np.flatnonzero(COUNTS)
        expected[nonzero] = rng.negative_binomial(np.array(COUNTS)[nonzero], p)
        np.testing.assert_array_equal(sums, expected)
        assert sums.dtype == np.int64
        assert o.ledger.total == int(sums.sum()) + sum(COUNTS)

    def test_zero_counts_draw_and_charge_nothing(self):
        o = sl.LiveOracle(mnl(1.0, 3.0), seed=8)
        np.testing.assert_array_equal(one_column(o, 0, 1, [0, 0]),
                                      [0, 0])
        assert o.ledger.total == 0 and o.ledger.per_pair == {}
        twin = sl.LiveOracle(mnl(1.0, 3.0), seed=8)
        assert (one_column(o, 0, 1, [0, 4, 0])[1]
                == one_column(twin, 0, 1, [4])[0])

    def test_chunked_count_is_the_exact_sum_of_its_pieces(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "NB_CHUNK", 4)
        model = mnl(1.0, 3.0)
        o = sl.LiveOracle(model, seed=5)
        p = sl.pair_probability(model, 0, 1)
        rng = binomial_stream(5)
        # 10 = 4 + 4 + 2, 3 = 3, 8 = 4 + 4: remainders first, then pieces
        rest = rng.negative_binomial([2, 3], p)
        pieces = rng.negative_binomial(4, p, 4)
        sums = one_column(o, 0, 1, [10, 3, 0, 8])
        np.testing.assert_array_equal(
            sums, [rest[0] + pieces[0] + pieces[1], rest[1], 0,
                   pieces[2] + pieces[3]])
        assert o.ledger.total == int(sums.sum()) + 21

    def test_counts_beyond_one_draw(self):
        o = sl.LiveOracle(mnl(3.0, 1.0), seed=9)
        sums = one_column(o, 1, 0, [2**60, 1])
        # 128 pieces of 2^53 waits at p = 1/4: the sd of sums[0] / 2^60 is
        # about 2e-9
        assert abs(sums[0] / 2**60 - 3.0) < 1e-6
        assert o.ledger.total == int(sums.sum()) + 2**60 + 1

    def test_loss_total_beyond_int64_raises(self):
        o = sl.LiveOracle(mnl(3.0, 1.0), seed=9)
        with pytest.raises(sl.DemandTooLarge) as info:
            one_column(o, 1, 0, [2**62])
        assert info.value.cap == INT64_MAX and info.value.count > INT64_MAX
        # the draws were made, so they are charged
        assert o.ledger.total == info.value.count + 2**62

    def test_tiny_p_keeps_the_per_wait_path(self):
        p = -np.expm1(-744.0 / GEOMETRIC_CAP)
        model = sl.LogWeightMnl(np.array([0.0, np.log((1 - p) / p)]))
        p_u = sl.pair_probability(model, 0, 1)
        assert GEOMETRIC_CAP * -np.log1p(-p_u) <= NEGLIGIBLE_LOG
        o, twin = (sl.LiveOracle(model, seed=3) for _ in range(2))
        sums = one_column(o, 0, 1, [2, 0, 3])
        block = twin.sample_geometric_block(0, 1, 5)
        assert sums.tolist() == segment_sums(block, [2, 0, 3])
        assert o.ledger.per_pair == twin.ledger.per_pair

    def test_per_wait_path_keeps_its_cap(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "GEOMETRIC_CAP", 1000)
        o = sl.LiveOracle(mnl(1.0, 99.0), seed=3)
        # P(one wait > 1000) = 0.99^1000, about 4e-5 per wait
        with pytest.raises(sl.GeometricCapExceeded):
            one_column(o, 0, 1, [100_000, 100_000])
        assert o.ledger.total == 1000

    @pytest.mark.parametrize("pair_mode", ["binomial", "stream"])
    def test_certain_win_loses_nothing(self, pair_mode):
        # a log-weight gap of 40 rounds p_u to exactly 1.0
        model = sl.LogWeightMnl(np.array([40.0, 0.0]))
        assert sl.pair_probability(model, 0, 1) == 1.0
        o = sl.LiveOracle(model, seed=1, pair_mode=pair_mode)
        counts = np.array([3, 0, 5])
        assert one_column(o, 0, 1, counts).tolist() == [0, 0, 0]
        assert o.ledger.total == counts.sum()

    def test_impossible_win_raises(self):
        model = sl.MatchingPseudoMnl(np.array([1.0]), np.arange(2))
        o = sl.LiveOracle(model, seed=0)
        with pytest.raises(sl.GeometricCapExceeded):
            one_column(o, 0, 1, [0, 3])
        assert o.ledger.total == GEOMETRIC_CAP

    @pytest.mark.parametrize("w_u, w_v", ODDS)
    def test_stream_sums_are_segment_sums_of_the_block(self, w_u, w_v):
        a, b = (sl.LiveOracle(mnl(w_u, w_v), seed=4, pair_mode="stream")
                for _ in range(2))
        sums = one_column(a, 1, 0, COUNTS)
        assert sums.tolist() == segment_sums(
            b.sample_geometric_block(1, 0, sum(COUNTS)), COUNTS)
        assert a.ledger.per_pair == b.ledger.per_pair
        assert stream_states(a) == stream_states(b)
        assert a.sample_pair(0, 1) == b.sample_pair(0, 1)

    def test_replay_sums_are_segment_sums_of_the_block(self):
        model = mnl(1.0, 4.0)
        replays = [sl.ReplayOracle(sl.build_replay_table(
            sl.LiveOracle(model, seed=13, pair_mode="stream"), 500))
            for _ in range(2)]
        for _ in range(3):
            sums = one_column(replays[0], 0, 1, COUNTS)
            block = replays[1].sample_geometric_block(0, 1, sum(COUNTS))
            assert sums.tolist() == segment_sums(block, COUNTS)
            assert replays[0].ledger.per_pair == replays[1].ledger.per_pair

    def test_exhausted_replay_sums_move_nothing(self):
        table = sl.build_replay_table(sl.LiveOracle(uniform_pair(), seed=2), 50)
        replay = sl.ReplayOracle(table)
        one_column(replay, 0, 1, [2, 3])
        ledger = dict(replay.ledger.per_pair)
        with pytest.raises(sl.ReplayBudgetExhausted):
            one_column(replay, 1, 0, [10, 0, 40])
        assert replay.ledger.per_pair == ledger
        assert one_column(replay, 0, 1, [0]).tolist() == [0]
        assert replay.ledger.per_pair == ledger
        # past u's last win the table holds only losses of u: a wait reads
        # some of them, runs out, and charges, so moves, nothing
        answers = np.where(batch(table, (0, 1)), 0, 1)
        u = 1 - int(answers[-1])
        last_win = int(np.flatnonzero(answers == u)[-1])
        assert ledger[(0, 1)] <= last_win < table.m - 1
        replay.sample_pair_block(0, 1, last_win + 1 - ledger[(0, 1)])
        ledger = dict(replay.ledger.per_pair)
        for wait in (lambda: replay.sample_geometric(u, 1 - u),
                     lambda: replay.sample_geometric_block(u, 1 - u, 2)):
            with pytest.raises(sl.ReplayBudgetExhausted):
                wait()
            assert replay.ledger.per_pair == ledger
        # the next read starts where the ledger stands, not past the losses
        # the refused waits read
        at = ledger[(0, 1)]
        np.testing.assert_array_equal(
            replay.sample_pair_block(0, 1, table.m - at), answers[at:])


def member_loop(o, u, vs, counts):
    """Reference: one one-member sample_geometric_sums call per member, in
    order."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.column_stack([one_column(o, u, int(v), counts[:, k])
                            for k, v in enumerate(vs)])


def assert_same_oracle(a, b):
    """Two oracles that answered the same calls: ledgers and what comes next."""
    assert a.ledger == b.ledger
    assert list(a.ledger.per_pair) == list(b.ledger.per_pair)
    if isinstance(a, sl.ReplayOracle):   # its ledger is its read position
        return
    if a.pair_mode == "binomial":
        assert a._binomial_rng.random() == b._binomial_rng.random()
        return
    assert stream_states(a) == stream_states(b)
    assert all(a.sample_pair(0, v) == b.sample_pair(0, v)
               for v in range(1, a.n))


# Against item 0 at log weight 0, members 1-7 win with p_0 about 0.27
# (1), 0.62 (2), 0.5 (3), exactly 1 (4), 7.4e-7 (5: the per-wait block),
# 0.12 (6) and 0.38 (7). The tiny-p column sits between two plain ones,
# member 3's column is all zeros, and member 6's counts of 64 and more take
# NB_CHUNK pieces when NB_CHUNK is 64.
TINY_P = -np.expm1(-744.0 / GEOMETRIC_CAP)
COLUMN_LOG_W = [0.0, 1.0, -0.5, 0.0, -40.0, np.log((1 - TINY_P) / TINY_P),
                2.0, 0.5]
MEMBERS = [1, 5, 2, 3, 4, 6, 7]
COLUMN_COUNTS = np.array([[3, 2, 0, 0, 4, 130, 1],
                          [0, 0, 12, 0, 1, 5, 1],
                          [5, 1, 2, 0, 0, 64, 0],
                          [1, 0, 7, 0, 9, 0, 2]])


class TestGeometricColumns:
    """The column form is the per-member loop of scalar calls, bit for bit."""

    @pytest.mark.parametrize("chunk", [oracle_mod.NB_CHUNK, 64])
    @pytest.mark.parametrize("width", [oracle_mod.NB_SLICE, 5])
    def test_binomial_columns_are_the_member_loop(self, monkeypatch, chunk,
                                                  width):
        monkeypatch.setattr(oracle_mod, "NB_CHUNK", chunk)
        monkeypatch.setattr(oracle_mod, "NB_SLICE", width)
        model = sl.LogWeightMnl(np.array(COLUMN_LOG_W))
        assert sl.pair_probability(model, 0, 4) == 1.0
        p_tiny = sl.pair_probability(model, 0, 5)
        assert 0 < GEOMETRIC_CAP * -np.log1p(-p_tiny) <= NEGLIGIBLE_LOG
        a, b = (sl.LiveOracle(model, seed=21) for _ in range(2))
        sums = a.sample_geometric_sums(0, np.array(MEMBERS), COLUMN_COUNTS)
        assert sums.dtype == np.int64 and sums.shape == COLUMN_COUNTS.shape
        np.testing.assert_array_equal(
            sums, member_loop(b, 0, MEMBERS, COLUMN_COUNTS))
        assert sums[:, 3].tolist() == [0] * 4 and (0, 3) not in a.ledger.per_pair
        assert sums[:, 4].tolist() == [0] * 4
        assert a.ledger.per_pair[(0, 4)] == COLUMN_COUNTS[:, 4].sum()
        # the tiny-p column's totals are of waits about 1.3e6 long
        assert ((sums[:, 1] > 1000) == (COLUMN_COUNTS[:, 1] > 0)).all()
        assert_same_oracle(a, b)

    @pytest.mark.parametrize("mode", ["stream", "replay"])
    def test_stream_columns_are_the_member_loop(self, mode):
        log_w = np.array(COLUMN_LOG_W[:4] + [-3.0, 0.3, 2.0, 0.5])
        counts = np.where(COLUMN_COUNTS > 20, 20, COLUMN_COUNTS)

        def oracle():
            live = sl.LiveOracle(sl.LogWeightMnl(log_w), seed=22,
                                 pair_mode="stream")
            if mode == "stream":
                return live
            return sl.ReplayOracle(sl.build_replay_table(live, 3000))

        a, b = oracle(), oracle()
        for _ in range(2):
            sums = a.sample_geometric_sums(0, np.array(MEMBERS), counts)
            assert sums.dtype == np.int64
            np.testing.assert_array_equal(sums, member_loop(b, 0, MEMBERS,
                                                            counts))
        assert (0, 3) not in a.ledger.per_pair
        assert_same_oracle(a, b)

    def test_binomial_cap_partway_charges_as_the_loop(self, monkeypatch):
        # at GEOMETRIC_CAP 1000 member 2's p_0 of 0.01 takes the per-wait
        # block, and one of its 2e5 waits passes the cap (4e-5 per wait)
        monkeypatch.setattr(oracle_mod, "GEOMETRIC_CAP", 1000)
        model = sl.LogWeightMnl(np.log([1.0, 0.1, 99.0, 0.5]))
        counts = np.array([[3, 100_000, 2], [4, 100_000, 1]])
        a, b = (sl.LiveOracle(model, seed=23) for _ in range(2))
        with pytest.raises(sl.GeometricCapExceeded):
            a.sample_geometric_sums(0, np.array([1, 2, 3]), counts)
        with pytest.raises(sl.GeometricCapExceeded):
            member_loop(b, 0, [1, 2, 3], counts)
        assert a.ledger.per_pair[(0, 2)] == 1000
        assert (0, 1) in a.ledger.per_pair and (0, 3) not in a.ledger.per_pair
        assert_same_oracle(a, b)

    @pytest.mark.parametrize("mode", ["stream", "replay"])
    def test_stream_cap_partway_charges_as_the_loop(self, monkeypatch, mode):
        # member 2 wins with p_0 of 0.1: a wait passes 30 with 4 % each
        monkeypatch.setattr(oracle_mod, "GEOMETRIC_CAP", 30)
        model = sl.LogWeightMnl(np.log([1.0, 0.5, 9.0, 1.0]))
        counts = np.array([[3, 1000, 2], [4, 1000, 1]])

        def oracle():
            live = sl.LiveOracle(model, seed=24, pair_mode="stream")
            if mode == "stream":
                return live
            return sl.ReplayOracle(sl.build_replay_table(live, 50_000))

        a, b = oracle(), oracle()
        with pytest.raises(sl.GeometricCapExceeded):
            a.sample_geometric_sums(0, np.array([1, 2, 3]), counts)
        with pytest.raises(sl.GeometricCapExceeded):
            member_loop(b, 0, [1, 2, 3], counts)
        assert (0, 1) in a.ledger.per_pair and (0, 3) not in a.ledger.per_pair
        assert_same_oracle(a, b)

    def test_replay_running_out_partway_stops_as_the_loop(self):
        model = mnl(1.0, 1.0, 1.0, 1.0)
        counts = np.array([[3, 40, 2], [4, 40, 1]])
        a, b = (sl.ReplayOracle(sl.build_replay_table(
            sl.LiveOracle(model, seed=25, pair_mode="stream"), 60))
            for _ in range(2))
        with pytest.raises(sl.ReplayBudgetExhausted):
            a.sample_geometric_sums(0, np.array([1, 2, 3]), counts)
        with pytest.raises(sl.ReplayBudgetExhausted):
            member_loop(b, 0, [1, 2, 3], counts)
        assert (0, 2) not in a.ledger.per_pair and (0, 1) in a.ledger.per_pair
        assert_same_oracle(a, b)

    def test_charges_stay_exact_beyond_int64(self):
        # 1100 counts just under NB_CHUNK at p = 1/2: a member's waits and
        # its losses each add up to about 9.9e18, past int64
        counts = np.full((1100, 2), oracle_mod.NB_CHUNK - 1)
        counts[:, 1] = 3
        a, b = (sl.LiveOracle(uniform_pair(), seed=27) for _ in range(2))
        sums = a.sample_geometric_sums(0, np.array([1, 1]), counts)
        waits = 1100 * (oracle_mod.NB_CHUNK - 1)
        assert waits > INT64_MAX
        assert a.ledger.total == sum(sums.ravel().tolist()) + waits + 3300
        np.testing.assert_array_equal(sums, member_loop(b, 0, [1, 1], counts))
        assert_same_oracle(a, b)

    @pytest.mark.parametrize("mode", ["binomial", "stream"])
    def test_empty_and_all_zero_matrices_draw_nothing(self, mode):
        model = mnl(1.0, 2.0, 3.0)
        a, fresh = (sl.LiveOracle(model, seed=26, pair_mode=mode)
                    for _ in range(2))
        for vs, shape in (([1, 2], (3, 2)), ([], (3, 0)), ([1, 2], (0, 2))):
            counts = np.zeros(shape, dtype=np.int64)
            sums = a.sample_geometric_sums(0, np.array(vs, dtype=np.int64),
                                           counts)
            assert sums.shape == counts.shape and not sums.any()
        assert a.ledger == sl.QueryLedger()
        assert_same_oracle(a, fresh)


class TestStreamWaits:
    @pytest.mark.parametrize("w_u, w_v", ODDS)
    @pytest.mark.parametrize("count", [1, 2, 37, 400])
    @pytest.mark.parametrize("chunk", [STREAM_CHUNK, 8])
    def test_equal_to_the_per_query_loop(self, monkeypatch, w_u, w_v, count,
                                         chunk):
        monkeypatch.setattr(oracle_mod, "STREAM_CHUNK", chunk)
        a, b = (sl.LiveOracle(mnl(w_u, w_v), seed=count, pair_mode="stream")
                for _ in range(2))
        np.testing.assert_array_equal(a.sample_geometric_block(0, 1, count),
                                      per_query_waits(b, 0, 1, count))
        assert a.ledger.per_pair == b.ledger.per_pair
        assert stream_states(a) == stream_states(b)
        assert a.sample_pair(0, 1) == b.sample_pair(0, 1)

    @pytest.mark.parametrize("chunk", [STREAM_CHUNK, 8])
    def test_cap_fires_at_the_same_query(self, monkeypatch, chunk):
        monkeypatch.setattr(oracle_mod, "STREAM_CHUNK", chunk)
        monkeypatch.setattr(oracle_mod, "GEOMETRIC_CAP", 30)
        a, b = (sl.LiveOracle(mnl(1.0, 9.0), seed=6, pair_mode="stream")
                for _ in range(2))
        replay = sl.ReplayOracle(sl.build_replay_table(
            sl.LiveOracle(mnl(1.0, 9.0), seed=6, pair_mode="stream"), 20_000))
        # P(one wait > 30) = 0.9^30, about 4 %
        with pytest.raises(sl.GeometricCapExceeded):
            a.sample_geometric_block(0, 1, 2000)
        with pytest.raises(sl.GeometricCapExceeded):
            per_query_waits(b, 0, 1, 2000)
        # a replay reads the same answers, so its cap fires at the same query
        with pytest.raises(sl.GeometricCapExceeded):
            replay.sample_geometric_block(0, 1, 2000)
        assert a.ledger.per_pair == b.ledger.per_pair == replay.ledger.per_pair
        assert stream_states(a) == stream_states(b)
        assert (a.sample_pair(0, 1) == b.sample_pair(0, 1)
                == replay.sample_pair(0, 1))
