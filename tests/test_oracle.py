import numpy as np
import pytest

import slatelearn as sl
from conftest import mnl
from slatelearn import oracle as oracle_mod
from slatelearn.oracle import (BINOMIAL_CHUNK, BINOMIAL_TAG, GEOMETRIC_CAP,
                               INT64_MAX, NEGLIGIBLE_LOG, REPLAY_MAX_ANSWERS,
                               STREAM_CHUNK, STREAM_MAX_DRAWS,
                               pair_streams_seed)


def uniform_pair():
    return mnl(1.0, 1.0)


def binomial_stream(seed):
    """The one stream every binomial-mode draw of a seeded oracle reads."""
    return np.random.default_rng(np.random.SeedSequence((seed, BINOMIAL_TAG)))


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

    def test_record_pairs_is_repeated_record_pair(self):
        us, vs = [3, 0, 1, 2, 3], [1, 2, 0, 0, 1]
        for count in (0, 1, 7, 2**64):
            batched, looped = sl.QueryLedger(), sl.QueryLedger()
            batched.record_pair(2, 3)
            looped.record_pair(2, 3)
            batched.record_pairs(np.array(us), np.array(vs), count)
            for u, v in zip(us, vs):
                looped.record_pair(u, v, count)
            assert batched == looped
            assert list(batched.per_pair) == list(looped.per_pair)
            assert all(type(k) is int for key in batched.per_pair for k in key)
        empty = sl.QueryLedger()
        empty.record_pairs(np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64), 5)
        assert empty == sl.QueryLedger()
        for u, v in ((3, 1), (0, 1), (np.int64(2), np.array(0))):
            batched, looped = sl.QueryLedger(), sl.QueryLedger()
            batched.record_pairs(u, v, 4)
            looped.record_pair(int(u), int(v), 4)
            assert batched == looped


class TestBinomialChunks:
    def test_count_up_to_chunk_is_one_draw(self):
        # a count up to the chunk is one Binomial(count, p) draw from the
        # oracle's binomial stream, and one vector draw for many pairs
        model = mnl(1.0, 3.0, 2.0)
        p = sl.pair_probability(model, 0, 1)
        us, vs = [0, 2, 1, 0], [1, 1, 2, 2]
        ps = [sl.pair_probability(model, u, v) for u, v in zip(us, vs)]
        for count in (0, 1, 1000, 2**40, BINOMIAL_CHUNK):
            o = sl.LiveOracle(model, seed=8)
            rng = binomial_stream(8)
            assert o.pair_win_count(0, 1, count) == rng.binomial(count, p)
            wins = o.pair_win_count(np.array(us), np.array(vs), count)
            np.testing.assert_array_equal(wins, rng.binomial(count, ps))
            assert wins.dtype == np.int64
            # a 0-d array is one pair, drawn and charged like the rest
            assert (o.pair_win_count(np.array(0), 1, count).tolist()
                    == [rng.binomial(count, p)])
            assert o.ledger.total == count * (len(us) + 2)
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
        a, b = (sl.LiveOracle(model, seed=6, pair_mode="stream",
                              transcript=True) for _ in range(2))
        if replay:
            a, b = (sl.ReplayOracle(sl.build_replay_table(o, 60), 4)
                    for o in (a, b))
        for count in (7, 1, 0, 20):
            wins = a.pair_win_count(us, 2, count)
            assert wins.tolist() == [b.pair_win_count(int(u), 2, count)
                                     for u in us]
            assert wins.dtype == np.int64
            assert a.pair_win_count(none, none, count).size == 0
            # a 0-d array is one pair, answered as a one-element array
            assert (a.pair_win_count(np.array(3), 1, count).tolist()
                    == [b.pair_win_count(3, 1, count)])
        assert a.ledger == b.ledger
        if replay:
            assert a.table.cursors == b.table.cursors
        else:
            assert a.transcript == b.transcript
        with pytest.raises(ValueError):   # us and vs do not broadcast
            a.pair_win_count(us, np.array([2, 3, 0]), 1)


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

    def test_blocks_and_transcript_span_chunks(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "STREAM_CHUNK", 7)
        model = mnl(1.0, 2.0)
        o = sl.LiveOracle(model, seed=3, pair_mode="stream", transcript=True)
        winners = o.sample_pair_block(1, 0, 30)
        first, _ = one_shot_stream(model, 3, 30)
        np.testing.assert_array_equal(winners, np.where(first, 0, 1))
        assert winners.dtype == np.int64
        assert o.transcript == [(0, 1, int(w)) for w in winners]
        assert o.sample_pair_block(0, 1, 0).size == 0

    @pytest.mark.parametrize("method", ["pair_win_count", "sample_pair_block"])
    def test_demand_above_the_cap_draws_and_charges_nothing(self, method):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=5, pair_mode="stream")
        with pytest.raises(sl.StreamDemandTooLarge) as info:
            getattr(o, method)(1, 0, STREAM_MAX_DRAWS + 1)
        assert info.value.pair == (0, 1)
        assert info.value.count == STREAM_MAX_DRAWS + 1
        assert "(0, 1)" in str(info.value)
        assert str(STREAM_MAX_DRAWS + 1) in str(info.value)
        assert o.ledger.total == 0 and o.ledger.per_pair == {}
        fresh = sl.LiveOracle(mnl(1.0, 1.0), seed=5, pair_mode="stream")
        np.testing.assert_array_equal(o.sample_pair_block(0, 1, 50),
                                      fresh.sample_pair_block(0, 1, 50))

    def test_binomial_mode_has_no_stream_cap(self):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=5)
        assert o.pair_win_count(0, 1, 4 * STREAM_MAX_DRAWS) > 0


class TestReplay:
    def test_build_counts(self):
        o = sl.LiveOracle(mnl(1.0, 1.0, 1.0), seed=0)
        sl.build_replay_table(o, 2)
        assert o.ledger.total == 6
        assert all(v == 2 for v in o.ledger.per_pair.values())

    def test_every_pair_count_is_m(self):
        o = sl.LiveOracle(sl.generate_instance(sl.InstanceSpec("uniform", n=8)),
                          seed=0)
        table = sl.build_replay_table(o, 5)
        assert all(len(a) == 5 for a in table.answers.values())
        assert len(table.answers) == 28

    def test_replay_matches_live_answers(self):
        model = mnl(1.0, 2.0, 3.0)
        live = sl.LiveOracle(model, seed=11, pair_mode="stream")
        table = sl.build_replay_table(sl.LiveOracle(model, seed=11,
                                                    pair_mode="stream"), 100)
        replay = sl.ReplayOracle(table, 3)
        for _ in range(50):
            assert live.sample_pair(0, 2) == replay.sample_pair(0, 2)
            assert live.max_sample([2, 0]) == replay.max_sample([2, 0])
        assert replay.ledger == live.ledger
        assert table.cursors[(0, 2)] == 100

    def test_budget_exhaustion(self):
        o = sl.LiveOracle(uniform_pair(), seed=0)
        table = sl.build_replay_table(o, 3)
        replay = sl.ReplayOracle(table, 2)
        replay.sample_pair_block(0, 1, 3)
        with pytest.raises(sl.ReplayBudgetExhausted):
            replay.sample_pair(0, 1)

    def test_replay_sample_cursor(self):
        o = sl.LiveOracle(uniform_pair(), seed=1)
        table = sl.build_replay_table(o, 4)
        replay = sl.ReplayOracle(table, 2)
        expected = list(table.answers[(0, 1)])
        got = [replay.sample_pair(0, 1) for _ in range(4)]
        assert got == expected
        with pytest.raises(sl.ReplayBudgetExhausted) as info:
            replay.sample_pair(1, 0)
        assert info.value.pair == (0, 1)
        assert table.cursors[(0, 1)] == 4
        assert replay.ledger.per_pair == {(0, 1): 4}

    def test_exhausted_block_moves_nothing(self):
        table = sl.build_replay_table(sl.LiveOracle(uniform_pair(), seed=2), 5)
        replay = sl.ReplayOracle(table, 2)
        replay.sample_pair_block(0, 1, 2)
        with pytest.raises(sl.ReplayBudgetExhausted) as info:
            replay.pair_win_count(1, 0, 4)
        assert (info.value.pair, info.value.m) == ((0, 1), 5)
        assert table.cursors[(0, 1)] == 2
        assert replay.ledger.per_pair == {(0, 1): 2}
        assert replay.sample_pair(1, 0) == table.answers[(0, 1)][2]
        assert replay.sample_pair(0, 1) == table.answers[(0, 1)][3]
        assert replay.ledger.per_pair == {(0, 1): 4}

    def test_replay_geometric_consumes_like_live(self):
        model = mnl(1.0, 4.0)
        live = sl.LiveOracle(model, seed=13, pair_mode="stream")
        table = sl.build_replay_table(sl.LiveOracle(model, seed=13,
                                                    pair_mode="stream"), 500)
        replay = sl.ReplayOracle(table, 2)
        for _ in range(30):
            assert live.sample_geometric(0, 1) == replay.sample_geometric(0, 1)
        assert live.ledger.per_pair == replay.ledger.per_pair

    def test_table_above_the_cap_draws_and_charges_nothing(self):
        o = sl.LiveOracle(sl.generate_instance(sl.InstanceSpec("uniform", n=30)),
                          seed=0)
        m = REPLAY_MAX_ANSWERS // 435 + 1
        with pytest.raises(sl.ReplayTableTooLarge) as info:
            sl.build_replay_table(o, m)
        assert (info.value.pairs, info.value.m) == (435, m)
        assert info.value.cap == REPLAY_MAX_ANSWERS
        assert "435 pairs" in str(info.value)
        assert str(REPLAY_MAX_ANSWERS) in str(info.value)
        assert o.ledger.total == 0 and o._pair_rngs == {}

    def test_replay_rejects_big_slates(self):
        o = sl.LiveOracle(mnl(1.0, 1.0, 1.0), seed=0)
        replay = sl.ReplayOracle(sl.build_replay_table(o, 2), 3)
        with pytest.raises(ValueError):
            replay.max_sample([0, 1, 2])


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


class TestTranscript:
    def test_round_trip(self, tmp_path):
        o = sl.LiveOracle(mnl(1.0, 2.0, 3.0), seed=3, pair_mode="stream",
                          transcript=True)
        o.sample_pair(0, 1)
        o.sample_pair_block(1, 2, 5)
        path = tmp_path / "t.bin"
        sl.write_transcript(path, o.transcript)
        assert sl.read_transcript(path) == [tuple(r) for r in o.transcript]

    def test_requires_stream_mode(self):
        with pytest.raises(ValueError):
            sl.LiveOracle(mnl(1.0, 1.0), seed=0, transcript=True)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a transcript")
        with pytest.raises(ValueError):
            sl.read_transcript(path)


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
        sums = o.sample_geometric_sums(0, 1, np.full(k, count))
        mean, var = count * (1 - p) / p, count * (1 - p) / p ** 2
        assert abs(sums.mean() - mean) < 5 * np.sqrt(var / k)
        assert abs(sums.var() / var - 1) < 0.06
        assert o.ledger.per_pair == {(0, 1): int(sums.sum()) + count * k}

    def test_binomial_draw_is_one_nb_per_nonzero_count(self):
        model = mnl(1.0, 3.0)
        o = sl.LiveOracle(model, seed=8)
        p = sl.pair_probability(model, 0, 1)
        rng = binomial_stream(8)
        sums = o.sample_geometric_sums(0, 1, COUNTS)
        expected = np.zeros(len(COUNTS), dtype=np.int64)
        nonzero = np.flatnonzero(COUNTS)
        expected[nonzero] = rng.negative_binomial(np.array(COUNTS)[nonzero], p)
        np.testing.assert_array_equal(sums, expected)
        assert sums.dtype == np.int64
        assert o.ledger.total == int(sums.sum()) + sum(COUNTS)

    def test_zero_counts_draw_and_charge_nothing(self):
        o = sl.LiveOracle(mnl(1.0, 3.0), seed=8)
        np.testing.assert_array_equal(o.sample_geometric_sums(0, 1, [0, 0]),
                                      [0, 0])
        assert o.ledger.total == 0 and o.ledger.per_pair == {}
        twin = sl.LiveOracle(mnl(1.0, 3.0), seed=8)
        assert (o.sample_geometric_sums(0, 1, [0, 4, 0])[1]
                == twin.sample_geometric_sums(0, 1, [4])[0])

    def test_chunked_count_is_the_exact_sum_of_its_pieces(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "NB_CHUNK", 4)
        model = mnl(1.0, 3.0)
        o = sl.LiveOracle(model, seed=5)
        p = sl.pair_probability(model, 0, 1)
        rng = binomial_stream(5)
        # 10 = 4 + 4 + 2, 3 = 3, 8 = 4 + 4: remainders first, then pieces
        rest = rng.negative_binomial([2, 3], p)
        pieces = rng.negative_binomial(4, p, 4)
        sums = o.sample_geometric_sums(0, 1, [10, 3, 0, 8])
        np.testing.assert_array_equal(
            sums, [rest[0] + pieces[0] + pieces[1], rest[1], 0,
                   pieces[2] + pieces[3]])
        assert o.ledger.total == int(sums.sum()) + 21

    def test_counts_beyond_one_draw(self):
        o = sl.LiveOracle(mnl(3.0, 1.0), seed=9)
        sums = o.sample_geometric_sums(1, 0, [2**60, 1])
        # 128 pieces of 2^53 waits at p = 1/4: the sd of sums[0] / 2^60 is
        # about 2e-9
        assert abs(sums[0] / 2**60 - 3.0) < 1e-6
        assert o.ledger.total == int(sums.sum()) + 2**60 + 1

    def test_loss_total_beyond_int64_raises(self):
        o = sl.LiveOracle(mnl(3.0, 1.0), seed=9)
        with pytest.raises(sl.SampleDemandTooLarge) as info:
            o.sample_geometric_sums(1, 0, [2**62])
        assert info.value.cap == INT64_MAX and info.value.count > INT64_MAX
        # the draws were made, so they are charged
        assert o.ledger.total == info.value.count + 2**62

    def test_tiny_p_keeps_the_per_wait_path(self):
        p = -np.expm1(-744.0 / GEOMETRIC_CAP)
        model = sl.LogWeightMnl(np.array([0.0, np.log((1 - p) / p)]))
        p_u = sl.pair_probability(model, 0, 1)
        assert GEOMETRIC_CAP * -np.log1p(-p_u) <= NEGLIGIBLE_LOG
        o, twin = (sl.LiveOracle(model, seed=3) for _ in range(2))
        sums = o.sample_geometric_sums(0, 1, [2, 0, 3])
        block = twin.sample_geometric_block(0, 1, 5)
        assert sums.tolist() == segment_sums(block, [2, 0, 3])
        assert o.ledger.per_pair == twin.ledger.per_pair

    def test_per_wait_path_keeps_its_cap(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "GEOMETRIC_CAP", 1000)
        o = sl.LiveOracle(mnl(1.0, 99.0), seed=3)
        # P(one wait > 1000) = 0.99^1000, about 4e-5 per wait
        with pytest.raises(sl.GeometricCapExceeded):
            o.sample_geometric_sums(0, 1, [100_000, 100_000])
        assert o.ledger.total == 1000

    def test_impossible_win_raises(self):
        model = sl.MatchingPseudoMnl(np.array([1.0]), np.arange(2))
        o = sl.LiveOracle(model, seed=0)
        with pytest.raises(sl.GeometricCapExceeded):
            o.sample_geometric_sums(0, 1, [0, 3])
        assert o.ledger.total == GEOMETRIC_CAP

    @pytest.mark.parametrize("w_u, w_v", ODDS)
    def test_stream_sums_are_segment_sums_of_the_block(self, w_u, w_v):
        a, b = (sl.LiveOracle(mnl(w_u, w_v), seed=4, pair_mode="stream",
                              transcript=True) for _ in range(2))
        sums = a.sample_geometric_sums(1, 0, COUNTS)
        assert sums.tolist() == segment_sums(
            b.sample_geometric_block(1, 0, sum(COUNTS)), COUNTS)
        assert a.ledger.per_pair == b.ledger.per_pair
        assert a.transcript == b.transcript
        assert a.sample_pair(0, 1) == b.sample_pair(0, 1)

    def test_replay_sums_are_segment_sums_of_the_block(self):
        model = mnl(1.0, 4.0)
        replays = [sl.ReplayOracle(sl.build_replay_table(
            sl.LiveOracle(model, seed=13, pair_mode="stream"), 500), 2)
            for _ in range(2)]
        for _ in range(3):
            sums = replays[0].sample_geometric_sums(0, 1, COUNTS)
            block = replays[1].sample_geometric_block(0, 1, sum(COUNTS))
            assert sums.tolist() == segment_sums(block, COUNTS)
            assert replays[0].table.cursors == replays[1].table.cursors
            assert replays[0].ledger.per_pair == replays[1].ledger.per_pair

    def test_exhausted_replay_sums_move_nothing(self):
        table = sl.build_replay_table(sl.LiveOracle(uniform_pair(), seed=2), 50)
        replay = sl.ReplayOracle(table, 2)
        replay.sample_geometric_sums(0, 1, [2, 3])
        cursor, ledger = table.cursors[(0, 1)], dict(replay.ledger.per_pair)
        with pytest.raises(sl.ReplayBudgetExhausted):
            replay.sample_geometric_sums(1, 0, [10, 0, 40])
        assert table.cursors[(0, 1)] == cursor
        assert replay.ledger.per_pair == ledger
        assert replay.sample_geometric_sums(0, 1, [0]).tolist() == [0]
        assert table.cursors[(0, 1)] == cursor
        # past u's last win the table holds only losses of u: a wait reads
        # some of them, runs out, and puts the cursor back
        answers = table.answers[(0, 1)]
        u = 1 - int(answers[-1])
        last_win = int(np.flatnonzero(answers == u)[-1])
        assert cursor <= last_win < table.m - 1
        replay.sample_pair_block(0, 1, last_win + 1 - cursor)
        cursor, ledger = table.cursors[(0, 1)], dict(replay.ledger.per_pair)
        for wait in (lambda: replay.sample_geometric(u, 1 - u),
                     lambda: replay.sample_geometric_block(u, 1 - u, 2)):
            with pytest.raises(sl.ReplayBudgetExhausted):
                wait()
            assert table.cursors[(0, 1)] == cursor
            assert replay.ledger.per_pair == ledger


class TestStreamWaits:
    @pytest.mark.parametrize("w_u, w_v", ODDS)
    @pytest.mark.parametrize("count", [1, 2, 37, 400])
    @pytest.mark.parametrize("chunk", [STREAM_CHUNK, 8])
    def test_equal_to_the_per_query_loop(self, monkeypatch, w_u, w_v, count,
                                         chunk):
        monkeypatch.setattr(oracle_mod, "STREAM_CHUNK", chunk)
        a, b = (sl.LiveOracle(mnl(w_u, w_v), seed=count, pair_mode="stream",
                              transcript=True) for _ in range(2))
        np.testing.assert_array_equal(a.sample_geometric_block(0, 1, count),
                                      per_query_waits(b, 0, 1, count))
        assert a.ledger.per_pair == b.ledger.per_pair
        assert a.transcript == b.transcript
        assert a.sample_pair(0, 1) == b.sample_pair(0, 1)

    @pytest.mark.parametrize("chunk", [STREAM_CHUNK, 8])
    def test_cap_fires_at_the_same_query(self, monkeypatch, chunk):
        monkeypatch.setattr(oracle_mod, "STREAM_CHUNK", chunk)
        monkeypatch.setattr(oracle_mod, "GEOMETRIC_CAP", 30)
        a, b = (sl.LiveOracle(mnl(1.0, 9.0), seed=6, pair_mode="stream",
                              transcript=True) for _ in range(2))
        replay = sl.ReplayOracle(sl.build_replay_table(
            sl.LiveOracle(mnl(1.0, 9.0), seed=6, pair_mode="stream"), 20_000), 2)
        # P(one wait > 30) = 0.9^30, about 4 %
        with pytest.raises(sl.GeometricCapExceeded):
            a.sample_geometric_block(0, 1, 2000)
        with pytest.raises(sl.GeometricCapExceeded):
            per_query_waits(b, 0, 1, 2000)
        # a replay reads the same answers, so its cap fires at the same query
        with pytest.raises(sl.GeometricCapExceeded):
            replay.sample_geometric_block(0, 1, 2000)
        assert a.ledger.per_pair == b.ledger.per_pair == replay.ledger.per_pair
        assert replay.table.cursors[(0, 1)] == a.ledger.total
        assert a.transcript == b.transcript
        assert (a.sample_pair(0, 1) == b.sample_pair(0, 1)
                == replay.sample_pair(0, 1))
