import numpy as np
import pytest

import slatelearn as sl
from conftest import mnl
from slatelearn.oracle import BINOMIAL_CHUNK, pair_streams_seed


def uniform_pair():
    return mnl(1.0, 1.0)


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


class TestBinomialChunks:
    def test_count_up_to_chunk_is_one_draw(self):
        # seeded runs drew Binomial(count, p) in one call; they must still
        model = mnl(1.0, 3.0)
        p = sl.pair_probability(model, 0, 1)
        for count in (0, 1, 1000, 2**40, BINOMIAL_CHUNK):
            o = sl.LiveOracle(model, seed=8)
            rng = np.random.default_rng(pair_streams_seed(8, 0, 1))
            assert o.pair_win_count(0, 1, count) == rng.binomial(count, p)

    def test_count_beyond_c_long(self):
        o = sl.LiveOracle(mnl(1.0, 3.0), seed=9)
        wins = o.pair_win_count(0, 1, 2**64)
        assert isinstance(wins, int) and 0 <= wins <= 2**64
        # every chunk is drawn: the sd of wins / 2^64 is about 1e-10
        assert abs(wins / 2**64 - 0.25) < 1e-6
        assert o.ledger.total == 2**64
        assert o.ledger.per_pair == {(0, 1): 2**64}


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
        for _ in range(100):
            assert live.sample_pair(0, 2) == replay.sample_pair(0, 2)

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
        expected = list(table.answers[(0, 1)])
        got = [sl.replay_sample(table, (0, 1)) for _ in range(4)]
        assert got == expected
        with pytest.raises(sl.ReplayBudgetExhausted):
            sl.replay_sample(table, (1, 0))

    def test_replay_geometric_consumes_like_live(self):
        model = mnl(1.0, 4.0)
        live = sl.LiveOracle(model, seed=13, pair_mode="stream")
        table = sl.build_replay_table(sl.LiveOracle(model, seed=13,
                                                    pair_mode="stream"), 500)
        replay = sl.ReplayOracle(table, 2)
        for _ in range(30):
            assert live.sample_geometric(0, 1) == replay.sample_geometric(0, 1)
        assert live.ledger.per_pair == replay.ledger.per_pair

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
