import copy

import numpy as np
import pytest

from dpwsim.agent import (
    AgentConfig,
    N_ACTIONS,
    QNetwork,
    REWARD_WEIGHTS,
    ReplayBuffer,
    XI_STEPS,
    ZETA_STEPS,
    build_state,
    compute_reward,
    decode_action,
    epsilon_at,
    select_action,
    train_step,
)
from dpwsim.kpi import (
    CellKpiReport,
    Histogram12,
    SNR_BIN_EDGES,
    TA_BIN_EDGES,
    ThroughputStats,
)


def flat_stats(value: float) -> ThroughputStats:
    return ThroughputStats(*([value] * 9))


def uniform_report(zeta=0.0, xi=5.0, mean_gamma=10.0) -> CellKpiReport:
    ones = np.ones(12, dtype=int)
    return CellKpiReport(
        snr_hist=Histogram12(edges=SNR_BIN_EDGES, counts=ones),
        ta_hist=Histogram12(edges=TA_BIN_EDGES, counts=ones),
        throughput=flat_stats(1e6),
        mean_gamma_db=mean_gamma,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestState:
    def test_uniform_histogram_components(self):
        s = build_state(uniform_report(), zeta=0.0, xi=5.0)
        assert s.shape == (8,)
        assert s[0] == 0.0
        assert s[1] == pytest.approx(0.5)
        assert s[2] == pytest.approx(10.0 / 30.0)
        assert s[3] == pytest.approx(np.log1p(7 / 5) / 7.0)
        assert s[4] == pytest.approx(np.log1p(2.0) / 7.0)
        assert s[5] == pytest.approx(np.log1p(7 / 5) / 7.0)
        assert s[6] == pytest.approx(np.log1p(5.0) / 7.0)
        assert s[7] == pytest.approx(8 / 12)

    def test_full_top_bin_gives_unit_ccdf_component(self):
        counts = np.zeros(12, dtype=int)
        counts[11] = 9
        rep = uniform_report()
        rep.snr_hist = Histogram12(edges=SNR_BIN_EDGES, counts=counts)
        s = build_state(rep, 0.0, 5.0)
        assert s[7] == 1.0

    def test_defaults_appear_in_leading_components(self):
        s = build_state(uniform_report(), zeta=0.0, xi=5.0)
        assert s[0] * 25.0 == 0.0
        assert s[1] * 10.0 == 5.0

    def test_empty_histogram_rejected(self):
        rep = uniform_report()
        rep.snr_hist = Histogram12(edges=SNR_BIN_EDGES)
        with pytest.raises(ValueError):
            build_state(rep, 0.0, 5.0)

    def test_sentinel_keeps_state_finite(self):
        counts = np.zeros(12, dtype=int)
        counts[11] = 4  # all mass at the top: ratio denominators are zero
        rep = uniform_report()
        rep.snr_hist = Histogram12(edges=SNR_BIN_EDGES, counts=counts)
        rep.ta_hist = Histogram12(edges=TA_BIN_EDGES, counts=counts)
        s = build_state(rep, 0.0, 5.0)
        assert np.all(np.isfinite(s))


def grid_index(d_zeta: float, d_xi: float) -> int:
    """The action whose decode applies the steps (d_zeta, d_xi)."""
    return ZETA_STEPS.index(d_zeta) * 3 + XI_STEPS.index(d_xi)


class TestActions:
    def test_decode_encode_identity(self):
        # the 3 x 3 grid of steps, zeta-major: every step pair is one action
        cfg = AgentConfig()
        assert N_ACTIONS == len(ZETA_STEPS) * len(XI_STEPS)
        for a in range(N_ACTIONS):
            z, x = decode_action(a, 0.0, 5.0, cfg)
            step = (z - 0.0, x - 5.0)
            assert step == (ZETA_STEPS[a // 3], XI_STEPS[a % 3])
            assert grid_index(*step) == a

    def test_center_action_is_identity(self):
        cfg = AgentConfig()
        assert decode_action(4, 0.0, 5.0, cfg) == (0.0, 5.0)

    def test_step_sizes(self):
        cfg = AgentConfig()
        a = grid_index(1.0, -0.5)
        assert decode_action(a, 0.0, 5.0, cfg) == (1.0, 4.5)

    def test_clamping(self):
        cfg = AgentConfig()
        assert decode_action(grid_index(0.0, -0.5), 0.0, 0.0, cfg)[1] == 0.0
        assert decode_action(grid_index(1.0, 0.0), cfg.zeta_max_db, 0.0, cfg)[0] == cfg.zeta_max_db
        assert decode_action(grid_index(-1.0, 0.0), cfg.zeta_min_db, 0.0, cfg)[0] == cfg.zeta_min_db

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            decode_action(9, 0.0, 0.0, AgentConfig())


class TestReward:
    def test_no_change_no_reward(self):
        assert compute_reward(flat_stats(2e6), flat_stats(2e6), AgentConfig()) == 0.0

    def test_uniform_percent_gain(self):
        # +1% on every factor: 50 * 0.01 * sum(weights) = 0.45
        prev = flat_stats(1e6)
        cur = flat_stats(1.01e6)
        assert compute_reward(prev, cur, AgentConfig()) == pytest.approx(0.45, abs=1e-12)

    def test_clipping(self):
        prev = flat_stats(1e6)
        cur = flat_stats(1.10e6)  # raw 50 * 0.1 * 0.9 = 4.5
        assert compute_reward(prev, cur, AgentConfig()) == 2.0
        assert compute_reward(cur, prev, AgentConfig()) >= -2.0

    def test_zero_baseline_term_dropped(self):
        prev = ThroughputStats(0.0, *[1e6] * 8)
        cur = flat_stats(2e6)
        r = compute_reward(prev, cur, AgentConfig(theta=1.0, reward_clip=1e9))
        assert r == pytest.approx(sum(REWARD_WEIGHTS[1:]) * 1.0)

    def test_first_order_antisymmetry(self):
        rng = np.random.default_rng(3)
        base = 1e6 * (1.0 + rng.uniform(0.0, 1.0, size=9))
        gains = 1e-4 * rng.uniform(-1.0, 1.0, size=9)
        prev = ThroughputStats(*base)
        cur = ThroughputStats(*(base * (1.0 + gains)))
        fwd = compute_reward(prev, cur, AgentConfig())
        bwd = compute_reward(cur, prev, AgentConfig())
        assert fwd + bwd == pytest.approx(0.0, abs=1e-4)

    def test_weights_sum(self):
        assert sum(REWARD_WEIGHTS) == pytest.approx(0.90)


class TestEpsilonSchedule:
    def test_endpoints(self):
        assert epsilon_at(0, 100) == 1.0
        assert epsilon_at(99, 100) == pytest.approx(0.01)

    def test_linear_midpoint(self):
        assert epsilon_at(50, 101) == pytest.approx((1.0 + 0.01) / 2.0)


class TestSelection:
    def test_pure_exploration_uniform(self, rng):
        q = QNetwork(rng)
        s = np.zeros(8)
        counts = np.bincount(
            [select_action(q, s, 1.0, rng) for _ in range(9000)], minlength=9
        )
        p = 1.0 / 9.0
        sigma = np.sqrt(9000 * p * (1 - p))
        assert np.all(np.abs(counts - 1000) < 3 * sigma + 1)

    def test_pure_exploitation_argmax(self, rng):
        q = QNetwork(rng)
        q.w2[:] = 0.0
        q.b2[:] = 0.0
        q.b2[7] = 1.0
        for _ in range(50):
            assert select_action(q, np.zeros(8), 0.0, rng) == 7

    def test_tie_breaks_to_lowest_index(self, rng):
        q = QNetwork(rng)
        q.w2[:] = 0.0
        q.b2[:] = 3.0
        assert select_action(q, np.zeros(8), 0.0, rng) == 0

    def test_mixed_rate(self, rng):
        q = QNetwork(rng)
        q.w2[:] = 0.0
        q.b2[:] = 0.0
        q.b2[4] = 1.0
        n = 10000
        picks = np.array([select_action(q, np.zeros(8), 0.5, rng) for _ in range(n)])
        greedy_frac = np.mean(picks == 4)
        # greedy picked with prob 0.5 + 0.5/9
        expect = 0.5 + 0.5 / 9.0
        assert abs(greedy_frac - expect) < 3 * np.sqrt(expect * (1 - expect) / n)

    def test_bad_epsilon_rejected(self, rng):
        with pytest.raises(ValueError):
            select_action(QNetwork(rng), np.zeros(8), 1.5, rng)


class TestReplayBuffer:
    def test_capacity_ring(self, rng):
        buf = ReplayBuffer(capacity=10)
        for i in range(25):
            buf.push(np.full(8, float(i)), i % 9, float(i), np.zeros(8))
        assert buf.size == 10
        assert set(buf.rewards.astype(int)) == set(range(15, 25))

    def test_sampling_without_replacement_covers_buffer(self, rng):
        buf = ReplayBuffer(capacity=50)
        for i in range(50):
            buf.push(np.zeros(8), 0, float(i), np.zeros(8))
        seen = set()
        for _ in range(40):
            _, _, rewards, _ = buf.sample(25, rng)
            assert len(np.unique(rewards)) == 25  # no repeats inside a batch
            seen.update(rewards.astype(int))
        assert seen == set(range(50))

    def test_oversized_batch_rejected(self, rng):
        buf = ReplayBuffer(capacity=8)
        buf.push(np.zeros(8), 0, 0.0, np.zeros(8))
        with pytest.raises(ValueError):
            buf.sample(2, rng)


class TestQNetwork:
    def test_forward_shape_and_determinism(self, rng):
        q = QNetwork(rng)
        s = rng.uniform(-1, 1, size=8)
        out1 = q.forward(s)
        out2 = q.forward(s)
        assert out1.shape == (9,)
        np.testing.assert_array_equal(out1, out2)
        batch = q.forward(np.stack([s, s]))
        assert batch.shape == (2, 9)
        np.testing.assert_allclose(batch[0], out1)

    def test_gradient_matches_finite_differences(self, rng):
        cfg = AgentConfig(hidden=16)
        q = QNetwork(rng, cfg)
        n = 12
        states = rng.uniform(-1.0, 1.0, size=(n, 8))
        actions = rng.integers(0, 9, size=n)
        targets = rng.uniform(-2.0, 2.0, size=n)
        _, grads = q.loss_and_grads(states, actions, targets)
        eps = 1e-6
        for p, g in zip(q.parameters(), grads):
            flat = p.reshape(-1)
            gflat = g.reshape(-1)
            idx = rng.choice(flat.size, size=min(40, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = q.loss_and_grads(states, actions, targets)
                flat[i] = orig - eps
                lm, _ = q.loss_and_grads(states, actions, targets)
                flat[i] = orig
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                assert abs(numeric - gflat[i]) / denom < 1e-4

    def test_fixpoint_single_transition(self, rng):
        cfg = AgentConfig(hidden=16, learning_rate=0.05, discount=0.0,
                          buffer_size=8, batch_size=4)
        q = QNetwork(rng, cfg)
        buf = ReplayBuffer(capacity=8)
        s = np.full(8, 0.3)
        for _ in range(8):
            buf.push(s, 2, 1.0, s)
        for _ in range(500):
            train_step(q, buf, rng)
        assert q.forward(s)[2] == pytest.approx(1.0, abs=1e-2)

    def test_zero_rewards_zero_head_is_stationary(self, rng):
        cfg = AgentConfig(hidden=16, discount=0.0, buffer_size=8, batch_size=8)
        q = QNetwork(rng, cfg)
        q.w2[:] = 0.0
        q.b2[:] = 0.0
        buf = ReplayBuffer(capacity=8)
        for i in range(8):
            buf.push(rng.uniform(-1, 1, 8), int(rng.integers(0, 9)), 0.0, np.zeros(8))
        before = [p.copy() for p in q.parameters()]
        loss = train_step(q, buf, rng)
        assert loss == 0.0
        for a, b in zip(before, q.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_insufficient_buffer_is_noop(self, rng):
        q = QNetwork(rng, AgentConfig(batch_size=32, buffer_size=64))
        buf = ReplayBuffer(capacity=64)
        buf.push(np.zeros(8), 0, 1.0, np.zeros(8))
        assert train_step(q, buf, rng) is None

    def test_track_moves_part_way_and_leaves_online_alone(self, rng):
        online = QNetwork(rng, AgentConfig(hidden=16))
        averaged = copy.deepcopy(online)
        start = [p.copy() for p in averaged.parameters()]
        for p in online.parameters():
            p += 1.0
        target = [p.copy() for p in online.parameters()]
        averaged.track(online, 0.25)
        for a, s, t in zip(averaged.parameters(), start, target):
            np.testing.assert_allclose(a, s + 0.25 * (t - s))
        for p, t in zip(online.parameters(), target):
            np.testing.assert_array_equal(p, t)
        averaged.track(online, 1.0)
        for a, t in zip(averaged.parameters(), target):
            np.testing.assert_allclose(a, t)

    def test_two_state_mdp_reaches_greedy_optimality(self, rng):
        # deterministic alternating MDP: best action differs per state
        cfg = AgentConfig(hidden=24, learning_rate=0.02, discount=0.01,
                          buffer_size=256, batch_size=32)
        q = QNetwork(rng, cfg)
        buf = ReplayBuffer(capacity=256)
        s0 = np.zeros(8)
        s0[0] = 1.0
        s1 = np.zeros(8)
        s1[1] = 1.0
        best = {0: 3, 1: 6}
        states = [s0, s1]
        cur = 0
        for step in range(5000):
            a = int(rng.integers(0, 9)) if rng.random() < 0.3 else int(
                np.argmax(q.forward(states[cur]))
            )
            r = 1.0 if a == best[cur] else 0.2
            nxt = 1 - cur
            buf.push(states[cur], a, r, states[nxt])
            train_step(q, buf, rng)
            cur = nxt
            if step > 600 and step % 500 == 0:
                if (
                    int(np.argmax(q.forward(s0))) == best[0]
                    and int(np.argmax(q.forward(s1))) == best[1]
                ):
                    break
        assert int(np.argmax(q.forward(s0))) == best[0]
        assert int(np.argmax(q.forward(s1))) == best[1]


class TestCheckpoint:
    def test_save_load_round_trip(self, rng, tmp_path):
        q = QNetwork(rng)
        path = tmp_path / "net.txt"
        q.save(path)
        q2 = QNetwork.load(path)
        for a, b in zip(q.parameters(), q2.parameters()):
            np.testing.assert_array_equal(a, b)
        s = rng.uniform(-1, 1, 8)
        np.testing.assert_array_equal(q.forward(s), q2.forward(s))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("something-else 1\nshape 8 60 9\n")
        with pytest.raises(ValueError):
            QNetwork.load(path)

    def test_malformed_array_rejected(self, rng, tmp_path):
        q = QNetwork(rng)
        path = tmp_path / "net.txt"
        q.save(path)
        lines = path.read_text().splitlines()
        lines[2] = "w1 1.0 2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            QNetwork.load(path)

    def test_load_leaves_the_given_config_alone(self, rng, tmp_path):
        path = tmp_path / "net.txt"
        QNetwork(rng, AgentConfig(hidden=12)).save(path)
        cfg = AgentConfig(learning_rate=0.02)
        net = QNetwork.load(path, cfg)
        assert cfg == AgentConfig(learning_rate=0.02)
        assert net.cfg == AgentConfig(learning_rate=0.02, hidden=12)
        assert net.w1.shape == (8, 12)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [2, 5])
    def test_non_finite_weights_rejected(self, rng, tmp_path, bad, row):
        path = tmp_path / "net.txt"
        QNetwork(rng).save(path)
        lines = path.read_text().splitlines()
        name, first, *rest = lines[row].split()
        lines[row] = " ".join([name, bad, *rest])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            QNetwork.load(path)
