"""Deep Q-learning controller for the switching threshold and hysteresis.

The Q-network is a deliberately small fully-connected net (8 inputs, one
rectified hidden layer of 60 units, 9 linear outputs) trained with Adam on
the mean squared error to the one-step Q-learning target, from minibatches
of a ring replay buffer. It is implemented directly on numpy so the
gradients stay inspectable; the test suite checks them against central
finite differences.

The reward is noisy next to the effect of one action, so every minibatch
step reorders the nine outputs a little. The training loop therefore acts,
for a whole episode, with a copy of the weights taken at the episode's
start, and checkpoints a Polyak average of the weights (``QNetwork.track``)
rather than the last minibatch iterate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .kpi import CellKpiReport, ThroughputStats, descriptor_d, descriptor_r

log = logging.getLogger(__name__)

STATE_DIM = 8
N_ACTIONS = 9
# row-major (d_zeta, d_xi) grid; index 4 is the do-nothing action
ZETA_STEPS = (-1.0, 0.0, 1.0)
XI_STEPS = (-0.5, 0.0, 0.5)

# Per-factor reward weights for (p10, p15, ..., p45, mean); heavier weights
# toward the mean keep the agent from sacrificing the cell average while
# chasing tail gains.
REWARD_WEIGHTS = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18)

# Fraction of the way averaged weights move toward the trained weights per
# update (Polyak averaging with a memory of about 20 updates).
AVERAGING_RATE = 0.05

CHECKPOINT_MAGIC = "dpwsim-qnet"
CHECKPOINT_VERSION = 1


@dataclass
class AgentConfig:
    hidden: int = 60
    learning_rate: float = 0.05
    discount: float = 0.01
    buffer_size: int = 750
    batch_size: int = 350
    epsilon_start: float = 1.0
    epsilon_min: float = 0.01
    theta: float = 50.0
    reward_clip: float = 2.0
    zeta_min_db: float = -10.0
    zeta_max_db: float = 25.0
    xi_max_db: float = 10.0

    def __post_init__(self):
        for name in ("hidden", "buffer_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.batch_size > self.buffer_size:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds buffer_size {self.buffer_size}:"
                " the agent would never train"
            )
        for name in ("learning_rate", "theta", "reward_clip"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epsilon_start", "epsilon_min"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        # transitions carry no terminal flag, so only a discount below 1
        # bounds the Q-values
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")
        if not self.xi_max_db >= 0.0:
            raise ValueError(f"xi_max_db must not be negative, got {self.xi_max_db}")
        if not self.zeta_min_db <= self.zeta_max_db:
            raise ValueError(
                f"zeta_min_db {self.zeta_min_db} exceeds zeta_max_db {self.zeta_max_db}"
            )


def decode_action(
    action: int, zeta: float, xi: float, cfg: AgentConfig
) -> tuple[float, float]:
    """Apply action ``action`` (0..8) to (zeta, xi) with bound clamping."""
    if not 0 <= action < N_ACTIONS:
        raise ValueError(f"action index {action} outside 0..{N_ACTIONS - 1}")
    d_zeta = ZETA_STEPS[action // 3]
    d_xi = XI_STEPS[action % 3]
    new_zeta = min(max(zeta + d_zeta, cfg.zeta_min_db), cfg.zeta_max_db)
    new_xi = min(max(xi + d_xi, 0.0), cfg.xi_max_db)
    return new_zeta, new_xi


def build_state(kpis: CellKpiReport, zeta: float, xi: float) -> np.ndarray:
    """Assemble and normalize the 8-component observation.

    Raw components: (zeta, xi, mean SNR, R6/R5 of the SNR histogram, R6/R3
    of the TA histogram, D5 of the SNR histogram). Fixed affine/log maps
    keep every component O(1) for stable training.
    """
    if kpis.snr_hist.total == 0 or kpis.ta_hist.total == 0:
        raise ValueError("state undefined on empty histograms")
    raw = np.array(
        [
            zeta,
            xi,
            kpis.mean_gamma_db,
            descriptor_r(kpis.snr_hist, 6),
            descriptor_r(kpis.snr_hist, 5),
            descriptor_r(kpis.ta_hist, 6),
            descriptor_r(kpis.ta_hist, 3),
            descriptor_d(kpis.snr_hist, 5),
        ]
    )
    state = np.array(
        [
            raw[0] / 25.0,
            raw[1] / 10.0,
            raw[2] / 30.0,
            np.log1p(raw[3]) / 7.0,
            np.log1p(raw[4]) / 7.0,
            np.log1p(raw[5]) / 7.0,
            np.log1p(raw[6]) / 7.0,
            raw[7],
        ]
    )
    if not np.all(np.isfinite(state)):
        raise ValueError("non-finite component in agent state")
    return state


def compute_reward(prev: ThroughputStats, cur: ThroughputStats, cfg: AgentConfig) -> float:
    """Sum of relative per-factor gains weighted by ``REWARD_WEIGHTS``,
    scaled by ``cfg.theta`` and clamped to +-``cfg.reward_clip``. Factors
    with a zero baseline contribute nothing."""
    prev_v = prev.as_array()
    cur_v = cur.as_array()
    weights = np.asarray(REWARD_WEIGHTS)
    ok = prev_v > 0.0
    if not np.all(ok):
        log.warning(
            "zero baseline for reward factor(s) %s; dropping their terms",
            [i for i, good in enumerate(ok) if not good],
        )
    gains = np.zeros_like(prev_v)
    gains[ok] = (cur_v[ok] - prev_v[ok]) / prev_v[ok]
    raw = cfg.theta * float(weights @ gains)
    return min(max(raw, -cfg.reward_clip), cfg.reward_clip)


def epsilon_at(step: int, total_steps: int, start: float = 1.0, floor: float = 0.01) -> float:
    """Per-step linear decay from ``start`` to ``floor``."""
    if total_steps <= 1:
        return floor
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return start + (floor - start) * frac


class QNetwork:
    """8 -> hidden -> 9 perceptron with rectifier hidden activation, linear
    output, and Adam as the optimizer. All math in float64."""

    def __init__(self, rng: np.random.Generator, cfg: AgentConfig | None = None):
        self.cfg = cfg or AgentConfig()
        h = self.cfg.hidden
        # uniform fan-in init
        lim1 = 1.0 / np.sqrt(STATE_DIM)
        lim2 = 1.0 / np.sqrt(h)
        self.w1 = rng.uniform(-lim1, lim1, size=(STATE_DIM, h))
        self.b1 = np.zeros(h)
        self.w2 = rng.uniform(-lim2, lim2, size=(h, N_ACTIONS))
        self.b2 = np.zeros(N_ACTIONS)
        self._adam_m = [np.zeros_like(p) for p in self.parameters()]
        self._adam_v = [np.zeros_like(p) for p in self.parameters()]
        self._adam_t = 0

    def parameters(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def track(self, online: "QNetwork", rate: float = AVERAGING_RATE) -> None:
        """Move every weight the fraction ``rate`` of the way toward the
        matching weight of ``online`` (Polyak averaging)."""
        for avg, p in zip(self.parameters(), online.parameters()):
            avg += rate * (p - avg)

    def forward(self, states: np.ndarray) -> np.ndarray:
        """Q-values, shape (batch, 9) for a (batch, 8) input or (9,) for a
        single state."""
        s = np.atleast_2d(np.asarray(states, dtype=float))
        hidden = np.maximum(s @ self.w1 + self.b1, 0.0)
        q = hidden @ self.w2 + self.b2
        return q[0] if np.asarray(states).ndim == 1 else q

    def loss_and_grads(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """Mean squared error between Q(s, a) and fixed targets, with its
        gradient w.r.t. every parameter."""
        s = np.asarray(states, dtype=float)
        a = np.asarray(actions, dtype=int)
        y = np.asarray(targets, dtype=float)
        n = s.shape[0]
        pre = s @ self.w1 + self.b1
        hidden = np.maximum(pre, 0.0)
        q = hidden @ self.w2 + self.b2
        taken = q[np.arange(n), a]
        err = taken - y
        loss = float(np.mean(err**2))

        dq = np.zeros_like(q)
        dq[np.arange(n), a] = 2.0 * err / n
        dw2 = hidden.T @ dq
        db2 = dq.sum(axis=0)
        dh = dq @ self.w2.T
        dh[pre <= 0.0] = 0.0
        dw1 = s.T @ dh
        db1 = dh.sum(axis=0)
        return loss, [dw1, db1, dw2, db2]

    def adam_step(self, grads: list[np.ndarray]) -> None:
        b1, b2, eps = 0.9, 0.999, 1e-8
        self._adam_t += 1
        lr = self.cfg.learning_rate
        for p, g, m, v in zip(self.parameters(), grads, self._adam_m, self._adam_v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self._adam_t)
            v_hat = v / (1 - b2**self._adam_t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def save(self, path) -> None:
        """Versioned text checkpoint: header, layer shape, then the four
        parameter arrays flattened row-major."""
        with open(path, "w") as fh:
            fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n")
            fh.write(f"shape {STATE_DIM} {self.cfg.hidden} {N_ACTIONS}\n")
            for name, arr in zip(("w1", "b1", "w2", "b2"), self.parameters()):
                flat = " ".join(repr(float(x)) for x in arr.reshape(-1))
                fh.write(f"{name} {flat}\n")

    @classmethod
    def load(cls, path, cfg: AgentConfig | None = None) -> "QNetwork":
        """Read a checkpoint written by :meth:`save`. The network gets a copy
        of ``cfg`` with the hidden width of the file; ``cfg`` is left as it
        is. Non-finite weights are refused."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        if len(lines) < 2 or lines[0].split() != [CHECKPOINT_MAGIC, str(CHECKPOINT_VERSION)]:
            raise ValueError(f"{path}: not a version-{CHECKPOINT_VERSION} checkpoint")
        tag, *dims = lines[1].split()
        if tag != "shape" or len(dims) != 3:
            raise ValueError(f"{path}: malformed shape line")
        in_dim, hidden, out_dim = map(int, dims)
        if (in_dim, out_dim) != (STATE_DIM, N_ACTIONS):
            raise ValueError(f"{path}: unsupported layer shape {dims}")
        net = cls(np.random.default_rng(0), replace(cfg or AgentConfig(), hidden=hidden))
        shapes = [(in_dim, hidden), (hidden,), (hidden, out_dim), (out_dim,)]
        params = {}
        for line in lines[2:]:
            name, *vals = line.split()
            params[name] = np.array([float(v) for v in vals])
        for name, shape, target in zip(("w1", "b1", "w2", "b2"), shapes, net.parameters()):
            if name not in params or params[name].size != int(np.prod(shape)):
                raise ValueError(f"{path}: missing or misshapen array {name!r}")
            if not np.all(np.isfinite(params[name])):
                raise ValueError(f"{path}: non-finite values in array {name!r}")
            target[...] = params[name].reshape(shape)
        return net


class ReplayBuffer:
    """Fixed-capacity ring of (state, action, reward, next_state) records."""

    def __init__(self, capacity: int = 750):
        self.capacity = capacity
        self.states = np.zeros((capacity, STATE_DIM))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, STATE_DIM))
        self._next = 0
        self.size = 0

    def push(self, state, action: int, reward: float, next_state) -> None:
        i = self._next
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample without replacement within the batch."""
        if batch_size > self.size:
            raise ValueError("batch larger than buffer content")
        idx = rng.choice(self.size, size=batch_size, replace=False)
        return (
            self.states[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_states[idx],
        )


def select_action(
    q: QNetwork, state: np.ndarray, epsilon: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy over the 9 outputs; greedy ties go to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, N_ACTIONS))
    return int(np.argmax(q.forward(state)))


def train_step(
    q: QNetwork, buffer: ReplayBuffer, rng: np.random.Generator
) -> float | None:
    """One Adam step on the Bellman MSE; returns the pre-update batch loss,
    or None while the buffer is still smaller than a batch."""
    batch = q.cfg.batch_size
    if buffer.size < batch:
        return None
    states, actions, rewards, next_states = buffer.sample(batch, rng)
    next_q = q.forward(next_states)
    targets = rewards + q.cfg.discount * next_q.max(axis=1)
    loss, grads = q.loss_and_grads(states, actions, targets)
    q.adam_step(grads)
    return loss
