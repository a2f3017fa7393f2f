"""Forward/backward correctness, SGD contracts, and checkpointing."""

import threading

import numpy as np
import pytest

from unlbench.data import Dataset, SyntheticSpec, generate_universe
from unlbench.errors import (ConfigError, DegenerateInputError, DivergenceError, LabelError,
                             ShapeError)
from unlbench.model import (
    BLOCKS,
    MlpParams,
    ModelCheckpoint,
    NoiseFeed,
    STREAM_NOISE,
    SgdRun,
    TrainConfig,
    _forward_cache,
    accuracy,
    backward,
    cross_entropy_grad_logits,
    cross_entropy_gradient,
    forward,
    grad_cross_entropy,
    init_params,
    load_checkpoint,
    log_softmax,
    save_checkpoint,
    sgd_lockstep,
    sgd_loop,
    sgd_train,
    softmax,
)
from unlbench.rng import make_rng


ENCODER = ("W1", "b1", "W2", "b2")


def tiny_params(seed=0, ambient=5, hidden=7, feat=3, classes=4, scale=0.3):
    params = init_params(ambient, classes, seed, hidden=hidden, feat_dim=feat)
    rng = make_rng(seed, 99)
    for b in BLOCKS:
        arr = getattr(params, b)
        arr += scale * rng.standard_normal(arr.shape)
    return params


def numeric_gradient(params, block, x, y, h=1e-5):
    arr = getattr(params, block)
    num = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = arr[i]
        arr[i] = orig + h
        _, up = grad_cross_entropy(params, x, y)
        arr[i] = orig - h
        _, down = grad_cross_entropy(params, x, y)
        arr[i] = orig
        num[i] = (up - down) / (2 * h)
    return num


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        p = MlpParams(
            W1=np.zeros((4, 6)), b1=np.zeros(6), W2=np.zeros((6, 3)),
            b2=np.zeros(3), Whead=np.zeros((3, 5)), bhead=np.zeros(5),
        )
        feats, logits = forward(p, np.ones((2, 4)))
        assert np.all(logits == 0.0)
        np.testing.assert_allclose(softmax(logits), 0.2, atol=1e-15)

    def test_hand_computed_two_layer_network(self):
        # 2 -> 2 -> 2 network with one input, worked out by hand.
        p = MlpParams(
            W1=np.array([[1.0, -1.0], [0.5, 2.0]]), b1=np.array([0.1, -0.2]),
            W2=np.array([[1.0, 0.5], [-1.0, 1.0]]), b2=np.array([0.0, 0.3]),
            Whead=np.array([[2.0, -1.0], [0.0, 1.0]]), bhead=np.array([0.5, 0.0]),
        )
        x = np.array([[1.0, 2.0]])
        # a1 = (2.1, 2.8); h1 = same; a2 = (2.1 - 2.8, 1.05 + 2.8 + 0.3)
        feats, logits = forward(p, x)
        np.testing.assert_allclose(feats, [[0.0, 4.15]], atol=1e-12)
        np.testing.assert_allclose(logits, [[0.5, 4.15]], atol=1e-12)

    def test_duplicated_rows_give_identical_features(self):
        p = tiny_params(1)
        x = make_rng(1, 3).standard_normal((1, 5))
        feats, _ = forward(p, np.vstack([x, x, x]))
        assert np.array_equal(feats[0], feats[1])
        assert np.array_equal(feats[1], feats[2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            forward(tiny_params(0), np.ones((2, 9)))
        with pytest.raises(ShapeError):
            _forward_cache(tiny_params(0), np.ones((2, 9)))

    @pytest.mark.parametrize("seed", range(5))
    def test_inference_forward_bit_identical_to_training_cache(self, seed):
        rng = make_rng(seed, 4)
        p = init_params(160, 20, seed)
        x = 3.0 * rng.standard_normal((int(rng.integers(1, 400)), 160))
        feats, logits = forward(p, x)
        cache = _forward_cache(p, x)
        assert np.array_equal(feats, cache["feats"])
        assert np.array_equal(logits, cache["logits"])
        # Integer inputs are promoted to float64 as before.
        feats_i, _ = forward(p, np.ones((3, 160), dtype=np.int64))
        assert np.array_equal(feats_i, _forward_cache(p, np.ones((3, 160)))["feats"])


class TestGradients:
    def test_saturated_correct_prediction_has_tiny_gradient(self):
        p = tiny_params(2)
        x = make_rng(2, 5).standard_normal((4, 5))
        _, raw_logits = forward(p, x)
        y = np.argmax(raw_logits, axis=1)
        # Scale the head until every margin is enormous.
        p.Whead *= 2000.0
        p.bhead *= 2000.0
        grads, loss = grad_cross_entropy(p, x, y)
        assert loss < 1e-6
        assert max(np.abs(grads[b]).max() for b in BLOCKS) < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_central_finite_differences(self, seed):
        p = tiny_params(seed)
        rng = make_rng(seed, 7)
        x = rng.standard_normal((3, 5))
        y = rng.integers(0, 4, 3)
        grads, _ = grad_cross_entropy(p, x, y)
        for b in BLOCKS:
            num = numeric_gradient(p, b, x, y)
            denom = max(np.abs(num).max(), 1e-8)
            assert np.abs(grads[b] - num).max() / denom < 1e-4, b

    def test_bad_label_rejected(self):
        with pytest.raises(LabelError):
            grad_cross_entropy(tiny_params(0), np.ones((1, 5)), np.array([4]))


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -0.1),
    ("grad_noise_sigma", float("nan")), ("grad_noise_sigma", float("inf")),
    ("grad_noise_sigma", -0.1),
])
def test_train_config_rejects_non_finite_or_negative_rates(field, value):
    # NaN passed the old `< 0` checks: an lr of NaN diverged at the first
    # step, and a sigma of NaN trained as if it were 0.
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


class TestSgdTrain:
    def setup_method(self):
        rng = make_rng(8, 0)
        protos = rng.standard_normal((3, 6))
        x = np.vstack([protos[c] + 0.1 * rng.standard_normal((20, 6)) for c in range(3)])
        self.data = Dataset(x, np.repeat(np.arange(3), 20), 3)

    def test_zero_epochs_leaves_params_unchanged(self):
        p = init_params(6, 3, 1)
        out = sgd_train(p, self.data, TrainConfig(epochs=0, seed=1))
        for b in BLOCKS:
            assert np.array_equal(getattr(p, b), getattr(out, b))

    def test_zero_lr_leaves_params_unchanged(self):
        p = init_params(6, 3, 1)
        out = sgd_train(p, self.data, TrainConfig(lr=0.0, epochs=4, seed=1))
        for b in BLOCKS:
            assert np.array_equal(getattr(p, b), getattr(out, b))

    def test_training_is_deterministic(self):
        cfg = TrainConfig(lr=0.1, epochs=3, batch_size=16, seed=5)
        a = sgd_train(init_params(6, 3, 2), self.data, cfg)
        b = sgd_train(init_params(6, 3, 2), self.data, cfg)
        for blk in BLOCKS:
            assert np.array_equal(getattr(a, blk), getattr(b, blk))

    def test_default_spec_reaches_train_accuracy_floor(self):
        # Regression floor measured once on the seeded default configuration.
        train, _, _, _ = generate_universe(SyntheticSpec())
        cfg = TrainConfig(lr=0.1, epochs=30, batch_size=64, momentum=0.9, seed=11)
        params = sgd_train(init_params(32, 20, 11), train, cfg)
        assert accuracy(forward(params, train.X)[1], train) >= 0.95

    def test_freeze_encoder_training_touches_only_head(self):
        p = init_params(6, 3, 4)
        cfg = TrainConfig(lr=0.1, epochs=2, seed=4, freeze_encoder=True)
        out = sgd_train(p, self.data, cfg)
        for b in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(p, b), getattr(out, b))
        assert not np.array_equal(p.Whead, out.Whead)

    def test_freeze_encoder_with_noise_keeps_encoder_bits(self):
        p = init_params(6, 3, 4)
        cfg = TrainConfig(lr=0.1, epochs=2, seed=4, freeze_encoder=True,
                          grad_noise_sigma=0.1)
        out = sgd_train(p, self.data, cfg)
        for b in ENCODER:
            assert np.array_equal(getattr(p, b), getattr(out, b)), b
        assert not np.array_equal(p.Whead, out.Whead)

    def test_zero_noise_path_bit_identical_to_noiseless(self):
        cfg0 = TrainConfig(lr=0.05, epochs=2, seed=6, grad_noise_sigma=0.0)
        a = sgd_train(init_params(6, 3, 6), self.data, cfg0)
        b = sgd_train(init_params(6, 3, 6), self.data, cfg0)
        for blk in BLOCKS:
            assert np.array_equal(getattr(a, blk), getattr(b, blk))
        noisy = sgd_train(init_params(6, 3, 6), self.data,
                          TrainConfig(lr=0.05, epochs=2, seed=6, grad_noise_sigma=0.5))
        assert any(not np.array_equal(getattr(a, blk), getattr(noisy, blk))
                   for blk in BLOCKS)

    def test_nesterov_changes_trajectory(self):
        plain = sgd_train(init_params(6, 3, 7), self.data,
                          TrainConfig(lr=0.1, epochs=3, momentum=0.9, seed=7))
        nest = sgd_train(init_params(6, 3, 7), self.data,
                         TrainConfig(lr=0.1, epochs=3, momentum=0.9, nesterov=True, seed=7))
        assert any(not np.array_equal(getattr(plain, b), getattr(nest, b))
                   for b in BLOCKS)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_step_index(self):
        broken = init_params(6, 3, 9)
        broken.W2[0, 0] = np.inf
        with pytest.raises(DivergenceError) as err:
            sgd_train(broken, self.data, TrainConfig(lr=0.1, epochs=1, seed=9))
        assert err.value.step == 0


def oracle_sgd_step(params, grads, velocity, noise_rng, cfg, sign=1.0, mask=None):
    """The SGD update block by block, each operation on a fresh temporary.

    Noise is drawn for every block; under freeze_encoder the encoder's
    blocks are then left as they are."""
    for b in BLOCKS:
        g = sign * grads[b]
        if noise_rng is not None:
            g = g + cfg.grad_noise_sigma * noise_rng.standard_normal(g.shape)
        if cfg.freeze_encoder and b in ENCODER:
            continue
        v = velocity[b]
        v *= cfg.momentum
        v += g
        step_dir = g + cfg.momentum * v if cfg.nesterov else v
        update = cfg.lr * step_dir
        if mask is not None:
            update = update * mask[b]
        arr = getattr(params, b)
        arr -= update


class TestFlatSgdStep:
    """sgd_loop's flat-vector update against the per-block oracle."""

    N_STEPS = 9
    LONG_RUNS = (133, 128)

    def setup_method(self):
        rng = make_rng(12, 0)
        self.x = rng.standard_normal((40, 5))
        self.y = rng.integers(0, 4, 40)
        self.batches = [rng.permutation(40)[:8] for _ in range(max(self.LONG_RUNS))]
        self.theta = tiny_params(12)
        # The oracle takes the mask per block, sgd_loop as one flat vector.
        self.block_mask = {b: (rng.random(getattr(self.theta, b).shape) < 0.5).astype(float)
                           for b in BLOCKS}
        self.mask = np.concatenate([self.block_mask[b].ravel() for b in BLOCKS])

    def _batch(self, i):
        idx = self.batches[i]
        return self.x[idx], self.y[idx]

    def _oracle(self, cfg, sign, mask, n_steps):
        params = self.theta.copy()
        velocity = {b: np.zeros_like(getattr(params, b)) for b in BLOCKS}
        noise = make_rng(cfg.seed, STREAM_NOISE) if cfg.grad_noise_sigma > 0 else None
        for i in range(n_steps):
            grads, _ = grad_cross_entropy(params, *self._batch(i))
            oracle_sgd_step(params, grads, velocity, noise, cfg, sign, mask)
        return params, noise

    def _flat(self, cfg, sign, mask, n_steps):
        """The run through sgd_loop; returns (params, state, noise), where
        noise is the feed's row for the step after the last (None without
        noise)."""
        seen = {}

        def steps(work, state):
            seen["state"] = state
            for i in range(n_steps):
                grad, loss = cross_entropy_gradient(work, *self._batch(i))
                yield grad, loss, 8, sign
            seen["noise"] = None if state.noise is None else state.noise.row(n_steps).copy()
        params, visits = sgd_loop(self.theta, cfg, steps, mask=mask)
        assert visits == 8 * n_steps
        return params, seen["state"], seen["noise"]

    def _check_against_oracle(self, cfg, sign, masked, n_steps):
        want, want_noise = self._oracle(cfg, sign, self.block_mask if masked else None,
                                        n_steps)
        got, state, next_noise = self._flat(cfg, sign, self.mask if masked else None,
                                            n_steps)
        assert state.step == n_steps
        for b in BLOCKS:
            assert np.array_equal(getattr(got, b), getattr(want, b)), b
        if want_noise is None:
            assert state.noise is None and next_noise is None
        else:
            # The feed stands where the oracle's stream stands: its next
            # row is the stream's next n normals.
            assert np.array_equal(next_noise, want_noise.standard_normal(state.params.size))

    @pytest.mark.parametrize("sign, knobs, masked", [
        (1.0, {}, False),
        (-1.0, {}, False),
        (1.0, {"grad_noise_sigma": 0.05}, False),
        (1.0, {"nesterov": True, "momentum": 0.5, "grad_noise_sigma": 0.01}, False),
        (1.0, {"momentum": 0.0}, False),
        (1.0, {}, True),
        (1.0, {"freeze_encoder": True, "grad_noise_sigma": 0.02}, False),
        (-1.0, {"nesterov": True, "grad_noise_sigma": 0.03, "momentum": 0.7}, True),
    ])
    def test_matches_per_block_oracle_bit_for_bit(self, sign, knobs, masked):
        cfg = TrainConfig(lr=0.05, epochs=1, seed=3, **knobs)
        self._check_against_oracle(cfg, sign, masked, self.N_STEPS)

    @pytest.mark.parametrize("n_steps", LONG_RUNS)
    @pytest.mark.parametrize("sign, knobs, masked", [
        (1.0, {"grad_noise_sigma": 0.05}, False),
        (-1.0, {"nesterov": True, "grad_noise_sigma": 0.03, "momentum": 0.7}, True),
        (1.0, {"freeze_encoder": True, "grad_noise_sigma": 0.02}, True),
    ])
    def test_long_runs_match_oracle(self, sign, knobs, masked, n_steps):
        cfg = TrainConfig(lr=0.002, epochs=1, seed=5, **knobs)
        self._check_against_oracle(cfg, sign, masked, n_steps)

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_result_shares_no_memory_with_input(self, epochs):
        before = self.theta.content_hash()
        cfg = TrainConfig(lr=0.05, epochs=epochs, seed=3)
        out = self._flat(cfg, 1.0, None, self.N_STEPS)[0] if epochs else (
            sgd_loop(self.theta, cfg, None)[0])
        for b in BLOCKS:
            assert not np.shares_memory(getattr(out, b), getattr(self.theta, b)), b
        assert self.theta.content_hash() == before

    def test_two_runs_from_one_theta_give_one_hash(self):
        cfg = TrainConfig(lr=0.05, epochs=1, seed=3, nesterov=True, grad_noise_sigma=0.01)
        a = self._flat(cfg, -1.0, self.mask, self.N_STEPS)[0]
        b = self._flat(cfg, -1.0, self.mask, self.N_STEPS)[0]
        assert a.content_hash() == b.content_hash()


class TestNoisyRuns:
    """A noisy run draws its noise on the training thread, and stops on
    the step that fails."""

    def setup_method(self):
        rng = make_rng(14, 0)
        self.theta = tiny_params(14)
        self.x = rng.standard_normal((16, 5))
        self.y = rng.integers(0, 4, 16)
        self.cfg = TrainConfig(lr=0.05, epochs=1, seed=2, grad_noise_sigma=0.1)

    def _steps(self, n_steps, fail_at=None, exc=None, seen=None):
        def steps(work, state):
            for i in range(n_steps):
                if seen is not None:
                    seen.append(threading.active_count())
                grad, loss = cross_entropy_gradient(work, self.x, self.y)
                if i == fail_at:
                    if exc is None:
                        loss = float("nan")
                    else:
                        raise exc
                yield grad, loss, 16, 1.0
        return steps

    def test_starts_no_thread(self):
        before, seen = threading.active_count(), []
        sgd_loop(self.theta, self.cfg, self._steps(3 * 64 + 1, seen=seen))
        assert len(seen) == 3 * 64 + 1 and set(seen) == {before}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_mid_run(self):
        with pytest.raises(DivergenceError) as err:
            sgd_loop(self.theta, self.cfg, self._steps(200, fail_at=70))
        assert err.value.step == 70

    def test_steps_generator_raising_mid_run(self):
        with pytest.raises(LabelError):
            sgd_loop(self.theta, self.cfg, self._steps(200, fail_at=70, exc=LabelError("bad")))


def test_noise_feed_draws_each_row_once_in_stream_order():
    feed, oracle = NoiseFeed(make_rng(9, STREAM_NOISE), 11), make_rng(9, STREAM_NOISE)
    for step in range(3):
        row = feed.row(step).copy()
        assert np.array_equal(feed.row(step), row)  # a second run's read draws nothing
        assert np.array_equal(row, oracle.standard_normal(11))
    for step in (1, 4):
        with pytest.raises(ValueError, match=f"row {step} asked of a feed at row 2"):
            feed.row(step)


# A fresh feed stands before row 0, so it hands out no row -1.
@pytest.mark.parametrize("drawn, asked", [(0, -1), (0, 1), (3, 0), (3, -1)])
def test_noise_feed_rejects_rows_out_of_lockstep(drawn, asked):
    feed = NoiseFeed(make_rng(9, STREAM_NOISE), 11)
    for step in range(drawn):
        feed.row(step)
    with pytest.raises(ValueError, match=f"row {asked} asked of a feed at row {drawn - 1}"):
        feed.row(asked)


NOISY = {"grad_noise_sigma": 0.1}

# Each case is a list of (n_steps, knobs) runs; knobs may set the seed.
LOCKSTEP_CASES = {
    "one-stream-unequal-lengths": [(5, NOISY), (9, NOISY)],
    "one-stream-longest-first": [(9, NOISY), (5, NOISY), (1, NOISY)],
    "two-streams-and-noiseless": [(6, NOISY), (3, {**NOISY, "seed": 5}), (6, {})],
    "frozen-encoder-shares-the-stream": [(7, NOISY), (7, {**NOISY, "freeze_encoder": True})],
    "other-sigma-shares-the-stream": [(4, NOISY), (4, {"grad_noise_sigma": 0.05,
                                                      "nesterov": True, "momentum": 0.5})],
}


class TestLockstep:
    """Runs stepped together by sgd_lockstep reach the bits each reaches
    alone, and the noisy runs of one stream draw it once."""

    def setup_method(self):
        rng = make_rng(15, 0)
        self.theta = tiny_params(15)
        self.x = rng.standard_normal((16, 5))
        self.y = rng.integers(0, 4, 16)

    def _run(self, n_steps, knobs, fail_at=None, exc=None):
        knobs = {"seed": 4, **knobs}
        cfg = TrainConfig(lr=0.05, epochs=1, **knobs)

        def steps(work, state):
            for i in range(n_steps):
                idx = (np.arange(4) + i) % 16
                grad, loss = cross_entropy_gradient(work, self.x[idx], self.y[idx])
                if i == fail_at:
                    if exc is None:
                        loss = float("nan")
                    else:
                        raise exc
                yield grad, loss, 4, 1.0
        return SgdRun(self.theta, cfg, steps)

    @staticmethod
    def _counting_rows(monkeypatch):
        """Counts, per seed, the noise rows the runs draw."""
        import unlbench.model as model
        drawn = {}
        real_make_rng = model.make_rng

        class CountingRng:
            def __init__(self, seed):
                self.seed, self.rng = seed, real_make_rng(seed, STREAM_NOISE)

            def standard_normal(self, out):
                drawn[self.seed] = drawn.get(self.seed, 0) + 1
                return self.rng.standard_normal(out=out)
        monkeypatch.setattr(model, "make_rng", lambda seed, stream: (
            CountingRng(seed) if stream == STREAM_NOISE else real_make_rng(seed, stream)))
        return drawn

    def _solo(self, run):
        [out] = sgd_lockstep([run])
        return out

    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_runs_match_their_solo_runs(self, case):
        runs = [self._run(n, knobs) for n, knobs in LOCKSTEP_CASES[case]]
        together = sgd_lockstep(runs)
        for (n, _), run, (params, visits) in zip(LOCKSTEP_CASES[case], runs, together):
            want, want_visits = self._solo(run)
            assert visits == want_visits == 4 * n
            assert params.content_hash() == want.content_hash()

    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_each_stream_draws_its_longest_runs_rows(self, case, monkeypatch):
        drawn = self._counting_rows(monkeypatch)
        sgd_lockstep([self._run(n, knobs) for n, knobs in LOCKSTEP_CASES[case]])
        want = {}
        for n, knobs in LOCKSTEP_CASES[case]:
            if knobs.get("grad_noise_sigma", 0) > 0:
                seed = knobs.get("seed", 4)
                want[seed] = max(want.get(seed, 0), n)
        assert drawn == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("exc", [None, LabelError("bad")], ids=["divergence", "raise"])
    def test_a_failing_run_stops_alone(self, exc, monkeypatch):
        drawn = self._counting_rows(monkeypatch)
        runs = [self._run(9, NOISY), self._run(9, NOISY, fail_at=3, exc=exc),
                self._run(5, NOISY)]
        first, failed, last = sgd_lockstep(runs)
        if exc is None:
            assert isinstance(failed, DivergenceError) and failed.step == 3
        else:
            assert failed is exc
        assert drawn == {4: 9}
        for run, (params, visits) in ((runs[0], first), (runs[2], last)):
            want, want_visits = self._solo(run)
            assert visits == want_visits
            assert params.content_hash() == want.content_hash()

    def test_zero_epoch_run_gives_a_copy_and_no_visits(self):
        run = self._run(5, NOISY)
        idle = run._replace(cfg=TrainConfig(lr=0.05, epochs=0, seed=4, **NOISY))
        (params, visits), (busy, _) = sgd_lockstep([idle, run])
        assert visits == 0 and params.content_hash() == self.theta.content_hash()
        assert not any(np.shares_memory(getattr(params, b), getattr(self.theta, b))
                       for b in BLOCKS)
        assert busy.content_hash() == self._solo(run)[0].content_hash()


class TestLeanBackprop:
    """The in-place forward/backward arithmetic keeps the caller's arrays and
    the bits of the plain expressions."""

    def setup_method(self):
        rng = make_rng(13, 0)
        self.params = tiny_params(13)
        self.x = rng.standard_normal((6, 5))
        self.y = rng.integers(0, 4, 6)
        self.d_feats = rng.standard_normal((6, 3))

    def test_backward_leaves_caller_gradients_untouched(self):
        cache = _forward_cache(self.params, self.x)
        d_logits = make_rng(13, 1).standard_normal((6, 4))
        kept = self.d_feats.copy(), d_logits.copy()
        backward(self.params, cache, d_feats=self.d_feats)
        backward(self.params, cache, d_logits=d_logits, d_feats=self.d_feats)
        assert np.array_equal(self.d_feats, kept[0])
        assert np.array_equal(d_logits, kept[1])

    def test_cross_entropy_matches_plain_expressions(self):
        _, logits = forward(self.params, self.x)
        logits = 40.0 * logits
        loss, d_logits = cross_entropy_grad_logits(logits, self.y)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        assert np.array_equal(log_softmax(logits), logp)
        assert loss == -logp[np.arange(6), self.y].mean()
        want = np.exp(logp)
        want[np.arange(6), self.y] -= 1.0
        assert np.array_equal(d_logits, want / 6)


class TestAccuracy:
    def test_single_correct_sample(self):
        p = tiny_params(5)
        x = make_rng(5, 1).standard_normal((1, 5))
        _, logits = forward(p, x)
        ds = Dataset(x, np.array([int(np.argmax(logits))]), 4)
        assert accuracy(logits, ds) == 1.0

    def test_tie_break_toward_lowest_class(self):
        p = MlpParams(
            W1=np.zeros((3, 4)), b1=np.zeros(4), W2=np.zeros((4, 2)),
            b2=np.zeros(2), Whead=np.zeros((2, 5)), bhead=np.zeros(5),
        )
        ds = Dataset(np.ones((6, 3)), np.zeros(6, dtype=np.int64), 5)
        assert accuracy(forward(p, ds.X)[1], ds) == 1.0

    def test_matches_recount_oracle(self):
        train, test, _, _ = generate_universe(SyntheticSpec(
            ambient_dim=16, num_train_classes=4, per_class_train=15,
            per_class_test=10, downstream_specs=()))
        params = sgd_train(init_params(16, 4, 3), train,
                           TrainConfig(lr=0.1, epochs=5, seed=3))
        _, logits = forward(params, test.X)
        correct = sum(int(np.argmax(logits[i]) == test.y[i]) for i in range(test.n))
        assert accuracy(logits, test) == correct / test.n

    def test_empty_dataset_rejected(self):
        with pytest.raises(DegenerateInputError):
            accuracy(np.empty((0, 4)), Dataset(np.empty((0, 5)), np.empty(0, dtype=int), 4))


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = tiny_params(11)
        ckpt = ModelCheckpoint(params, {"role": "original", "seed": 11,
                                        "config_hash": "abc", "parent_hash": None})
        save_checkpoint(ckpt, tmp_path / "a")
        back = load_checkpoint(tmp_path / "a")
        save_checkpoint(back, tmp_path / "b")
        for name in ("manifest.json", *(f"{b}.ubm1" for b in BLOCKS)):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_round_trip_preserves_values_and_provenance(self, tmp_path):
        params = tiny_params(12)
        save_checkpoint(ModelCheckpoint(params, {"role": "unlearned:GA"}), tmp_path / "c")
        back = load_checkpoint(tmp_path / "c")
        for b in BLOCKS:
            assert np.array_equal(getattr(params, b), getattr(back.params, b))
        assert back.provenance["role"] == "unlearned:GA"

    def test_corrupted_tensor_detected(self, tmp_path):
        save_checkpoint(ModelCheckpoint(tiny_params(13), {}), tmp_path / "d")
        target = tmp_path / "d" / "W1.ubm1"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(ShapeError):
            load_checkpoint(tmp_path / "d")
