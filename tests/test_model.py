"""Forward/backward correctness, SGD contracts, and checkpointing."""

import sys
import threading
import time

import numpy as np
import pytest

from unlbench.data import Dataset, SyntheticSpec, generate_universe
from unlbench.errors import DegenerateInputError, DivergenceError, LabelError, ShapeError
from unlbench.model import (
    BLOCKS,
    MlpParams,
    ModelCheckpoint,
    NOISE_CHUNK_STEPS,
    NoiseFeed,
    STREAM_NOISE,
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
    # Runs that cross two noise-chunk boundaries, and one that ends on one.
    LONG_RUNS = (2 * NOISE_CHUNK_STEPS + 5, 2 * NOISE_CHUNK_STEPS)

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

    def _flat(self, cfg, sign, mask, n_steps, length="exact"):
        """The run through sgd_loop, told it lasts `length` steps (n_steps
        by default); returns (params, state, noise), where noise is the
        vector the feed hands out after the last step (None without
        noise)."""
        seen = {}

        def steps(work, state):
            seen["state"] = state
            for i in range(n_steps):
                grad, loss = cross_entropy_gradient(work, *self._batch(i))
                yield grad, loss, 8, sign
            seen["noise"] = None if state.noise is None else state.noise.next().copy()
        params, visits = sgd_loop(self.theta, cfg, steps, mask=mask,
                                  n_steps=n_steps if length == "exact" else length)
        assert visits == 8 * n_steps
        return params, seen["state"], seen["noise"]

    def _check_against_oracle(self, cfg, sign, masked, n_steps, length="exact"):
        want, want_noise = self._oracle(cfg, sign, self.block_mask if masked else None,
                                        n_steps)
        got, state, next_noise = self._flat(cfg, sign, self.mask if masked else None,
                                            n_steps, length)
        assert state.step == n_steps
        for b in BLOCKS:
            assert np.array_equal(getattr(got, b), getattr(want, b)), b
        if want_noise is None:
            assert state.noise is None and next_noise is None
        else:
            # The feed stands where the oracle's stream stands: its next
            # vector is sigma times the stream's next n normals.
            assert np.array_equal(next_noise, cfg.grad_noise_sigma
                                  * want_noise.standard_normal(state.params.size))

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

    # The length sgd_loop is told: the run's own (drawn ahead), none (drawn
    # inline), one past a chunk (ahead, then inline), or too long (the
    # helper's fills past the last step are dropped).
    @pytest.mark.parametrize("length", ["exact", None, NOISE_CHUNK_STEPS + 1, 1000])
    @pytest.mark.parametrize("n_steps", LONG_RUNS)
    @pytest.mark.parametrize("sign, knobs, masked", [
        (1.0, {"grad_noise_sigma": 0.05}, False),
        (-1.0, {"nesterov": True, "grad_noise_sigma": 0.03, "momentum": 0.7}, True),
        (1.0, {"freeze_encoder": True, "grad_noise_sigma": 0.02}, True),
    ])
    def test_long_runs_match_oracle_across_noise_chunks(self, sign, knobs, masked, n_steps,
                                                        length):
        cfg = TrainConfig(lr=0.002, epochs=1, seed=5, **knobs)
        self._check_against_oracle(cfg, sign, masked, n_steps, length)

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


def noise_threads():
    return [t for t in threading.enumerate() if t.name.startswith("unlbench-noise")]


class _SlowRng:
    """A noise generator whose draws take 50 ms each and give zeros."""

    def standard_normal(self, out):
        time.sleep(0.05)
        out[...] = 0.0


class _FailingRng:
    """A noise generator whose draws raise after `good` successful ones."""

    def __init__(self, good=0):
        self.good = good

    def standard_normal(self, out):
        if self.good == 0:
            raise RuntimeError("stub draw failed")
        self.good -= 1
        out[...] = 0.0


class TestNoiseFeedThreads:
    """A noisy run's helper thread never outlives the run, and its failures
    surface in the caller."""

    def setup_method(self):
        rng = make_rng(14, 0)
        self.theta = tiny_params(14)
        self.x = rng.standard_normal((16, 5))
        self.y = rng.integers(0, 4, 16)
        assert noise_threads() == []

    def teardown_method(self):
        assert noise_threads() == []

    def _steps(self, n_steps, fail_at=None, exc=None, seen=None):
        def steps(work, state):
            for i in range(n_steps):
                if seen is not None:
                    seen.append(len(noise_threads()))
                grad, loss = cross_entropy_gradient(work, self.x, self.y)
                if i == fail_at:
                    if exc is None:
                        loss = float("nan")
                    else:
                        raise exc
                yield grad, loss, 16, 1.0
        return steps

    # Only a noisy run known to last more than one chunk starts a helper,
    # on its first update.
    @pytest.mark.parametrize("sigma, n_steps, length, threads", [
        (0.0, NOISE_CHUNK_STEPS + 3, NOISE_CHUNK_STEPS + 3, 0),
        (0.1, NOISE_CHUNK_STEPS + 3, NOISE_CHUNK_STEPS + 3, 1),
        (0.1, NOISE_CHUNK_STEPS, NOISE_CHUNK_STEPS, 0),
        (0.1, NOISE_CHUNK_STEPS + 3, None, 0),
    ])
    def test_run_ending_normally(self, sigma, n_steps, length, threads):
        seen = []
        cfg = TrainConfig(lr=0.05, epochs=1, seed=2, grad_noise_sigma=sigma)
        sgd_loop(self.theta, cfg, self._steps(n_steps, seen=seen), n_steps=length)
        assert seen[0] == 0 and set(seen[1:]) == {threads}

    @pytest.mark.parametrize("steps", [NOISE_CHUNK_STEPS + 1, 2 * NOISE_CHUNK_STEPS,
                                       2 * NOISE_CHUNK_STEPS + 5])
    def test_helper_draws_nothing_past_the_run(self, steps):
        rng, oracle = make_rng(9, STREAM_NOISE), make_rng(9, STREAM_NOISE)
        feed = NoiseFeed(rng, 11, 0.5, steps)
        try:
            rows = [feed.next().copy() for _ in range(steps)]
        finally:
            feed.close()
        assert np.array_equal(np.array(rows), 0.5 * oracle.standard_normal((steps, 11)))
        # The generator stands right after the run's last row.
        assert np.array_equal(rng.standard_normal(3), oracle.standard_normal(3))

    def test_run_raising_mid_fill_joins_the_helper(self, monkeypatch):
        # The slow generator keeps the helper inside its third fill when
        # the steps raise at step 70; sgd_loop returns only after the join.
        import unlbench.model as model

        def rng_for(seed, stream):
            return _SlowRng() if stream == STREAM_NOISE else make_rng(seed, stream)
        monkeypatch.setattr(model, "make_rng", rng_for)
        cfg = TrainConfig(lr=0.05, epochs=1, seed=2, grad_noise_sigma=0.1)
        with pytest.raises(LabelError):
            sgd_loop(self.theta, cfg, self._steps(200, fail_at=70, exc=LabelError("bad")),
                     n_steps=200)
        assert noise_threads() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_mid_run(self):
        cfg = TrainConfig(lr=0.05, epochs=1, seed=2, grad_noise_sigma=0.1)
        with pytest.raises(DivergenceError) as err:
            sgd_loop(self.theta, cfg, self._steps(200, fail_at=70), n_steps=200)
        assert err.value.step == 70

    def test_steps_generator_raising_mid_run(self):
        cfg = TrainConfig(lr=0.05, epochs=1, seed=2, grad_noise_sigma=0.1)
        with pytest.raises(LabelError):
            sgd_loop(self.theta, cfg, self._steps(200, fail_at=70, exc=LabelError("bad")),
                     n_steps=200)

    @pytest.mark.parametrize("good", [0, 1])
    def test_helper_failure_raises_in_caller(self, monkeypatch, good):
        import unlbench.model as model

        def rng_for(seed, stream):
            return _FailingRng(good) if stream == STREAM_NOISE else make_rng(seed, stream)
        monkeypatch.setattr(model, "make_rng", rng_for)
        cfg = TrainConfig(lr=0.05, epochs=1, seed=2, grad_noise_sigma=0.1)
        outcome = {}

        def run():
            try:
                sgd_loop(self.theta, cfg, self._steps(3 * NOISE_CHUNK_STEPS),
                         n_steps=3 * NOISE_CHUNK_STEPS)
            except RuntimeError as exc:
                outcome["exc"] = exc
        # On a daemon thread, so that a hang fails the test instead of the suite.
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=20)
        assert not worker.is_alive()
        assert str(outcome["exc"]) == "stub draw failed"

    def test_concurrent_runs_under_fast_switching_keep_their_bits(self):
        # Four noisy runs at once (eight threads on fewer cores), switching
        # threads every microsecond: a buffer handed back too early or a
        # row read twice would change some run's bits from those of the
        # run drawn inline.
        cfg = TrainConfig(lr=0.01, epochs=1, seed=2, grad_noise_sigma=0.1)
        n_steps = 3 * NOISE_CHUNK_STEPS + 1
        steps = self._steps(n_steps)
        want = sgd_loop(self.theta, cfg, steps)[0].content_hash()
        got = []
        workers = [threading.Thread(target=lambda: got.append(
            sgd_loop(self.theta, cfg, steps, n_steps=n_steps)[0].content_hash()), daemon=True)
            for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == [want] * 4


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
