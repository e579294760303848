"""Unit and property tests for the autograd engine."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models.tensor import Tensor, is_grad_enabled, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued fn at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(op, x: np.ndarray, atol: float = 1e-6) -> None:
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    out.sum().backward() if out.data.ndim else out.backward()
    expected = numeric_grad(lambda a: float(op(Tensor(a)).data.sum()), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(42)


class TestElementwiseGrads:
    @pytest.mark.parametrize("op,domain", [
        (lambda t: t.exp(), (-2, 2)),
        (lambda t: t.log(), (0.1, 3)),
        (lambda t: t.sqrt(), (0.1, 3)),
        (lambda t: t.tanh(), (-2, 2)),
        (lambda t: t.sigmoid(), (-2, 2)),
        (lambda t: t.relu(), (0.05, 2)),  # avoid the kink at 0
        (lambda t: t.gelu(), (-2, 2)),
        (lambda t: t.silu(), (-2, 2)),
        (lambda t: t * t, (-2, 2)),
        (lambda t: t ** 3, (-2, 2)),
        (lambda t: t ** -0.5, (0.2, 2)),
        (lambda t: 1.0 / t, (0.3, 2)),
        (lambda t: -t, (-2, 2)),
    ])
    def test_gradcheck(self, op, domain):
        x = RNG.uniform(*domain, size=(3, 4))
        check_grad(op, x)

    def test_softmax_grad(self):
        check_grad(lambda t: (t.softmax(axis=-1) * Tensor(np.arange(12.).reshape(3, 4))).sum(),
                   RNG.normal(size=(3, 4)))

    def test_log_softmax_grad(self):
        w = Tensor(RNG.normal(size=(3, 4)))
        check_grad(lambda t: (t.log_softmax(axis=-1) * w).sum(),
                   RNG.normal(size=(3, 4)))

    def test_max_grad(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: t.max(axis=-1).sum(), x)


class TestBinaryGrads:
    def test_add_broadcast(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_broadcast_grad(self):
        a = RNG.normal(size=(2, 3))
        bval = RNG.normal(size=(3,))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(bval, requires_grad=True)
        (ta * tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.broadcast_to(bval, a.shape))
        np.testing.assert_allclose(tb.grad, a.sum(axis=0))

    def test_div_grads(self):
        a = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.5])
        np.testing.assert_allclose(b.grad, [-2.0, -1.0])

    def test_matmul_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 5))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 5)) @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 5)))

    def test_matmul_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 4, 5))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        g = np.ones((2, 3, 5))
        np.testing.assert_allclose(ta.grad, g @ np.swapaxes(b, -1, -2))
        np.testing.assert_allclose(tb.grad, np.swapaxes(a, -1, -2) @ g)

    def test_matmul_broadcast_weight(self):
        """(B, S, H) @ (H, H) — the Linear-layer pattern."""
        x = RNG.normal(size=(2, 3, 4))
        w = RNG.normal(size=(4, 4))
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        (tx @ tw).sum().backward()
        assert tw.grad.shape == w.shape
        np.testing.assert_allclose(
            tw.grad, x.reshape(-1, 4).T @ np.ones((6, 4)))


class TestShapeOps:
    def test_reshape_transpose_roundtrip_grad(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        y = x.reshape(6, 4).transpose().reshape(4, 6)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_getitem_grad(self):
        x = Tensor(RNG.normal(size=(5, 4)), requires_grad=True)
        x[1:3].sum().backward()
        expected = np.zeros((5, 4))
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_concatenate_grad(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))

    def test_swapaxes_grad(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        x.swapaxes(1, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_embedding_lookup_accumulates_duplicates(self):
        w = Tensor(RNG.normal(size=(10, 4)), requires_grad=True)
        idx = np.array([1, 1, 3])
        w.embedding_lookup(idx).sum().backward()
        expected = np.zeros((10, 4))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_allclose(w.grad, expected)


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        x.sum(axis=0, keepdims=True).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_value_and_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        m = x.mean()
        assert m.item() == pytest.approx(2.5)
        m.backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6))

    def test_var_matches_numpy(self):
        x = RNG.normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(x).var(axis=-1).data,
                                   x.var(axis=-1), atol=1e-12)


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            x = Tensor(np.ones(3), requires_grad=True)
            y = x * 2
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_detach_severs_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.detach() * 2
        assert not y.requires_grad

    def test_backward_diamond(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3
        b = x * 5
        (a * b).backward()  # d(15x^2)/dx = 30x = 60
        np.testing.assert_allclose(x.grad, [60.0])

    def test_masked_fill(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        y = x.masked_fill(mask, -99.0)
        np.testing.assert_allclose(y.data, [[-99, 1], [1, -99]])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, (~mask).astype(float))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                               min_side=1, max_side=5),
                  elements=st.floats(-10, 10)))
def test_softmax_rows_sum_to_one(x):
    s = Tensor(x).softmax(axis=-1).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)
    assert (s >= 0).all()


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-5, 5)),
       hnp.arrays(np.float64, (3, 4), elements=st.floats(-5, 5)))
def test_add_commutes_and_grads_match(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta + tb).sum().backward()
    np.testing.assert_allclose(ta.grad, tb.grad)
    np.testing.assert_allclose((ta + tb).data, (tb + ta).data)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-3, 3)))
def test_logsoftmax_equals_log_of_softmax(x):
    t = Tensor(x)
    np.testing.assert_allclose(t.log_softmax(axis=-1).data,
                               np.log(t.softmax(axis=-1).data + 1e-300),
                               atol=1e-8)


class TestGraphLifetime:
    """A finished autograd graph is freed by reference counting alone.

    A backward closure that captured its own result tensor made every
    node a reference cycle, so whole graphs lived on until the cyclic
    collector's oldest generation ran; a long training loop then held
    many step graphs at once.
    """

    @staticmethod
    def _garbage_after(step) -> int:
        gc.collect()
        gc.disable()
        try:
            step()
            return gc.collect()
        finally:
            gc.enable()

    def test_training_step_leaves_no_cycles(self):
        from repro.models import GPTModel, cross_entropy, preset
        from repro.training import Adam

        model = GPTModel(preset("tiny-llama"), seed=0)
        opt = Adam(model.parameters(), lr=1e-3)
        tokens = np.random.default_rng(0).integers(0, 512, size=(2, 17))

        def step():
            loss = cross_entropy(model(tokens[:, :-1]), tokens[:, 1:])
            opt.zero_grad()
            loss.backward()
            opt.step()

        assert self._garbage_after(step) == 0

    def test_gnn_epoch_leaves_no_cycles(self):
        from repro.matsci import GraphEncoder, build_gnn, generate_dataset
        from repro.matsci.gnn import train_regressor

        encoder = GraphEncoder()
        batch = encoder.encode(generate_dataset(24, seed=0).materials)
        model = build_gnn("mfcgnn", node_dim=encoder.node_dim,
                          angle_dim=encoder.n_angle_bins, seed=0)
        assert self._garbage_after(
            lambda: train_regressor(model, batch, epochs=1)) == 0
