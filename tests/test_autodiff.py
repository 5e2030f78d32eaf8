import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furcasep import autodiff as ad
from furcasep.autodiff import Node, ParamStore, backward, constant, grad_check, parameter


def finite_diff_check(build, shapes, seed, epsilon=1e-6, tol=1e-6):
    """Generic check: analytic gradients of mean(build(nodes)) vs central differences."""
    rng = np.random.default_rng(seed)
    params = ParamStore()
    for i, shape in enumerate(shapes):
        params.add(f"p{i}", rng.normal(size=shape))

    def f(store):
        nodes = [store[f"p{i}"] for i in range(len(shapes))]
        out = build(*nodes)
        return out if out.value.shape == () else ad.mean(out)

    return grad_check(f, params, epsilon=epsilon)


PRIMITIVE_CASES = [
    ("add", lambda a, b: ad.add(a, b), [(3, 4), (3, 4)]),
    ("sub", lambda a, b: ad.sub(a, b), [(3, 4), (3, 4)]),
    ("mul", lambda a, b: ad.mul(a, b), [(5,), (5,)]),
    ("affine", lambda a, b, c: ad.affine(a, b, c), [(3, 4), (4, 2), (2,)]),
    ("sigmoid", lambda a: ad.sigmoid(a), [(7,)]),
    ("mean", lambda a: ad.mean(a), [(4, 3)]),
    ("dot", lambda a, b: ad.dot(a, b), [(9,), (9,)]),
    ("narrow_rows", lambda a: ad.narrow(a, 0, 1, 3), [(5, 4)]),
    ("narrow_cols", lambda a: ad.narrow(a, 1, 0, 2), [(5, 4)]),
    ("concat_rows", lambda a, b: ad.concat([a, b], axis=0), [(2, 3), (4, 3)]),
    ("concat_cols", lambda a, b: ad.concat([a, b], axis=1), [(3, 2), (3, 5)]),
    ("scale", lambda a, s: ad.scale(a, s), [(4, 2), ()]),
    ("add_scalar", lambda a: ad.add_scalar(a, 1.7), [(6,)]),
    ("mul_scalar", lambda a: ad.mul_scalar(a, -2.5), [(6,)]),
    ("gather_strided", lambda a: ad.gather_rows(a, 1, 3), [(7, 3)]),
    ("gather_all", lambda a: ad.gather_rows(a, 0, 1), [(4, 3)]),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,build,shapes", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_finite_differences(self, name, build, shapes, seed):
        assert finite_diff_check(build, shapes, seed) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_relu_gradient_off_kink(self, seed):
        # keep samples away from the non-differentiable point at 0
        rng = np.random.default_rng(seed)
        params = ParamStore()
        values = rng.normal(size=12)
        values[np.abs(values) < 0.1] += 0.2
        params.add("x", values)
        err = grad_check(lambda p: ad.mean(ad.relu(p["x"])), params)
        assert err < 1e-4

    def test_relu_mask_matches_input_sign_bit_for_bit(self):
        # the rule masks by its output; y > 0 must equal a > 0 on every input,
        # the signed zeros, a subnormal, the infinities and NaN included
        a = parameter(np.array([-1.0, -0.0, 0.0, 5e-324, 1.0, np.inf, -np.inf, np.nan]))
        g = np.array([0.5, -1.5, 2.0, -3.0, 4.0, -5.0, 6.0, -7.0])
        with np.errstate(invalid="ignore"):
            backward(ad.dot(ad.relu(a), constant(g)))
        assert a.grad.tobytes() == (g * (a.value > 0)).tobytes()

    def test_log10_gradient(self):
        params = ParamStore()
        params.add("x", np.array([0.5, 1.0, 3.0, 10.0]))
        err = grad_check(lambda p: ad.mean(ad.log10(p["x"])), params)
        assert err < 1e-4


class TestGatherRows:
    def test_output_is_a_view_of_the_strided_rows(self):
        a = constant(np.arange(21.0).reshape(7, 3))
        out = ad.gather_rows(a, 1, 3)
        assert np.shares_memory(out.value, a.value)
        assert np.array_equal(out.value, a.value[[1, 4]])

    def test_backward_fills_only_the_strided_rows(self):
        a = parameter(np.random.default_rng(4).normal(size=(7, 3)))
        backward(ad.mean(ad.gather_rows(a, 2, 2)))  # rows 2, 4, 6
        want = np.zeros((7, 3))
        want[2::2] = 1.0 / 9.0
        assert np.array_equal(a.grad, want)

    def test_fanout_over_interleaved_rows_accumulates(self):
        a = parameter(np.random.default_rng(5).normal(size=(6, 2)))
        x = ad.mul_scalar(a, 1.0)  # an interior node, so both gathers add into one transient gradient
        even, odd = ad.gather_rows(x, 0, 2), ad.gather_rows(x, 1, 2)
        backward(ad.add(ad.mean(ad.mul_scalar(even, 2.0)), ad.mean(odd)))
        assert np.array_equal(a.grad[0::2], np.full((3, 2), 2.0 / 6.0))
        assert np.array_equal(a.grad[1::2], np.full((3, 2), 1.0 / 6.0))

    @pytest.mark.parametrize("shape,start,step", [((6,), 0, 1), ((2, 3, 1), 0, 1), ((6, 2), 0, 0),
                                                  ((6, 2), 1, -1), ((6, 2), 6, 1), ((6, 2), -1, 1)])
    def test_bad_input_rejected(self, shape, start, step):
        with pytest.raises(ValueError, match="gather_rows"):
            ad.gather_rows(constant(np.zeros(shape)), start, step)


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        x = parameter(np.zeros(()))
        y = ad.sigmoid(x)
        assert float(y.value) == 0.5
        backward(y)
        assert float(x.grad) == 0.25

    def test_sigmoid_saturates_exactly_without_warning(self):
        x = parameter(np.array([1000.0, -1000.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ad.sigmoid(x)
            backward(ad.mean(y))
        assert y.value.tolist() == [1.0, 0.0]
        assert x.grad.tolist() == [0.0, 0.0]


class TestBackwardSemantics:
    def test_sum_gives_ones(self):
        w = parameter(np.random.default_rng(1).normal(size=(3, 2)))
        backward(ad.mul_scalar(ad.mean(w), 6.0))  # the sum, as size * mean
        assert np.array_equal(w.grad, np.ones((3, 2)))

    def test_quadratic_gives_two_w(self):
        w = parameter(np.random.default_rng(2).normal(size=5))
        backward(ad.dot(w, w))
        assert np.allclose(w.grad, 2 * w.value, atol=1e-14)

    def test_fanout_accumulates(self):
        x1 = parameter(np.array([1.5, -2.0]))
        backward(ad.mean(ad.add(x1, x1)))
        x2 = parameter(np.array([1.5, -2.0]))
        backward(ad.mean(ad.mul_scalar(x2, 2.0)))
        assert np.array_equal(x1.grad, x2.grad)

    def test_repeated_backward_accumulates(self):
        w = parameter(np.ones(3))
        loss = ad.mean(w)
        backward(loss)
        first = w.grad.copy()
        backward(loss)
        assert np.array_equal(w.grad, 2 * first)

    def test_only_parameters_keep_gradients(self):
        rng = np.random.default_rng(3)
        a = parameter(rng.normal(size=(4, 4)))
        b = parameter(rng.normal(size=(4, 4)))
        c = parameter(rng.normal(size=4))
        x = constant(rng.normal(size=(4, 4)))
        hidden = ad.affine(x, a, c)
        total = ad.add(a, b)
        gate = ad.sigmoid(total)
        joined = ad.concat([hidden, gate], axis=1)
        left, right = ad.narrow(joined, 1, 0, 4), ad.narrow(joined, 1, 2, 6)
        product = ad.mul(left, right)
        loss = ad.mean(product)
        interior = [hidden, total, gate, joined, left, right, product, loss]
        backward(loss)
        assert all(node.grad is None for node in interior)
        assert x.grad is None
        assert all(p.grad is not None and p.grad.shape == p.value.shape for p in (a, b, c))
        first = [p.grad.copy() for p in (a, b, c)]
        backward(loss)  # the rules survive the release: a second pass adds once more
        assert all(node.grad is None for node in interior)
        for p, g in zip((a, b, c), first):
            assert np.array_equal(p.grad, 2 * g)

    def test_non_scalar_loss_rejected(self):
        w = parameter(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            backward(ad.mul_scalar(w, 2.0))

    def test_non_ancestors_untouched(self):
        w = parameter(np.ones(3))
        other = parameter(np.ones(3))
        backward(ad.mean(w))
        assert w.grad is not None
        assert other.grad is None

    def test_constants_do_not_materialize_grads(self):
        c = constant(np.ones(3))
        w = parameter(np.ones(3))
        backward(ad.mean(ad.mul(c, w)))
        assert c.grad is None
        assert np.array_equal(w.grad, np.full(3, 1.0 / 3.0))

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            params = ParamStore()
            a = params.add("a", rng.normal(size=(4, 4)))
            b = params.add("b", rng.normal(size=(4, 4)))
            c = params.add("c", rng.normal(size=4))
            h = ad.concat([ad.affine(a, b, c), ad.sigmoid(ad.add(a, b))], axis=1)
            loss = ad.mean(ad.mul(ad.narrow(h, 1, 0, 4), ad.narrow(h, 1, 2, 6)))
            backward(loss)
            return float(loss.value), a.grad.copy(), b.grad.copy()

        v1, ga1, gb1 = run()
        v2, ga2, gb2 = run()
        assert v1 == v2
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)

    def test_shape_errors_carry_both_shapes(self):
        a = constant(np.zeros((2, 3)))
        b = constant(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.add(a, b)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.mul(a, b)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.affine(a, b, constant(np.zeros(5)))

    def test_check_finite_mode(self):
        ad.set_check_finite(True)
        try:
            with pytest.raises(FloatingPointError):
                ad.log10(constant(np.array([0.0])))
        finally:
            ad.set_check_finite(False)


class TestNoGrad:
    def test_nodes_record_no_graph(self):
        w = parameter(np.ones(3))
        with ad.no_grad():
            out = ad.mean(ad.mul(w, w))
        assert out.parents == () and out._backward is None
        assert not out.needs_grad
        assert float(out.value) == 1.0

    def test_state_restored_after_exception_and_nesting(self):
        assert ad.grad_enabled()
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                assert not ad.grad_enabled()
                raise RuntimeError("inside")
        assert ad.grad_enabled()
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.grad_enabled()
            assert not ad.grad_enabled()
        assert ad.grad_enabled()

    def test_backward_on_no_grad_loss_rejected(self):
        w = parameter(np.ones(3))
        with ad.no_grad():
            loss = ad.mean(w)
        with pytest.raises(ValueError, match="no_grad"):
            backward(loss)
        assert w.grad is None

    def test_scalar_leaf_loss_still_accepted(self):
        w = parameter(np.array(2.0))
        backward(w)
        assert float(w.grad) == 1.0

    def test_no_grad_value_feeds_grad_mode_as_constant(self):
        w = parameter(np.array([1.0, -2.0]))
        with ad.no_grad():
            frozen = ad.mul_scalar(w, 3.0)
        backward(ad.dot(frozen, w))
        assert np.array_equal(w.grad, frozen.value)
        assert frozen.grad is None


class TestParamStore:
    def test_creation_order_preserved(self):
        store = ParamStore()
        for name in ("z", "a", "m"):
            store.add(name, np.zeros(2))
        assert store.names() == ["z", "a", "m"]

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.zeros(2))

    def test_flat_round_trip(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        store.add("a", rng.normal(size=(2, 3)))
        store.add("b", rng.normal(size=4))
        vec = store.flat_values()
        assert vec.size == store.total_size == 10
        store.load_flat_values(np.zeros(10))
        assert np.all(store["a"].value == 0)
        store.load_flat_values(vec)
        assert np.array_equal(store.flat_values(), vec)

    def test_zero_grad(self):
        store = ParamStore()
        w = store.add("w", np.ones(3))
        backward(ad.mean(w))
        assert w.grad is not None
        store.zero_grad()
        assert w.grad is None


class TestGradCheck:
    def test_sum_of_squares_tight(self):
        params = ParamStore()
        params.add("w", np.random.default_rng(4).normal(size=8))
        err = grad_check(lambda p: ad.mean(ad.mul(p["w"], p["w"])), params)
        assert err < 1e-7

    def test_sampled_coordinates_deterministic(self):
        params = ParamStore()
        params.add("w", np.random.default_rng(5).normal(size=100))

        def f(p):
            return ad.mean(ad.mul(p["w"], p["w"]))

        e1 = grad_check(f, params, coords_per_param=10, seed=3)
        e2 = grad_check(f, params, coords_per_param=10, seed=3)
        assert e1 == e2 < 1e-7


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_composed_graph_gradients(seed):
    rng = np.random.default_rng(seed)
    params = ParamStore()
    params.add("a", rng.normal(size=(3, 4)))
    params.add("b", rng.normal(size=(4, 3)))
    params.add("c", rng.normal(size=3))

    def f(p):
        h = ad.sigmoid(ad.affine(p["a"], p["b"], p["c"]))
        h = ad.concat([h, ad.narrow(p["a"], 1, 1, 4)], axis=0)  # [6 x 3]
        h = ad.mul(h, ad.sigmoid(h))
        return ad.mean(ad.narrow(h, 0, 1, 5))

    assert grad_check(f, params) < 1e-4
