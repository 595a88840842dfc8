"""Central finite-difference helpers shared by the gradient tests."""

import numpy as np


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f() wrt array x, in place."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def check_layer_gradients(layer, x, rng, rtol=1e-4, atol=1e-8):
    """Compare analytic train-mode layer gradients against finite differences.

    Uses a fixed random projection of the output as the scalar loss, so
    the upstream gradient is exactly that projection.
    """
    y0, _ = layer.forward(x, train=True)
    w = rng.normal(size=y0.shape)

    def loss():
        y, _ = layer.forward(x, train=True)
        return float(np.sum(w * y))

    out, cache = layer.forward(x, train=True)
    dx, grads = layer.backward(w, cache)

    np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=rtol, atol=atol)
    for name, param in layer.params.items():
        np.testing.assert_allclose(
            grads[name], numeric_grad(loss, param), rtol=rtol, atol=atol,
            err_msg=f"parameter {name}",
        )


def check_loss_gradient(loss_fn, pred, rtol=1e-6, atol=1e-9, h=1e-6):
    """Compare a loss's analytic gradient against finite differences."""
    _, analytic = loss_fn(pred)

    def value():
        return loss_fn(pred)[0]

    np.testing.assert_allclose(analytic, numeric_grad(value, pred, h=h), rtol=rtol, atol=atol)
