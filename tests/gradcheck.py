"""Central finite differences against reverse-mode gradients."""

import numpy as np


def relative_gradient_error(params, forward, eps=1e-5, max_checks=None, rng=None):
    """Max relative error between reverse-mode and central finite differences.

    `forward` rebuilds the scalar loss from scratch on each call so parameter
    perturbations flow through.  Returns the worst relative error over all
    checked entries of all params.
    """
    for p in params:
        p.zero_grad()
    loss = forward()
    loss.backward()
    analytic = {id(p): (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for p in params}
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        idx = np.arange(flat.size)
        if max_checks is not None and flat.size > max_checks:
            idx = (rng or np.random.default_rng(0)).choice(flat.size, max_checks,
                                                           replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + eps
            up = forward().item()
            flat[i] = old - eps
            down = forward().item()
            flat[i] = old
            numeric = (up - down) / (2.0 * eps)
            exact = analytic[id(p)].reshape(-1)[i]
            scale = max(abs(numeric), abs(exact), 1e-6)
            worst = max(worst, abs(numeric - exact) / scale)
    return worst


def directional_gradient_error(params, forward, eps=1e-6, seed=0):
    """Relative error of the reverse-mode derivative along one seeded random
    direction u, a unit vector over every entry of `params`, against the
    central difference (f(p + eps u) - f(p - eps u)) / 2 eps.

    Run it in float64.  One number sums every entry's share, so unlike
    `relative_gradient_error` it does not depend on where small entries
    land.  `forward` rebuilds the scalar loss as there.
    """
    for p in params:
        p.zero_grad()
    forward().backward()
    rng = np.random.default_rng(seed)
    u = [rng.normal(size=p.data.shape) for p in params]
    norm = np.sqrt(sum(np.square(d).sum() for d in u))
    u = [d / norm for d in u]
    exact = sum(float((p.grad * d).sum()) for p, d in zip(params, u) if p.grad is not None)
    originals = [p.data.copy() for p in params]

    def along(step):
        for p, old, d in zip(params, originals, u):
            p.data[...] = old + step * d
        return forward().item()

    try:
        numeric = (along(eps) - along(-eps)) / (2.0 * eps)
    finally:
        for p, old in zip(params, originals):
            p.data[...] = old
    scale = max(abs(numeric), abs(exact))
    return abs(numeric - exact) / scale if scale else 0.0
