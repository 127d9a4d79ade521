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
