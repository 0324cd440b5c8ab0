"""Shared channel generators and acceptance reporting for the test suite."""

import numpy as np

from skagree import DiscreteBroadcastChannel

# one human-readable PASS/FAIL line per acceptance criterion, echoed in the
# terminal summary so the verdicts are visible even when capture is on
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_binary_channel(rng) -> DiscreteBroadcastChannel:
    """Arbitrary binary DMBC: independent random rows of p(x,y,z|s)."""
    tr = rng.dirichlet(np.ones(8), size=2).reshape(2, 2, 2, 2)
    return DiscreteBroadcastChannel(tr, np.zeros(2))


def random_channel(rng, sizes, zeros):
    """Dirichlet rows of p(x,y,z|s); with ``zeros`` about a third of the
    entries are 0 (each row keeps at least one)."""
    s_size, rest = sizes[0], int(np.prod(sizes[1:]))
    tr = rng.dirichlet(np.ones(rest), size=s_size)
    if zeros:
        keep = rng.random(tr.shape) >= 0.35
        keep[np.arange(s_size), rng.integers(rest, size=s_size)] = True
        tr = tr * keep
        tr = tr / tr.sum(axis=1, keepdims=True)
    return DiscreteBroadcastChannel(tr.reshape(sizes), np.zeros(s_size))


def random_degraded_binary_channel(rng) -> DiscreteBroadcastChannel:
    """Degraded binary DMBC: draw p(x,y|s) then compose with a random p(z|y)."""
    pxy = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
    pzy = rng.dirichlet(np.ones(2), size=2)  # (y, z)
    tr = pxy[:, :, :, None] * pzy[None, None, :, :]
    return DiscreteBroadcastChannel(tr, np.zeros(2))


def z_copies_y_channel(rng) -> DiscreteBroadcastChannel:
    """Channel where Z is a deterministic copy of Y."""
    pxy = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
    tr = np.zeros((2, 2, 2, 2))
    for y in range(2):
        tr[:, :, y, y] = pxy[:, :, y]
    return DiscreteBroadcastChannel(tr, np.zeros(2))


def z_constant_channel(rng) -> DiscreteBroadcastChannel:
    """Channel whose eavesdropper output is constant (blind Eve)."""
    pxy = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
    tr = np.zeros((2, 2, 2, 2))
    tr[:, :, :, 0] = pxy
    return DiscreteBroadcastChannel(tr, np.zeros(2))
