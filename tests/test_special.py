"""The pure-Python log-gamma and digamma against `scipy.special`, bit for
bit: on every integer argument the posteriors can reach in a long run, and
on log-uniform reals over each branch of the two routines."""

import numpy as np
import pytest
from scipy import special

from smdpsynth._special import gammaln, psi

# one range per branch: recurrence below 1, the rational approximations
# on [1, 2) and [2, 13), the Stirling series with its two corrections, and
# the bare Stirling term above 1e8
RANGES = [(1e-3, 1.0), (1.0, 2.0), (2.0, 13.0), (13.0, 1e3), (1e3, 1e8),
          (1e8, 1e18)]


def assert_bitwise(xs):
    xs = np.asarray(xs, dtype=float)
    for port, ref in ((gammaln, special.gammaln), (psi, special.psi)):
        want = [v.hex() for v in ref(xs).tolist()]
        got = [port(x).hex() for x in xs.tolist()]
        bad = [x for x, g, w in zip(xs.tolist(), got, want) if g != w]
        assert bad == [], f"{port.__name__} differs at {bad[:5]}"


def test_integers_match_scipy_bitwise():
    assert_bitwise(np.arange(1, 200_001))


@pytest.mark.parametrize("lo,hi", RANGES)
def test_log_uniform_reals_match_scipy_bitwise(lo, hi):
    rng = np.random.default_rng([41, RANGES.index((lo, hi))])
    assert_bitwise(np.exp(rng.uniform(np.log(lo), np.log(hi), 20_000)))


def test_branch_edges_match_scipy_bitwise():
    """The integer shortcut of psi ends at 10; lgam switches at 13, 1e3 and
    1e8 and overflows above 2.556348e305."""
    edges = [2.0, 3.0, 10.0, 13.0, 1e3, 1e8, 1e17, 2.556348e305]
    xs = [x for e in edges
          for x in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
    assert_bitwise(xs + [0.5, 1.5, 2.5, 9.5, 1e-300, 1.7e308])
