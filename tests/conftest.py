import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def eval_orthonormal(chain, n: int, x):
    """psi_n at x: the last row of node_table(chain, n, x, "orthonormal")."""
    from polyosc.polyrec import node_table

    out = np.asarray(node_table(chain, n, x, "orthonormal")[-1], dtype=float)
    return out if out.ndim else float(out)


def recurrence_chain(p: float, N: int):
    """The Krawtchouk chain with a diagonal, whose orthonormal family is kt_n:
    a_n = p(N-n) + n(1-p), b_n = -sqrt(p(1-p)(n+1)(N-n)) < 0, b_N = 0."""
    from polyosc import RecurrenceCoefficients

    n = np.arange(N + 1, dtype=float)
    a = p * (N - n) + n * (1.0 - p)
    b = -np.sqrt(p * (1.0 - p) * (n + 1.0) * (N - n))
    return RecurrenceCoefficients(b=b, a=a, label="krawtchouk(p=%g,N=%d)" % (p, N))


def random_truncated_chain(rng, max_levels=8, lo=0.3, hi=2.0):
    """A chain b_0..b_{N-1} > 0 with b_N = 0: an (N+1)-level oscillator."""
    from polyosc import RecurrenceCoefficients

    n = int(rng.integers(1, max_levels + 1))
    b = np.zeros(n + 1)
    b[:n] = rng.uniform(lo, hi, n)
    return RecurrenceCoefficients(b=b)
