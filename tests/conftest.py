import numpy as np
import pytest

from baryrom import orthonormalize, pipeline


def random_full_rank(rng, n, q):
    return rng.standard_normal((n, q))


def close_family(rng, n, q, count, spread=0.15, scale=1.0):
    """Full-rank matrices spanning nearby subspaces, a stand-in for a
    smoothly parametrized basis family."""
    seed = rng.standard_normal((n, q))
    return [scale * orthonormalize(seed + spread * rng.standard_normal((n, q)))
            for _ in range(count)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    """Default Burgers study: 4 trained viscosities, 3 untrained targets."""
    out = tmp_path_factory.mktemp("study")
    pipeline.run_generate(pipeline.StudyConfig(), out)
    pipeline.run_offline(out)
    return pipeline.load_study(out)
