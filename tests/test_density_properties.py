"""Property tests for the exact density checks (skipped without hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import density  # noqa: E402
from test_density import SUBCUBE_GAMMAS, _violation_by_definition, subcube  # noqa: E402


def make_set(kind, seed, f, extra):
    """(X, coords) of one kind, on f coordinates among f + extra bits."""
    rng = np.random.default_rng(seed)
    nbits = f + extra
    coords = tuple(int(c) for c in rng.choice(nbits, size=f, replace=False))
    if kind == "random":
        size = int(rng.integers(1, (1 << nbits) + 1))
        return rng.choice(1 << nbits, size=size, replace=False), coords
    if kind == "dense":  # most of the cube, which counting can certify dense
        keep = rng.random(1 << nbits) < rng.uniform(0.75, 1)
        keep[0] = True
        return rng.permutation(np.flatnonzero(keep)), coords
    X = subcube(rng, coords, nbits, outside=kind == "outside")
    if kind == "duplicate":  # |X| stays a power of two when X[0] replaces X[-1]
        X = np.append(X[:-1], X[0]) if len(X) > 1 else np.append(X, X)
    return rng.permutation(X), coords


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    kind=st.sampled_from(["subcube", "duplicate", "outside", "random", "dense"]),
    seed=st.integers(0, 2**32 - 1),
    f=st.integers(1, 6),
    extra=st.integers(0, 2),
    gamma=st.sampled_from(SUBCUBE_GAMMAS),
)
def test_find_violation_equals_the_definition(kind, seed, f, extra, gamma):
    X, coords = make_set(kind, seed, f, extra)
    want = _violation_by_definition(X, gamma, coords)
    assert density.find_violation(X, gamma, coords) == want
    assert density.is_dense(X, gamma, coords) == (want is None)
    parts = density.density_restoring_partition(X, gamma, coords)
    density.validate_partition(X, parts, gamma, coords)
