import numpy as np
import pytest


def random_unitary(rng, dim):
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def nan_splitter_at(sector_operators, total):
    """A stand-in for ``fock._sector_operators`` whose splitter in sector ``total`` is all NaN."""

    def stand_in(sector):
        splitter, jy_values, jy_vectors = sector_operators(sector)
        return (np.full_like(splitter, np.nan) if sector == total else splitter), jy_values, jy_vectors

    return stand_in


def random_weights(rng, dim):
    w = rng.dirichlet(np.ones(dim))
    return w / w.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
