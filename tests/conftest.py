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


def closed_form_survival(weights, phases, nbar):
    """Reference survival probability ``1 / |1 + nbar (1 - m^2)|``, ``m = sum_j w_j exp(-i phi_j)``.

    Written in the z-form: ``z = 1 - m = sum_j w_j (2 sin^2(phi_j/2) + i sin phi_j)``
    and ``1 - m^2 = z (2 - z)``, so a small-phase deficit is formed without
    cancelling against 1.
    """
    weights, phases = np.asarray(weights, dtype=float), np.asarray(phases, dtype=float)
    z = np.sum(weights * (2.0 * np.sin(phases / 2.0) ** 2 + 1j * np.sin(phases)))
    return 1.0 / abs(1.0 + nbar * z * (2.0 - z))


def random_weights(rng, dim):
    w = rng.dirichlet(np.ones(dim))
    return w / w.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
