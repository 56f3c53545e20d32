"""Quantum phase estimation and its uncompute, in the Fourier view.

The clock register stores integer bin m for a phase theta = m / 2^n_c, i.e.
an eigenvalue lambda = 2*pi*m / (2^n_c * t) of the Hermitian generator.
Before its inverse QFT, phase estimation leaves the state
sum_m |m> U^m|b> / sqrt(M), with M = 2^n_c and U = exp(i*A*t): a Krylov
sequence of b under U, one data block per clock value. The inverse QFT on
the clock is then a discrete Fourier transform along the clock axis (Cleve,
Ekert, Macchiavello and Mosca, "Quantum algorithms revisited",
quant-ph/9708016). Two routes evaluate it:

* In the eigenbasis, when U = V diag(e^{i*phi}) V^dagger shares A's
  eigenvectors V (the exact and block backends): eigenvector j lands on
  bin k with amplitude alpha_{kj} = FFT_m(e^{i*m*phi_j}) / M (Nielsen and
  Chuang, section 5.2), so :func:`spectral_phase_estimation` returns the
  (M, N) kernel P = |alpha|^2 at O(M N log M) cost and applies no matrix.
  The pipeline finishes inversion and uncompute from P in closed form.
* On the matrix, for any U (the Trotter backend, whose U is not diagonal in
  A's eigenbasis): :func:`phase_estimation` is M - 1 mat-vecs with the base
  U plus one FFT, and :func:`inverse_phase_estimation` mirrors it with an
  inverse FFT and the zero-clock block sum_m U^-m chi_m as a Horner pass
  with U^dagger.

Each forward pass checks the unitarity of the operator it is given: the
base U on the matrix route, the eigenbasis V on the eigenbasis route. No
U^(2^k) is formed. Clock-by-data states are (2^n_c, N) arrays whose row j is
the data block of clock bin j. No pass counts cost: the modelled circuit's
ladder of controlled U^(2^k), one per clock qubit k, is 2^n_c - 1
applications of U per pass in closed form, and the pipeline reports it. The
gate-level circuit both routes replace is kept as the test oracle
``tests/qpe_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .statevector import _check_unitary


def _check_clock(n_c: int) -> None:
    if n_c < 1:
        raise DimensionMismatch(f"phase estimation needs at least one clock qubit, got {n_c}")


def spectral_phase_estimation(
    beta: np.ndarray, eigenvectors: np.ndarray, phases: np.ndarray, n_c: int
) -> np.ndarray:
    """Clock-bin probabilities P[k, j] of phase estimation on eigenvector j.

    For U = V diag(e^{i*phi}) V^dagger and a data state V beta, the forward
    pass leaves clock bin k holding V (alpha_k * beta), with
    alpha_{kj} = (1/M) sum_m exp(-2*pi*i*k*m/M) e^{i*m*phi_j}; this returns
    |alpha|^2, whose column j sums to one. ``beta`` (the data state in the
    eigenbasis) and ``phases`` must match ``eigenvectors``, which must be
    unitary.
    """
    _check_clock(n_c)
    dim = eigenvectors.shape[0]
    if eigenvectors.shape != (dim, dim) or np.shape(beta) != (dim,) or np.shape(phases) != (dim,):
        raise DimensionMismatch(
            f"eigenbasis of shape {eigenvectors.shape} does not fit a data state of shape "
            f"{np.shape(beta)} and phases of shape {np.shape(phases)}"
        )
    _check_unitary(eigenvectors)
    bins = 1 << n_c
    alpha = np.fft.fft(np.exp(1j * np.outer(np.arange(bins), phases)), axis=0) / bins
    return alpha.real**2 + alpha.imag**2


def phase_estimation(b_hat: np.ndarray, u: np.ndarray, n_c: int) -> np.ndarray:
    """Clock-by-data amplitudes after phase estimation of the data state ``b_hat``.

    Row j is (1/M) sum_m exp(-2*pi*i*j*m/M) U^m b_hat: the Krylov sequence
    U^m b_hat of the base propagator ``u``, built by repeated mat-vec,
    Fourier transformed over m.
    """
    _check_clock(n_c)
    b_hat = np.asarray(b_hat, dtype=np.complex128)
    if b_hat.shape != (u.shape[0],):
        raise DimensionMismatch(
            f"data state of shape {b_hat.shape} does not fit a {u.shape[0]}-dimensional propagator"
        )
    _check_unitary(u)
    bins = 1 << n_c
    krylov = np.empty((bins, len(b_hat)), dtype=np.complex128)
    krylov[0] = b_hat
    for m in range(1, bins):
        np.matmul(u, krylov[m - 1], out=krylov[m])
    return np.fft.fft(krylov, axis=0) / bins


def inverse_phase_estimation(amplitudes: np.ndarray, u: np.ndarray, n_c: int) -> np.ndarray:
    """Zero-clock data block after the adjoint of :func:`phase_estimation`.

    For clock-by-data ``amplitudes`` xi this is sum_m U^-m eta_m with
    eta = inverse FFT of xi over the clock axis. For a normalized input,
    1 - its squared norm is the mass the uncompute leaves off clock 0.
    """
    _check_clock(n_c)
    bins = 1 << n_c
    if amplitudes.shape != (bins, u.shape[0]):
        raise DimensionMismatch(
            f"amplitudes of shape {amplitudes.shape}, expected ({bins}, {u.shape[0]}) "
            f"for {n_c} clock qubits"
        )
    eta = np.fft.ifft(amplitudes, axis=0)
    u_dagger = u.conj().T
    block = eta[bins - 1]
    for m in range(bins - 2, -1, -1):
        block = u_dagger @ block + eta[m]
    return block
