"""Complex matrix kernels: channel Grams, dominant eigenpairs, quadratic forms.

Everything here operates on small dense Hermitian matrices (N <= 32). The
weighted combinations used by the queue-driven policies are indefinite, so the
dominant eigenpair is always the algebraically largest one, obtained from a
full Hermitian eigendecomposition rather than power iteration.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# Hermiticity is enforced to this absolute tolerance on max|W - W^H|.
HERMITIAN_ATOL = 1e-10
# Accepted residual ||W v - lam v|| relative to max(1, |lam|).
RESIDUAL_RTOL = 1e-8
# Components below this magnitude count as zero for the phase convention.
_NONZERO_ATOL = 1e-12


class EigenPair(NamedTuple):
    """Algebraically largest eigenvalue of a Hermitian matrix and a unit eigenvector."""

    value: float
    vector: np.ndarray


def grams(h: np.ndarray) -> np.ndarray:
    """Gram matrices H^H H over the last two axes: (..., M, N) -> (..., N, N).

    Each Gram is averaged with its conjugate transpose, which kills the
    round-off drift exactly: out[..., j, k] == conj(out[..., k, j]) bit for bit.
    The average is taken out of place on purpose: the memory layout of its
    result feeds the rounding of every per-slot policy step, so an in-place
    form moves run summaries in their last bits.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2:
        raise ValueError(f"channel matrices must be at least 2-D, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel matrix has non-finite entries")
    w = np.einsum("...mn,...mp->...np", h.conj(), h)
    return 0.5 * (w + np.conj(np.swapaxes(w, -1, -2)))


def weighted_combine(
    weights: Sequence[float],
    grams: Sequence[np.ndarray],
    shift: float = 0.0,
) -> np.ndarray:
    """Real-weighted sum of Hermitian matrices minus shift * identity.

    Returns sum_i weights[i] * grams[i] - shift * I. The result is Hermitian
    but in general indefinite (the shift pushes the spectrum down).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-D sequence")
    if len(grams) != w.size:
        raise ValueError(f"got {w.size} weights for {len(grams)} matrices")
    g = np.asarray(grams, dtype=np.complex128)
    if g.ndim != 3 or g.shape[1] != g.shape[2]:
        raise ValueError("grams must be a sequence of equal-size square matrices")
    if not (np.all(np.isfinite(w)) and np.isfinite(shift)):
        raise ValueError("weights and shift must be finite")
    out = np.tensordot(w, g, axes=1)
    n = out.shape[0]
    out[np.arange(n), np.arange(n)] -= shift
    return 0.5 * (out + out.conj().T)


def max_eigpair(w: np.ndarray) -> EigenPair:
    """Largest eigenvalue and eigenvector of a Hermitian matrix, deterministically.

    Tie-breaking for a degenerate top eigenspace: among the decomposition's
    candidate eigenvectors, take the one maximizing the magnitude of its first
    nonzero component, earliest column on ties. The global phase is fixed so
    the first nonzero component is real positive.
    """
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    dev = float(np.max(np.abs(w - w.conj().T))) if w.size else 0.0
    if dev > HERMITIAN_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max deviation {dev:.3e} exceeds {HERMITIAN_ATOL:.0e}"
        )
    try:
        vals, vecs = np.linalg.eigh(w)
    except np.linalg.LinAlgError as err:
        raise ArithmeticError(f"Hermitian eigendecomposition did not converge: {err}") from err

    lam = float(vals[-1])
    scale = max(1.0, float(np.max(np.abs(vals))))
    ties = np.nonzero(vals >= lam - 64.0 * np.finfo(np.float64).eps * scale)[0]

    best = None
    best_mag = -1.0
    for j in ties:
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > _NONZERO_ATOL)[0]
        mag = float(np.abs(col[nz[0]])) if nz.size else 0.0
        if mag > best_mag:
            best, best_mag = j, mag
    vec = vecs[:, best].copy()

    nz = np.nonzero(np.abs(vec) > _NONZERO_ATOL)[0]
    if nz.size:
        lead = vec[nz[0]]
        vec *= np.conj(lead) / np.abs(lead)
        vec[nz[0]] = vec[nz[0]].real
    vec /= np.linalg.norm(vec)

    residual = float(np.linalg.norm(w @ vec - lam * vec))
    if residual > RESIDUAL_RTOL * max(1.0, abs(lam)):
        raise ArithmeticError(
            f"eigenpair residual {residual:.3e} exceeds tolerance for eigenvalue {lam:.6g}"
        )
    return EigenPair(lam, vec)


def quad_form(w: np.ndarray, x: np.ndarray) -> float:
    """Quadratic form x^H W x as a real number.

    W must be Hermitian so the form is real; a relative imaginary part above
    1e-10 is rejected rather than silently discarded.
    """
    w = np.asarray(w, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or w.shape != (x.size, x.size):
        raise ValueError(f"dimension mismatch: matrix {w.shape} vs vector {x.shape}")
    val = complex(np.vdot(x, w @ x))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ValueError(f"quadratic form is not real (imag {val.imag:.3e}); W must be Hermitian")
    return val.real
