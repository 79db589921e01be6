"""Complex matrix kernels: channel Grams and dominant eigenpairs.

Everything here operates on small dense Hermitian matrices (N <= 32). The
weighted combinations used by the queue-driven policies are indefinite, so the
dominant eigenpair is always the algebraically largest one, obtained from a
full Hermitian eigendecomposition rather than power iteration.

Every eigenpair solve goes through _eigh, which calls the LAPACK gufunc
that np.linalg.eigh runs, without that function's per-call wrapper, and
top_vector picks the beam from its output. The warm-up spectrum
(channel.empirical_gain_spectrum) needs eigenvalues only and takes them
from np.linalg.eigvalsh. A solved pair passes one residual gate:
check_stack, once per chunk, in both policy kernels. Every matrix they
solve is one the library builds through hermitian_part, which leaves it
Hermitian bit for bit, so no Hermiticity is checked. The per-matrix
reference of the kernels (weighted_combine and max_eigpair) is built from
these parts in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

# Accepted residual ||W v - lam v|| relative to max(1, |lam|).
RESIDUAL_RTOL = 1e-8
# Components below this magnitude count as zero for the phase convention.
_NONZERO_ATOL = 1e-12
# An eigenvalue ties with the top one when it lies within
# _TIE_RTOL * max(1, max |eigenvalue|) of it.
_TIE_RTOL = 64.0 * np.finfo(np.float64).eps


def hermitian_part(w: np.ndarray) -> np.ndarray:
    """(W + W^H) / 2 over the last two axes, Hermitian bit for bit.

    out[..., j, k] == conj(out[..., k, j]) exactly, and a Hermitian input is
    returned unchanged. The result is built as conj(W^T) and then W is added
    in place, so it holds one stack fewer than the out-of-place average and
    its last two axes are always stored transposed. That layout is pinned on
    purpose: the received-power einsum rounds by the layout of the Grams it
    reads, and a layout that depended on the stack size would make run
    summaries depend on the chunk size.
    """
    out = w.swapaxes(-1, -2).conj()
    out += w
    out *= 0.5
    return out


def grams(h: np.ndarray) -> np.ndarray:
    """Gram matrices H^H H over the last two axes: (..., M, N) -> (..., N, N).

    Each Gram is passed through hermitian_part, which kills the round-off
    drift exactly and pins the memory layout for every stack size.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2:
        raise ValueError(f"channel matrices must be at least 2-D, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel matrix has non-finite entries")
    return hermitian_part(np.einsum("...mn,...mp->...np", h.conj(), h))


# the gufunc np.linalg.eigh(w) runs with its default UPLO='L'
_eigh_lo = _umath_linalg.eigh_lo


def _eigh(w: np.ndarray) -> tuple:
    """np.linalg.eigh(w) of a complex128 stack w (..., N, N), bit for bit,
    without its per-call checks and errstate. The gufunc reports a solve that
    did not converge as NaN eigenvalues (with numpy's invalid-value warning
    unless the caller ignores it), raised here as an ArithmeticError."""
    vals, vecs = _eigh_lo(w)
    if math.isnan(vals[-1]) if vals.ndim == 1 else np.isnan(vals[..., -1]).any():
        raise ArithmeticError("Hermitian eigendecomposition did not converge")
    return vals, vecs


def _norm2(x: np.ndarray) -> float:
    """np.linalg.norm of a complex vector, bit for bit: the same two dot
    products, without the wrapper's dispatch, which costs more than they do."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def top_vector(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The deterministic unit top eigenvector of a Hermitian matrix from its
    eigh output (vals ascending, eigenvectors in the columns of vecs).

    Tie-breaking for a degenerate top eigenspace: among the decomposition's
    candidate eigenvectors, take the one maximizing the magnitude of its first
    nonzero component, earliest column on ties. The global phase is fixed so
    the first nonzero component is real positive.
    """
    n = vals.shape[0]
    lam = float(vals[-1])
    # eigh sorts ascending, so the largest magnitude sits at an end
    scale = max(1.0, abs(float(vals[0])), abs(lam))
    floor = lam - _TIE_RTOL * scale
    best = n - 1
    if n > 1 and vals[-2] >= floor:
        best_mag = -1.0
        for j in np.nonzero(vals >= floor)[0]:
            col = vecs[:, j]
            nz = np.nonzero(np.abs(col) > _NONZERO_ATOL)[0]
            mag = float(np.abs(col[nz[0]])) if nz.size else 0.0
            if mag > best_mag:
                best, best_mag = j, mag
    vec = vecs[:, best].copy()

    big = np.abs(vec) > _NONZERO_ATOL
    first = int(big.argmax())
    if big[first]:
        lead = vec[first]
        vec *= np.conj(lead) / np.abs(lead)
        vec[first] = vec[first].real
    vec /= _norm2(vec)
    return vec


def check_stack(w: np.ndarray, lam: np.ndarray, vecs: np.ndarray) -> None:
    """Reject a stack (T, N, N) of solved matrices unless each (lam[t],
    vecs[t]) is an eigenpair of w[t] to within RESIDUAL_RTOL * max(1,
    |lam[t]|). The error names the first failing pair in stack order, the one
    a check of one pair at a time would raise first.
    """
    res = np.linalg.norm(np.matmul(w, vecs[:, :, None])[:, :, 0] - lam[:, None] * vecs, axis=1)
    ok = res <= RESIDUAL_RTOL * np.maximum(1.0, np.abs(lam))
    if not ok.all():
        t = int(ok.argmin())
        raise ArithmeticError(f"eigenpair residual {res[t]:.3e} exceeds tolerance for eigenvalue {lam[t]:.6g}")
