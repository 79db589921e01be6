"""Complex matrix kernels: channel Grams, dominant eigenpairs, quadratic forms.

Everything here operates on small dense Hermitian matrices (N <= 32). The
weighted combinations used by the queue-driven policies are indefinite, so the
dominant eigenpair is always the algebraically largest one, obtained from a
full Hermitian eigendecomposition rather than power iteration.

Every decomposition goes through _eigh, which calls the LAPACK gufunc that
np.linalg.eigh runs, without that function's per-call wrapper. A solved
pair passes one residual gate: per matrix in top_eigpair, per stack in
check_stack. Only max_eigpair, whose matrix comes from a caller, checks
Hermiticity; the matrices the policies build leave hermitian_part
Hermitian bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

# Hermiticity is enforced to this absolute tolerance on max|W - W^H|.
HERMITIAN_ATOL = 1e-10
# Accepted residual ||W v - lam v|| relative to max(1, |lam|).
RESIDUAL_RTOL = 1e-8
# Components below this magnitude count as zero for the phase convention.
_NONZERO_ATOL = 1e-12
# An eigenvalue ties with the top one when it lies within
# _TIE_RTOL * max(1, max |eigenvalue|) of it.
_TIE_RTOL = 64.0 * np.finfo(np.float64).eps


class EigenPair(NamedTuple):
    """Algebraically largest eigenvalue of a Hermitian matrix and a unit eigenvector."""

    value: float
    vector: np.ndarray


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
    if not (np.isfinite(w).all() and math.isfinite(shift)):
        raise ValueError("weights and shift must be finite")
    n = g.shape[1]
    # the product np.tensordot(w, g, axes=1) makes, without its bookkeeping
    out = np.dot(w.reshape(1, -1), g.reshape(w.size, n * n)).reshape(n, n)
    out.reshape(-1)[:: n + 1] -= shift
    return hermitian_part(out)


def _check_hermitian(w: np.ndarray) -> None:
    """Reject unless max|W - W^H| <= HERMITIAN_ATOL."""
    dev = float(np.abs(w - w.swapaxes(-1, -2).conj()).max()) if w.size else 0.0
    if not dev <= HERMITIAN_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max deviation {dev:.3e} exceeds {HERMITIAN_ATOL:.0e}"
        )


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


def _residual_error(residual: float, lam: float) -> ArithmeticError:
    return ArithmeticError(f"eigenpair residual {residual:.3e} exceeds tolerance for eigenvalue {lam:.6g}")


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


def top_eigpair(w: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> EigenPair:
    """The top eigenpair of Hermitian w from its eigh output, with
    top_vector's conventions. The pair's residual ||W v - lam v|| must stay
    within RESIDUAL_RTOL * max(1, |lam|).
    """
    lam = float(vals[-1])
    vec = top_vector(vals, vecs)
    residual = _norm2(w @ vec - lam * vec)
    if not residual <= RESIDUAL_RTOL * max(1.0, abs(lam)):
        raise _residual_error(residual, lam)
    return EigenPair(lam, vec)


def max_eigpair(w: np.ndarray) -> EigenPair:
    """Largest eigenvalue and eigenvector of a Hermitian matrix, deterministically.

    The tie-break and phase conventions are those of top_vector.
    """
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    _check_hermitian(w)
    vals, vecs = _eigh(w)
    return top_eigpair(w, vals, vecs)


def check_stack(w: np.ndarray, lam: np.ndarray, vecs: np.ndarray) -> None:
    """Reject a stack (T, N, N) of solved matrices unless each (lam[t],
    vecs[t]) is an eigenpair of w[t] to within RESIDUAL_RTOL * max(1,
    |lam[t]|). The error names the first failing pair in stack order, the one
    top_eigpair, checking them one at a time, would raise first.
    """
    res = np.linalg.norm(np.matmul(w, vecs[:, :, None])[:, :, 0] - lam[:, None] * vecs, axis=1)
    ok = res <= RESIDUAL_RTOL * np.maximum(1.0, np.abs(lam))
    if not ok.all():
        t = int(ok.argmin())
        raise _residual_error(float(res[t]), float(lam[t]))


def quad_form(w: np.ndarray, x: np.ndarray) -> float:
    """Quadratic form x^H W x as a real number.

    W must be Hermitian so the form is real; a relative imaginary part above
    1e-10 is rejected rather than silently discarded. A non-finite entry of
    W or x, and a form that overflows, are rejected too.
    """
    w = np.asarray(w, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or w.shape != (x.size, x.size):
        raise ValueError(f"dimension mismatch: matrix {w.shape} vs vector {x.shape}")
    if not (np.isfinite(w).all() and np.isfinite(x).all()):
        raise ValueError("quadratic form of a non-finite matrix or vector")
    with np.errstate(over="ignore", invalid="ignore"):
        val = complex(np.vdot(x, w @ x))
    if not np.isfinite(val):
        raise ValueError(f"quadratic form is not finite ({val}); W or x is too large")
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ValueError(f"quadratic form is not real (imag {val.imag:.3e}); W must be Hermitian")
    return val.real
