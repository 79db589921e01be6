"""Kernel tests: grams, hermitian_part, _eigh, top_vector, check_stack, and
the per-slot oracle's weighted_combine and quad_form.

Derived values are checked against the independent oracles in oracles.py
(naive index-loop arithmetic, hand-written Jacobi spectrum), never against
the library's own code paths. _eigh is pinned bit for bit to
np.linalg.eigh, whose LAPACK gufunc it calls.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import linalg
from wptsim.linalg import RESIDUAL_RTOL, _eigh, _norm2, check_stack, grams, hermitian_part, top_vector
from oracles import (
    jacobi_spectrum,
    naive_combine,
    naive_gram,
    naive_trace_quad,
    quad_form,
    random_hermitian,
    weighted_combine,
)


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def top_pair(w):
    """(value, vector) of w as the block kernels take it: _eigh, then top_vector."""
    vals, vecs = _eigh(w)
    return float(vals[-1]), top_vector(vals, vecs)


class TestGram:
    def test_zero_matrix(self):
        assert np.array_equal(grams(np.zeros((3, 4))), np.zeros((4, 4)))

    def test_identity(self):
        assert np.array_equal(grams(np.eye(3)), np.eye(3))

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            h = random_complex(rng, m, n)
            w = grams(h)
            assert np.allclose(w, naive_gram(h), atol=1e-12)
        # batched over leading axes, one Gram per (slot, receiver)
        hs = random_complex(rng, 5 * 3 * 2, 4).reshape(5, 3, 2, 4)
        ws = grams(hs)
        assert ws.shape == (5, 3, 4, 4)
        for idx in np.ndindex(5, 3):
            assert np.allclose(ws[idx], naive_gram(hs[idx]), atol=1e-12)

    def test_hermitian_and_psd(self):
        rng = np.random.default_rng(102)
        for _ in range(30):
            h = random_complex(rng, int(rng.integers(1, 6)), int(rng.integers(2, 8)))
            w = grams(h)
            assert np.array_equal(w, w.conj().T)
            floor = -1e-10 * float(np.sum(np.abs(h) ** 2))
            assert jacobi_spectrum(w)[0] >= floor

    def test_rejects_non_finite(self):
        h = np.ones((2, 3), dtype=complex)
        h[0, 0] = np.nan
        with pytest.raises(ValueError):
            grams(h)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            grams(np.ones(4))


def exactly_hermitian(w):
    return np.array_equal(w, np.conj(np.swapaxes(w, -1, -2)))


@st.composite
def stacks(draw, top):
    """A random complex stack (T, N, N) with entries of magnitude 10**-top to
    10**top, C-ordered or with its last two axes stored transposed."""
    t, n = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = random_complex(rng, t * n, n).reshape(t, n, n) * 10.0 ** draw(st.integers(-top, top - 1))
    return np.ascontiguousarray(w.swapaxes(1, 2)).swapaxes(1, 2) if draw(st.booleans()) else w


class TestHermitianize:
    """hermitian_part averages a stack with its conjugate transpose, and
    every matrix the policies solve leaves it Hermitian bit for bit. The
    chunk kernels rely on this: they check no Hermiticity of their own."""

    @settings(max_examples=200, deadline=None)
    @given(stacks(300), stacks(150), st.integers(1, 3))
    def test_exact_hermitian_output(self, w, h, k):
        assert exactly_hermitian(hermitian_part(w))
        # the matrices the kernels solve, on channels h of k receivers: each
        # slot's Grams, optimal-power's summed Grams and the fairness
        # kernel's weighted sum
        t, n = h.shape[:2]
        ws = grams(np.resize(h, (t, k, n, n)))
        assert exactly_hermitian(ws)
        assert exactly_hermitian(hermitian_part(ws.sum(axis=1)))
        row = np.random.default_rng(t).uniform(0.0, 50.0, size=(1, k))
        for gram in ws.reshape(t, k, n * n):
            m = np.dot(row, gram)
            m[0, :: n + 1] -= 3.0
            assert exactly_hermitian(hermitian_part(m.reshape(n, n)))

    def test_fixpoint_on_hermitian_input(self):
        rng = np.random.default_rng(104)
        w = random_hermitian(rng, 4)
        assert np.array_equal(weighted_combine([1.0], [w], 0.0), w)

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3, 3), (7, 3, 3), (2, 4, 3, 3)], ids=["single", "T1", "T7", "T2x4"])
    def test_output_is_stored_transposed_for_every_stack_size(self, shape):
        rng = np.random.default_rng(len(shape))
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = hermitian_part(w)
        item = out.itemsize
        assert out.strides[-2:] == (item, item * shape[-1])


class TestWeightedCombine:
    """The oracle's weighted_combine, with the chunk kernel's arithmetic."""

    def test_identity_cases(self):
        eye = np.eye(2, dtype=complex)
        assert np.array_equal(weighted_combine([1.0], [eye]), eye)
        assert np.array_equal(weighted_combine([1.0], [eye], shift=2.0), -eye)

    def test_diagonal_substitution(self):
        g1 = np.diag([1.0, 0.0]).astype(complex)
        g2 = np.diag([0.0, 1.0]).astype(complex)
        out = weighted_combine([2.0, 3.0], [g1, g2], shift=1.0)
        assert np.array_equal(out, np.diag([1.0, 2.0]))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(105)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            grams = [random_hermitian(rng, n) for _ in range(k)]
            weights = rng.uniform(-2, 5, size=k)
            shift = float(rng.uniform(-1, 3))
            out = weighted_combine(weights, grams, shift=shift)
            assert np.allclose(out, naive_combine(weights, grams, shift), atol=1e-12)
            assert np.array_equal(out, out.conj().T)


def not_converging(w):
    """The gufunc's output for a solve that does not converge: NaN throughout."""
    return np.full(w.shape[:-1], np.nan), np.full(w.shape, np.nan, dtype=complex)


class TestEigh:
    """np.linalg.eigh without its wrapper: the same arrays bit for bit, and a
    solve that does not converge is a named ArithmeticError."""

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("stack", [None, 1, 7, 512], ids=["single", "T1", "T7", "T512"])
    def test_matches_numpy_bit_for_bit(self, n, stack):
        rng = np.random.default_rng(n)
        shape = (n, n) if stack is None else (stack, 2, n, n)
        w = hermitian_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        # hermitian_part's transposed layout, and for a stack the strided
        # view of one receiver's Grams that the threshold kernel solves
        for m in (w,) if stack is None else (w[:, 0], np.ascontiguousarray(w[:, 1])):
            vals, vecs = _eigh(m)
            want_vals, want_vecs = np.linalg.eigh(m)
            assert vals.dtype == want_vals.dtype and vecs.dtype == want_vecs.dtype
            assert np.array_equal(vals, want_vals) and np.array_equal(vecs, want_vecs)

    def test_a_solve_that_does_not_converge_is_named(self, monkeypatch):
        monkeypatch.setattr(linalg, "_eigh_lo", not_converging)
        with pytest.raises(ArithmeticError, match="^Hermitian eigendecomposition did not converge$"):
            _eigh(np.eye(3, dtype=complex))

    def test_one_failed_matrix_of_a_stack_is_named(self, monkeypatch):
        solve = linalg._eigh_lo

        def fourth_fails(w):
            vals, vecs = solve(w)
            vals[3], vecs[3] = not_converging(w[3])
            return vals, vecs

        monkeypatch.setattr(linalg, "_eigh_lo", fourth_fails)
        with pytest.raises(ArithmeticError, match="did not converge"):
            _eigh(np.stack([np.eye(3, dtype=complex)] * 7))

    def test_a_nan_matrix_is_named(self):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(ArithmeticError, match="did not converge"):
                _eigh(np.full((3, 3), np.nan, dtype=complex))

    def test_an_inf_matrix_is_named(self):
        w = np.eye(3, dtype=complex)
        w[0, 1] = w[1, 0] = np.inf
        with np.errstate(divide="ignore"), pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(ArithmeticError, match="did not converge"):
                _eigh(w)


class TestTopVector:
    """The top pair the kernels take, top_vector(*_eigh(w)): its value, tie
    break and phase."""

    def test_diagonal_case(self):
        lam, vec = top_pair(np.diag([2.0, 1.0]).astype(complex))
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(vec, [1.0, 0.0], atol=1e-12)

    def test_negative_identity_tie_break(self):
        lam, vec = top_pair(-np.eye(3, dtype=complex))
        assert lam == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(vec, [1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(106)
        for _ in range(60):
            dim = int(rng.integers(2, 17))
            w = random_hermitian(rng, dim, scale=float(rng.uniform(0.01, 10)))
            lam, _ = top_pair(w)
            ref = jacobi_spectrum(w)[-1]
            assert abs(lam - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_unit_norm_and_residual(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            w = random_hermitian(rng, int(rng.integers(2, 13)))
            lam, vec = top_pair(w)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10
            residual = np.linalg.norm(w @ vec - lam * vec)
            assert residual <= 1e-8 * max(1.0, abs(lam))

    def test_phase_convention(self):
        rng = np.random.default_rng(108)
        for _ in range(25):
            w = random_hermitian(rng, 5)
            _, vec = top_pair(w)
            lead = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
            assert abs(lead.imag) <= 1e-12
            assert lead.real > 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(109)
        w = random_hermitian(rng, 8)
        a = top_pair(w)
        b = top_pair(w.copy())
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_algebraically_largest_not_largest_magnitude(self):
        w = np.diag([-10.0, 0.5]).astype(complex)
        lam, vec = top_pair(w)
        assert lam == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(vec, [0.0, 1.0], atol=1e-12)

    def test_zero_matrix_gives_the_first_axis(self):
        lam, vec = top_pair(np.zeros((4, 4), dtype=complex))
        assert lam == 0.0
        assert np.array_equal(vec, [1.0, 0.0, 0.0, 0.0])

    def test_norm_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(110)
        for n in range(1, 33):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert _norm2(x) == np.linalg.norm(x)


class TestCheckStack:
    """The batched residual check of solved matrices and their top pairs."""

    DIAG = np.diag([1.0, 2.0]).astype(complex)
    TOP = np.array([0.0, 1.0], dtype=complex)

    def stack(self, wrong=()):
        """Three copies of diag(1, 2) with the pair (2, e2); the slots in
        wrong get the pair (t + 2, e1), whose residual is t + 1."""
        w = np.stack([self.DIAG] * 3)
        lam = np.full(3, 2.0)
        vecs = np.stack([self.TOP] * 3)
        for t in wrong:
            lam[t] = t + 2.0
            vecs[t] = [1.0, 0.0]
        return w, lam, vecs

    def test_accepts_hermitian_matrices_with_their_pairs(self):
        check_stack(*self.stack())

    @pytest.mark.parametrize("wrong, first", [((2,), 2), ((1, 2), 1), ((0, 2), 0)])
    def test_the_first_failing_pair_is_named(self, wrong, first):
        message = f"residual {first + 1:.3e} exceeds tolerance for eigenvalue {first + 2}"
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            check_stack(*self.stack(wrong))

    @pytest.mark.parametrize("where", ["value", "vector"])
    def test_rejects_a_nan_pair(self, where):
        w, lam, vecs = self.stack()
        if where == "value":
            lam[1] = np.nan
        else:
            vecs[1, 0] = np.nan
        with pytest.raises(ArithmeticError, match="residual nan"):
            check_stack(w, lam, vecs)

    @staticmethod
    def off_by(lam, factor):
        """Three copies of diag(0, lam - d) with the claimed pair (lam, e2),
        whose residual d is factor times the tolerance at lam."""
        d = factor * RESIDUAL_RTOL * max(1.0, lam)
        w = np.stack([np.diag([0.0, lam - d]).astype(complex)] * 3)
        return w, np.full(3, lam), np.stack([[0.0, 1.0]] * 3).astype(complex)

    # below 1 the tolerance is absolute, above it relative to the value
    @pytest.mark.parametrize("lam", [0.5, 1e4])
    def test_accepts_a_residual_within_the_tolerance(self, lam):
        check_stack(*self.off_by(lam, 0.9))

    @pytest.mark.parametrize("lam", [0.5, 1e4])
    def test_rejects_a_residual_beyond_the_tolerance(self, lam):
        with pytest.raises(ArithmeticError, match="exceeds tolerance"):
            check_stack(*self.off_by(lam, 1.1))


class TestQuadForm:
    """The oracle's quad_form, on which the spectral bound below and
    criterion 01 read x^H W x."""

    def test_identity_gives_squared_norm(self):
        rng = np.random.default_rng(110)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = quad_form(np.eye(4, dtype=complex), x)
        assert got == pytest.approx(float(np.sum(np.abs(x) ** 2)), rel=1e-12)

    def test_zero_vector(self):
        assert quad_form(np.eye(3, dtype=complex), np.zeros(3)) == 0.0

    def test_matches_naive_trace_oracle(self):
        rng = np.random.default_rng(111)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            w = random_hermitian(rng, n)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = quad_form(w, x)
            ref = naive_trace_quad(w, x)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


class TestSpectralBound:
    """quad_form(W, v) never exceeds the top eigenvalue times the squared
    norm, with equality along the top eigenvector."""

    def test_bound_and_equality(self):
        rng = np.random.default_rng(112)
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            w = random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 4)))
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            lam, vec = top_pair(w)
            norm_sq = float(np.sum(np.abs(v) ** 2))
            assert quad_form(w, v) <= lam * norm_sq + 1e-9
            aligned = np.linalg.norm(v) * vec
            assert quad_form(w, aligned) == pytest.approx(lam * norm_sq, abs=1e-8 * max(1.0, abs(lam) * norm_sq))

    def test_bound_for_psd_gram(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            h = random_complex(rng, int(rng.integers(1, 5)), int(rng.integers(2, 9)))
            w = grams(h)
            v = rng.standard_normal(w.shape[0]) + 1j * rng.standard_normal(w.shape[0])
            assert quad_form(w, v) <= top_pair(w)[0] * float(np.sum(np.abs(v) ** 2)) + 1e-9
