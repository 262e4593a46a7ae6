import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpick import serialize
from ncpick.core import NcMatrixPolynomial, Word
from ncpick.envelopes import EnvelopeWitness
from ncpick.kernels import ChoiMatrix, PsdCertificate
from ncpick.realization import random_contractive_colligation
from ncpick.serialize import (
    decode_colligation,
    decode_matrix,
    decode_poly,
    decode_tuple,
    encode_certificate,
    encode_choi,
    encode_colligation,
    encode_matrix,
    encode_poly,
    encode_tuple,
    encode_witness,
    matrix_json,
)

from conftest import mt


class TestMatrixCodec:
    def test_round_trip(self, rng):
        M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        back = decode_matrix(encode_matrix(M))
        assert np.array_equal(back, M)

    def test_json_serializable(self, rng):
        M = rng.standard_normal((2, 2))
        json.dumps(encode_matrix(M))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            decode_matrix([[[0, 0]], [[0, 0], [1, 0]]])

    def test_bad_scalar_rejected(self):
        with pytest.raises(ValueError):
            decode_matrix([[[1.0]]])

    @pytest.mark.parametrize("entry", [[True, False], [0.5, True], [False, 0.0]])
    def test_booleans_rejected(self, entry):
        # Python reads a JSON boolean as the integer 0 or 1; it is not a number
        with pytest.raises(TypeError, match="matrix entries must be numbers"):
            decode_matrix([[entry]])

    @pytest.mark.parametrize("M", [
        np.array([[complex(-0.0, -0.0), 5e-324 + 1j], [np.nan + 0j, complex(np.inf, -np.inf)]]),
        np.array([0.5, -0.0, 2.0 + 3.0j]),
        np.array(-0.0 + 2j),
        np.arange(6, dtype=float).reshape(2, 3),
        np.zeros((2, 0)),
    ])
    def test_encode_matches_elementwise_json(self, M):
        # elementwise encoding kept as the reference: same JSON bytes
        A = np.atleast_2d(np.asarray(M, dtype=complex))
        want = [[[float(z.real), float(z.imag)] for z in row] for row in A]
        assert json.dumps(encode_matrix(M)) == json.dumps(want)


# entries that must not be mistaken for exact zeros, next to the +0.0 rows
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 0.1, -3.5e17]


@st.composite
def matrices_with_zero_rows(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
    M = np.empty((rows, cols), dtype=complex)  # parts set apart: 1j * inf has a NaN real part
    M.real = np.reshape(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), M.shape)
    M.imag = np.reshape(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), M.shape)
    # each row is drawn as is, all +0.0, all -0.0 or all NaN
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["drawn", "zero", "neg", "nan"]),
                                           min_size=rows, max_size=rows))):
        if kind != "drawn":
            v = {"zero": 0.0, "neg": -0.0, "nan": np.nan}[kind]
            M[i].real, M[i].imag = v, v
    return M


# values placed as conjugate mirror pairs: signed zeros, NaN, infinities, subnormals
MIRRORED = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 2.2250738585072014e-308, 0.1]


@st.composite
def hermitian_matrices(draw):
    """Exactly Hermitian 0.5 (A + A^H), with zero rows and columns and special mirrored pairs."""
    n = draw(st.integers(1, 8))
    part = st.floats(-1e6, 1e6, allow_subnormal=True)
    A = np.empty((n, n), dtype=complex)
    A.real = np.reshape(draw(st.lists(part, min_size=n * n, max_size=n * n)), (n, n))
    A.imag = np.reshape(draw(st.lists(part, min_size=n * n, max_size=n * n)), (n, n))
    H = 0.5 * (A + A.conj().T)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        H[i, :] = 0.0
        H[:, i] = 0.0
    special = st.sampled_from(MIRRORED)
    for i, j, x, y in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              special, special), max_size=6)):
        H.real[i, j], H.imag[i, j] = x, y
        H.real[j, i], H.imag[j, i] = x, -y  # the diagonal keeps the second write
    return H


class TestMatrixJson:
    @given(M=matrices_with_zero_rows())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bytes_match_json_of_encode_matrix(self, M):
        assert matrix_json(M).text == json.dumps(encode_matrix(M), separators=(",", ":"))

    @pytest.mark.parametrize("M", [
        np.zeros((1, 1)),
        np.array([[complex(-0.0, 0.0)]]),
        np.array([[complex(0.0, -0.0)]]),
        np.zeros((3, 5)),
        np.zeros((2, 0)),
        np.zeros((0, 0)),
        np.array([0.5, -0.0, 2.0 + 3.0j]),
        np.array(-0.0 + 2j),
        np.vstack([np.zeros((2, 4)), np.full((1, 4), 5e-324), np.zeros((1, 4))]),
    ])
    def test_edge_shapes_and_signed_zeros(self, M):
        assert matrix_json(M).text == json.dumps(encode_matrix(M), separators=(",", ":"))

    @given(M=hermitian_matrices())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_hermitian_bytes_match_json_of_encode_matrix(self, M):
        assert matrix_json(M).text == json.dumps(encode_matrix(M), separators=(",", ":"))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_conjugate_pairs_are_formatted_once(self, n, rng, monkeypatch):
        calls = []

        class Recording(json.JSONEncoder):
            def encode(self, o):
                calls.append(len(o))
                return super().encode(o)

        monkeypatch.setattr(serialize, "_COMPACT", Recording(separators=(",", ":")))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = 0.5 * (A + A.conj().T)
        # one shared zero pair, then two floats per entry on and above the diagonal
        assert matrix_json(H).text == json.dumps(encode_matrix(H), separators=(",", ":"))
        assert calls == [2, n * (n + 1)]
        # a lower entry one bit off its mirror's conjugate is formatted itself
        rows, cols = np.tril_indices(n, -1)
        for flip in (1, 1 << 63):  # lowest mantissa bit, sign bit of the imaginary part
            calls.clear()
            G = H.copy()
            G.view(np.uint64)[rows, 2 * cols + 1] ^= flip
            assert matrix_json(G).text == json.dumps(encode_matrix(G), separators=(",", ":"))
            assert calls == [2, 2 * n * n]
        if n > 1:
            calls.clear()
            H[1, 0] = np.nextafter(H[1, 0].real, np.inf) + 1j * H[1, 0].imag
            matrix_json(H)
            assert calls == [2, n * (n + 1) + 2]

    def test_not_a_json_string(self):
        with pytest.raises(TypeError):
            json.dumps({"matrix": matrix_json(np.eye(2))})


class TestTupleCodec:
    def test_round_trip(self, rng):
        Z = mt(*(rng.standard_normal((2, 2)) for _ in range(3)))
        back = decode_tuple(encode_tuple(Z))
        assert back.d == 3 and back.n == 2
        for a, b in zip(back.components, Z.components):
            assert np.array_equal(a, b)

    def test_declared_dims_checked(self, rng):
        obj = encode_tuple(mt(rng.standard_normal((2, 2))))
        obj["n"] = 3
        with pytest.raises(ValueError):
            decode_tuple(obj)


class TestPolyCodec:
    def test_round_trip(self, rng):
        Q = NcMatrixPolynomial(
            2, 1, 2,
            {Word((1, 2), 2): rng.standard_normal((1, 2)),
             Word.empty(2): rng.standard_normal((1, 2))},
        )
        assert decode_poly(encode_poly(Q)) == Q

    def test_duplicate_words_accumulate(self):
        obj = {"d": 1, "s": 1, "r": 1, "terms": [
            {"word": [1], "coeff": [[[1.0, 0.0]]]},
            {"word": [1], "coeff": [[[2.0, 0.0]]]},
        ]}
        Q = decode_poly(obj)
        assert Q.terms[Word((1,), 1)][0, 0] == pytest.approx(3.0)


class TestColligationCodec:
    def test_round_trip(self):
        col = random_contractive_colligation(3, 2, 1, 2, seed=5)
        back = decode_colligation(encode_colligation(col))
        assert np.array_equal(back.as_matrix(), col.as_matrix())
        assert back.flags == col.flags

    def test_zero_state_round_trip(self):
        col = random_contractive_colligation(0, 2, 2, 1, seed=6)
        back = decode_colligation(encode_colligation(col))
        assert back.dimX == 0
        assert np.array_equal(back.D, col.D)


class TestReportCodecs:
    def test_certificate_fields(self):
        cert = PsdCertificate("psd", 0.25, 1.5, 1e-9)
        obj = encode_certificate(cert)
        assert obj == {"verdict": "psd", "min_eig": 0.25, "tol": 1e-9, "marginal": False}

    def test_witness_and_choi_json(self, rng):
        w = EnvelopeWitness("similarity", (1, 0), rng.standard_normal((2, 2)))
        json.dumps(encode_witness(w))
        C = ChoiMatrix(1, 2, np.eye(2))
        json.dumps(encode_choi(C))
