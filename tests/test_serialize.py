import json

import numpy as np
import pytest

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
