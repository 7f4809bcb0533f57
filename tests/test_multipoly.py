"""Multiple orthogonal polynomials of type I and II."""
import math

import numpy as np
import pytest

from biortho import (
    Composition,
    DomainError,
    WeightSystem,
    biortho_sequence,
    check_ortho_one,
    check_ortho_two,
    gauss_laguerre,
    laguerre,
    staircase_path,
    type_one,
    type_two,
    xi_family,
)
from biortho.errors import CapacityError
from biortho.multipoly import _moment_matrix


def two_laguerre_system() -> WeightSystem:
    """A two-weight AT system: x^0 e^{-x} and x^{1/2} e^{-x} share the half
    line and every moment determinant is nonzero."""
    return WeightSystem(
        weights=(
            lambda x: np.exp(-np.asarray(x, dtype=float)),
            lambda x: np.sqrt(np.asarray(x, dtype=float))
            * np.exp(-np.asarray(x, dtype=float)),
        ),
        quad=gauss_laguerre(64, 0.0),
    )


def single_laguerre_system(alpha: float) -> WeightSystem:
    return WeightSystem(
        weights=(
            lambda x: np.asarray(x, dtype=float) ** alpha
            * np.exp(-np.asarray(x, dtype=float)),
        ),
        quad=gauss_laguerre(64, alpha),
    )


class TestComposition:
    def test_weight_and_d(self):
        c = Composition((2, 0, 3))
        assert c.weight == 5
        assert c.d == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            Composition(())
        with pytest.raises(DomainError):
            Composition((1, -1))


class TestWeightSystem:
    def test_moment_cache(self):
        # the weights are evaluated once per system, whatever is solved on
        # it, and their moment table is int x^j e^{-x} dx = j!
        calls = []

        def w(x):
            calls.append(x)
            return np.exp(-np.asarray(x, dtype=float))

        ws = WeightSystem(weights=(w,), quad=gauss_laguerre(64, 0.0))
        type_one(ws, Composition((3,)))
        type_two(ws, Composition((4,)))
        assert len(calls) == 1
        m = ws.quad.moments(ws.at_nodes, 6)
        assert m.shape == (1, 6)
        assert np.allclose(m[0], [math.factorial(j) for j in range(6)], rtol=1e-12, atol=0)

    def test_moment_matrix_matches_entrywise_sums(self):
        # the one table against a per-entry quadrature sum; both sum positive
        # terms, so they agree to a few ulps per node
        ws = two_laguerre_system()
        comp = Composition((2, 1))
        t, dxw = ws.quad.nodes, ws.quad.dx_weights
        f = 1.0 + t
        ref = [[np.dot(dxw * w(t) * f, t ** (j + p)) for w, p in
                ((ws.weights[0], 0), (ws.weights[0], 1), (ws.weights[1], 0))] for j in range(4)]
        assert np.allclose(_moment_matrix(ws, comp, 4, f), ref, rtol=1e-13, atol=0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            WeightSystem(weights=(), quad=gauss_laguerre(8, 0.0))


class TestXiFamily:
    def test_block_order_and_length(self):
        ws = two_laguerre_system()
        fams = xi_family(ws, Composition((2, 1)))
        assert len(fams) == 3
        x = np.array([1.0, 2.0])
        # block order: w1, x w1, w2
        assert np.allclose(fams[1](x), x * fams[0](x))
        assert np.allclose(fams[2](x), np.sqrt(x) * np.exp(-x))

    def test_zero_part_skipped(self):
        ws = two_laguerre_system()
        assert len(xi_family(ws, Composition((0, 2)))) == 2

    def test_mismatched_parts(self):
        ws = two_laguerre_system()
        with pytest.raises(DomainError):
            xi_family(ws, Composition((1, 1, 1)))


class TestSingleWeightReduction:
    def test_type_two_is_monic_laguerre(self):
        # D = 1 reduces to classical orthogonality: the monic Laguerre
        # polynomial is (-1)^n n! L_n^alpha
        alpha = 1.0
        ws = single_laguerre_system(alpha)
        for n in (1, 2, 4):
            p = type_two(ws, Composition((n,)))
            x = np.linspace(0.1, 9.0, 7)
            ref = (-1.0) ** n * math.factorial(n) * laguerre(n, alpha, x)
            assert np.allclose(p(x), ref, rtol=1e-10, atol=1e-10)

    def test_type_one_is_normalized_op(self):
        # D = 1: Q_n = w p_{n-1} / h_{n-1}; check the defining moments instead
        ws = single_laguerre_system(0.0)
        q = type_one(ws, Composition((3,)))
        res = check_ortho_one(q)
        assert np.max(np.abs(res[:-1])) < 1e-12
        assert res[-1] == pytest.approx(1.0, rel=1e-12)


class TestTypeOne:
    def test_orthogonality_two_weight(self):
        ws = two_laguerre_system()
        for comp in (Composition((1, 1)), Composition((2, 1)), Composition((2, 2))):
            q = type_one(ws, comp)
            res = check_ortho_one(q)
            assert np.max(np.abs(res[:-1])) < 1e-10
            assert res[-1] == pytest.approx(1.0, abs=1e-10)

    def test_block_degrees(self):
        ws = two_laguerre_system()
        q = type_one(ws, Composition((2, 1)))
        assert q.blocks[0].size == 2
        assert q.blocks[1].size == 1

    def test_scalar_call(self):
        ws = two_laguerre_system()
        q = type_one(ws, Composition((1, 1)))
        v = q(1.3)
        assert isinstance(v, float)

    def test_zero_weight_rejected(self):
        ws = two_laguerre_system()
        with pytest.raises(DomainError):
            type_one(ws, Composition((0, 0)))

    @pytest.mark.parametrize("parts", [(2,), (1, 1, 1)], ids=["fewer", "more"])
    def test_mismatched_parts(self, parts):
        # one part per weight: fewer parts no longer drop a weight, more no
        # longer index past the last one
        with pytest.raises(DomainError, match="2 weights"):
            type_one(two_laguerre_system(), Composition(parts))

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setenv("BIORTHO_MAX_N", "2")
        ws = two_laguerre_system()
        with pytest.raises(CapacityError):
            type_one(ws, Composition((2, 1)))


class TestTypeTwo:
    def test_orthogonality_two_weight(self):
        ws = two_laguerre_system()
        for comp in (Composition((1, 1)), Composition((2, 1)), Composition((2, 2))):
            p = type_two(ws, comp)
            res = check_ortho_two(p, ws, comp)
            assert np.max(np.abs(res)) < 1e-9

    def test_monic(self):
        ws = two_laguerre_system()
        p = type_two(ws, Composition((2, 1)))
        assert p.coeffs[-1] == 1.0
        assert p.degree == 3

    def test_empty_composition(self):
        ws = two_laguerre_system()
        p = type_two(ws, Composition((0, 0)))
        assert p(3.7) == 1.0

    @pytest.mark.parametrize("parts", [(0,), (2,), (1, 1, 1)], ids=["empty", "fewer", "more"])
    def test_mismatched_parts(self, parts):
        with pytest.raises(DomainError, match="2 weights"):
            type_two(two_laguerre_system(), Composition(parts))


class TestStaircase:
    def test_path_shape(self):
        path = staircase_path(Composition((2, 1)))
        assert [c.parts for c in path] == [(0, 0), (1, 0), (2, 0), (2, 1)]

    def test_biortho_sequence_duality(self):
        # int P_i Q_j dx = delta_{i,j} along the staircase
        ws = two_laguerre_system()
        comp = Composition((2, 2))
        ps, qs = biortho_sequence(ws, comp)
        t = ws.quad.nodes
        dxw = ws.quad.dx_weights
        n = comp.weight
        for i in range(n):
            pv = ps[i](t)
            for j in range(n):
                val = float(np.dot(dxw, pv * qs[j](t)))
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)

    def test_alternative_path(self):
        # a non-default nested path must satisfy the same duality
        ws = two_laguerre_system()
        comp = Composition((2, 1))
        path = [
            Composition((0, 0)),
            Composition((0, 1)),
            Composition((1, 1)),
            Composition((2, 1)),
        ]
        ps, qs = biortho_sequence(ws, comp, path=path)
        t = ws.quad.nodes
        dxw = ws.quad.dx_weights
        for i in range(3):
            for j in range(3):
                val = float(np.dot(dxw, ps[i](t) * qs[j](t)))
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)

    def test_invalid_paths(self):
        ws = two_laguerre_system()
        comp = Composition((2, 1))
        with pytest.raises(DomainError):
            biortho_sequence(ws, comp, path=[Composition((0, 0)), comp])
        bad = [
            Composition((0, 0)),
            Composition((2, 0)),  # jumps by two
            Composition((2, 0)),
            Composition((2, 1)),
        ]
        with pytest.raises(DomainError):
            biortho_sequence(ws, comp, path=bad)
