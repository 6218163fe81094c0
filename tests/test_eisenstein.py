import hashlib
import os
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bianchi_lefschetz import eisenstein
from bianchi_lefschetz.bounds import cusp_lower_bound
from bianchi_lefschetz.eisenstein import (CHARACTER_VARIANTS, DEFAULT_VARIANT,
                                          INVERSE_DIFFERENT, LITERAL_D,
                                          IllDefinedVariantError, SczechOperator,
                                          cusp_count, fixed_coset_formula,
                                          level_one_sigma_traces, sczech_operator,
                                          sczech_trace, trace_h2_eis, trace_sigma_h1_eis,
                                          variant_periodicity_defect,
                                          write_matrix_dump)
from bianchi_lefschetz.exactmath import InputError
from bianchi_lefschetz.finitering import cusp_count_bruteforce
from bianchi_lefschetz.quadfield import make_field

F2, F5, F7, F11 = (make_field(d) for d in (-2, -5, -7, -11))
ADMISSIBLE = (INVERSE_DIFFERENT, DEFAULT_VARIANT)
DEGENERATE_GRAMS = (np.zeros((4, 4), dtype=np.int64), np.diag([1, 0, 0, 0]),
                    2 * np.eye(4, dtype=np.int64),
                    np.array([[0, 1, 0, 0], [3, 0, 0, 2], [0, 0, 0, 0], [1, 2, 0, 1]]))


def pairing(field, N, variant, x, z):
    """Exponent e of the entry at row x, column z, from the definition: its
    character value is exp(2 pi i e / N).

    Row x = (a1, b1, a2, b2) lifts to alpha = a1 + b1 w, beta = a2 + b2 w and
    column z = (g1, g2, d1, d2) to gamma = g1 + g2 w, delta = d1 + d2 w in O,
    and y(w) is the omega-coefficient, the residue pairing Tr(w / sqrt(D)):

      symplectic-invdiff: e = y(alpha*delta - beta*gamma);
      inverse-different:  e = y(alpha*conj(delta) - beta*conj(gamma)).
    """
    T, n = field.omega_trace, field.omega_norm

    def times(u, v):                 # (u0 + u1 w)(v0 + v1 w) with w^2 = T w - n
        return (u[0] * v[0] - n * u[1] * v[1], u[0] * v[1] + u[1] * v[0] + T * u[1] * v[1])

    def conj(u):                     # conj(w) = T - w
        return (u[0] + T * u[1], -u[1])

    alpha, beta, gamma, delta = x[:2], x[2:], z[:2], z[2:]
    if variant == INVERSE_DIFFERENT:
        gamma, delta = conj(gamma), conj(delta)
    return (times(alpha, delta)[1] - times(beta, gamma)[1]) % N


def dense_reference(field, N, variant):
    """The operator matrix with every exponent taken from the pairing of its
    row and column (the definition on the two quadruples), not from A."""
    idx = list(product(range(N), repeat=4))[1:]
    e = np.array([[pairing(field, N, variant, x, z) for z in idx] for x in idx])
    chi = np.exp(2j * np.pi * e / N)
    n2 = N * N
    return -1.0 / (n2 * (n2 - 1)) - chi / n2


def dense_from_dump(op, path):
    """The dense matrix parsed back from the matrix dump, which prints 17
    significant digits: enough to round-trip a double, so bit for bit."""
    write_matrix_dump(op, str(path))
    size = op.N**4 - 1
    cells = np.array(list(map(float, path.read_text().split()))).reshape(-1, 4)
    rows, cols = np.divmod(np.arange(size * size), size)
    assert np.array_equal(cells[:, 0], rows) and np.array_equal(cells[:, 1], cols)
    return (cells[:, 2] + 1j * cells[:, 3]).reshape(size, size)


def dump_sha256(matrix, path):
    """sha256 of the entry-by-entry dump of a dense matrix."""
    with open(path, "w") as fh:
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                z = matrix[i, j]
                fh.write(f"{i} {j} {z.real:.17g} {z.imag:.17g}\n")
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCuspCount:
    def test_frozen_values(self):
        assert cusp_count(F2, 3) == 64
        assert cusp_count(F7, 3) == 80     # inert factor 1 - 3^-4
        assert cusp_count(F2, 5) == 624    # 5 inert in Q(sqrt(-2))

    def test_matches_exhaustive_census(self):
        for f in (F2, F5, F7, F11):
            for N in (3, 4, 5):
                assert cusp_count(f, N) == cusp_count_bruteforce(f, N)

    def test_rejects_small_levels(self):
        with pytest.raises(InputError):
            cusp_count(F2, 2)


class TestBoundaryDims:
    # The boundary cohomology has dimensions (c, 2c, c) and, for k > 0, the
    # Eisenstein part has dimension c in each degree, c = cusp_count.
    def test_triples(self):
        assert cusp_count(F5, 3) == 128    # h = 2, 3 splits: 2 * 3^4 (1 - 3^-2)^2
        assert cusp_count(F7, 9) == 6480   # 3 inert: 9^4 (1 - 3^-4)

    def test_eis_dim(self):
        # the worst-case window of the degree-1 Eisenstein trace is c
        for f, N, k in ((F2, 3, 1), (F7, 3, 2), (F2, 5, 1)):
            rep = cusp_lower_bound(f, N, k)
            assert rep.mode == "worst_case"
            assert rep.tr1_window == cusp_count(f, N)


class TestDegreeTwoTraces:
    def test_sigma_frozen(self):
        assert trace_h2_eis(F7, 9, 1, "sigma") == -72
        assert trace_h2_eis(F7, 3, 0, "sigma") == -7    # -8 plus the weight-zero 1
        assert trace_h2_eis(F5, 3, 1, "sigma") == -16   # t = 2

    def test_tau_frozen(self):
        assert trace_h2_eis(F7, 3, 1, "tau") == -2
        assert trace_h2_eis(F7, 9, 1, "tau") == -18
        assert trace_h2_eis(F2, 1, 1, "tau") == -1      # level one

    def test_level_one_consistency(self):
        for f in (F2, F5, F7, F11):
            assert trace_h2_eis(f, 1, 0, "sigma") == level_one_sigma_traces(f, 0).tr2

    def test_rejects_ramified_levels(self):
        # `table` records carry these messages, so their wording is pinned
        with pytest.raises(InputError, match="^trace_sigma_h2_eis requires unramified level; "
                                             "5 ramifies in "):
            trace_h2_eis(F5, 5, 1, "sigma")
        with pytest.raises(InputError, match=r"^trace_tau_h2_eis requires N >= 3 \(or N = 1\), "
                                             "got 2$"):
            trace_h2_eis(F2, 2, 1, "tau")
        with pytest.raises(InputError, match="unknown involution"):
            trace_h2_eis(F2, 1, 1, "rho")

    def test_magnitude_within_eisenstein_dimension(self):
        for f, N in ((F2, 3), (F7, 3), (F5, 3), (F7, 9), (F2, 5)):
            dim = cusp_count(f, N)
            assert abs(trace_h2_eis(f, N, 1, "sigma")) <= dim
            assert abs(trace_h2_eis(f, N, 1, "tau")) <= dim

    def test_fixed_coset_formula(self):
        assert [fixed_coset_formula(3, n, "sigma") for n in (1, 2)] == [8, 72]
        assert [fixed_coset_formula(3, n, "tau") for n in (1, 2)] == [2, 18]
        with pytest.raises(InputError):
            fixed_coset_formula(3, 1, "rho")

    def test_fixed_coset_formula_refuses_a_power_past_the_memory_budget(self):
        # 5^(2 * 10^10) would take about 5.8 GB; it is refused, not computed
        for involution in ("sigma", "tau"):
            with pytest.raises(InputError, match=r"5\^20000000000 needs .* budget"):
                fixed_coset_formula(5, 10**10, involution)

    def test_fixed_coset_formula_refuses_an_unprintable_count_before_computing(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        for involution in ("sigma", "tau"):
            with pytest.raises(InputError, match=r"^the fixed coset count at 5\^3000000 has "
                                                 r"more than 4300 digits"):
                fixed_coset_formula(5, 3 * 10**6, involution)
        assert len(str(fixed_coset_formula(5, 3000, "tau"))) == 4194      # still computed


class TestLevelOneTraces:
    def test_weight_zero_frozen(self):
        assert (lambda r: (r.tr0, r.tr1, r.tr2))(level_one_sigma_traces(F5, 0)) == (1, -2, -1)
        assert (lambda r: (r.tr0, r.tr1, r.tr2))(level_one_sigma_traces(F2, 0)) == (1, -1, 0)
        r = level_one_sigma_traces(make_field(-105), 0)
        assert (r.tr0, r.tr1, r.tr2) == (1, -8, -7)

    def test_positive_weight_window(self):
        r = level_one_sigma_traces(F5, 3)
        assert (r.tr0, r.tr1, r.tr2) == (0, None, -2)


class TestDegreeOneTraces:
    def test_frozen_values(self):
        assert trace_sigma_h1_eis(F2, 5, 1) == -26
        assert trace_sigma_h1_eis(F2, 5, 2) == -600
        assert trace_sigma_h1_eis(F11, 2, 1) == -5    # 2 inert: -11 = 5 mod 8

    def test_preconditions(self):
        with pytest.raises(InputError):
            trace_sigma_h1_eis(F5, 3, 1)     # h = 2
        with pytest.raises(InputError):
            trace_sigma_h1_eis(F2, 3, 1)     # 3 splits in Q(sqrt(-2))


class TestSczechOperator:
    def test_literal_character_rejected(self):
        assert variant_periodicity_defect(F2, LITERAL_D) > 1
        with pytest.raises(IllDefinedVariantError):
            sczech_operator(F2, 2, LITERAL_D)

    def test_at_least_one_variant_constructs(self):
        built = 0
        for v in CHARACTER_VARIANTS:
            try:
                sczech_operator(F2, 2, v)
                built += 1
            except IllDefinedVariantError:
                pass
        assert built >= 1

    def test_diagonal_at_n2(self, tmp_path):
        m = dense_from_dump(sczech_operator(F2, 2), tmp_path / "dump.txt")
        assert np.allclose(np.diag(m), -1 / 3)

    def test_trace_and_involution_default_variant(self):
        for d, N in ((-2, 2), (-2, 3), (-2, 4), (-2, 5), (-7, 2), (-7, 3)):
            op = sczech_operator(make_field(d), N)
            tr = op.trace()
            assert abs(tr.real + (N * N + 1)) < 1e-8
            assert abs(tr.imag) < 1e-9
            assert op.involution_defect() < 1e-9

    def test_operator_is_hermitian_under_default_variant(self, tmp_path):
        m = dense_from_dump(sczech_operator(F7, 3), tmp_path / "dump.txt")
        assert np.abs(m - m.conj().T).max() < 1e-14

    def test_inverse_different_misses_trace_at_odd_levels(self):
        tr = sczech_trace(F2, 3, INVERSE_DIFFERENT)
        assert abs(tr.value - tr.expected) > 1     # diagonal pairing nonzero
        assert abs(tr.imag) < 1e-9                 # trace still real
        # at N = 2 the two admissible variants coincide (negation is trivial)
        tr2 = sczech_trace(F2, 2, INVERSE_DIFFERENT)
        assert abs(tr2.value + 5) < 1e-8

    def test_gram_literals_match_the_definition(self):
        basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        for d in (-2, -5, -6, -7, -11, -19, -23, -163):
            f = make_field(d)
            for N in range(2, 30):
                for variant in ADMISSIBLE:
                    want = tuple(tuple(pairing(f, N, variant, x, z) for z in basis)
                                 for x in basis)
                    assert sczech_operator(f, N, variant).gram == want

    def test_inverse_different_trace_is_field_free(self):
        # its Gram matrix is symmetric and free of T: q(x) = 2 (x1 x2 - x0 x3)
        for N in range(2, 8):
            traces = {sczech_trace(make_field(d), N, INVERSE_DIFFERENT).value
                      for d in (-2, -5, -7, -11, -19)}
            assert len(traces) == 1
            assert abs(traces.pop() - (-5 if N % 2 == 0 else -2)) < 1e-9

    def test_matches_closed_degree_one_trace(self):
        tr = sczech_trace(F2, 5)
        assert abs(tr.value - trace_sigma_h1_eis(F2, 5, 1)) < 1e-8

    def test_size_guard(self, tmp_path, monkeypatch):
        op = sczech_operator(F2, 11)       # matrix-free: O(N^2) only
        assert op.trace() == -(11 * 11 + 1)
        tracemalloc.start()
        try:
            with pytest.raises(InputError):
                write_matrix_dump(op, str(tmp_path / "dump.txt"))   # a file of about 12 GB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20                 # refused before allocating
        assert not (tmp_path / "dump.txt").exists()
        # the dump is charged the bytes of its file, not of a dense matrix:
        # N = 9 (6560^2 lines, about 2 GB) is refused, N = 4 (2.6 MB) is written
        with pytest.raises(InputError, match="dump file"):
            write_matrix_dump(sczech_operator(F2, 9), str(tmp_path / "dump.txt"))
        assert not (tmp_path / "dump.txt").exists()
        write_matrix_dump(sczech_operator(F2, 4), str(tmp_path / "dump.txt"))
        assert (tmp_path / "dump.txt").stat().st_size == 2587260
        # 256 * 2048^2 bytes: the whole 1 GiB budget, which the construction's
        # own O(N^2) kernel count would spend, so that count is stubbed here
        with monkeypatch.context() as m:
            m.setattr(SczechOperator, "_kernel_size", lambda self, rows: 1)
            sczech_operator(F2, 2048)
        with pytest.raises(InputError):
            sczech_operator(F2, 2049)       # 256 * 2049^2 bytes: over it

    def test_matrix_free_matches_dense(self, tmp_path):
        for f in (F2, F5, F7, F11):
            for N in (2, 3, 4):
                for variant in ADMISSIBLE:
                    op = sczech_operator(f, N, variant)
                    m = dense_reference(f, N, variant)
                    assert np.array_equal(dense_from_dump(op, tmp_path / "dump.txt"), m)
                    assert abs(op.trace() - np.trace(m)) < 1e-12
                    defect = np.abs(m @ m - np.eye(len(m))).max()
                    assert abs(op.involution_defect() - defect) < 1e-12

    def test_singular_gram_refused_at_construction(self, tmp_path):
        # A x = 0 for some x != 0 mod N: zero, diag(1, 0, 0, 0) and a zero row
        # at every level, 2I at even levels only
        zero, first, twice, zero_row = DEGENERATE_GRAMS
        for N in range(2, 8):
            for gram in (zero, first, zero_row) + ((twice,) if N % 2 == 0 else ()):
                with pytest.raises(InputError, match=f"singular mod {N}"):
                    SczechOperator(N, gram)
        op = SczechOperator(3, twice)                 # perfect at odd levels
        m = dense_from_dump(op, tmp_path / "dump.txt")
        assert abs(op.involution_defect() - np.abs(m @ m - np.eye(len(m))).max()) < 1e-12

    def test_large_level_exact(self):
        op = sczech_operator(F2, 30)
        assert op.trace() == -901
        assert op.involution_defect() < 1e-9

    def test_level_past_the_quartic_guard(self):
        # 72^4 = 2.7e7 residue quadruples, and nothing of that size is held
        op = sczech_operator(F2, 72)
        assert op.trace() == -(72 * 72 + 1)
        assert op.involution_defect() == 0.0

    def test_trace_and_defect_memory(self):
        # O(N^2) held: two count lists of N^4 slots would take about 49 MB
        op = sczech_operator(F2, 40)
        tracemalloc.start()
        try:
            assert op.trace() == -1601
            assert op.involution_defect() == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("f", [F2, F7])
    def test_charge_bounds_the_peak(self, f):
        # A first run fills the interpreter's tuple free lists, which
        # tracemalloc goes on counting as held, so the traced run is the second.
        def run():
            op = sczech_operator(f, 30, DEFAULT_VARIANT)
            op.trace()
            op.involution_defect()
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= eisenstein._BYTES_PER_PAIR * 30**2

    def test_matrix_dump_byte_identical_to_dense(self, tmp_path):
        for N in (2, 3, 4):
            for variant in ADMISSIBLE:
                path = tmp_path / "dump.txt"
                write_matrix_dump(sczech_operator(F7, N, variant), str(path))
                got = hashlib.sha256(path.read_bytes()).hexdigest()
                want = dump_sha256(dense_reference(F7, N, variant), tmp_path / "ref.txt")
                assert got == want

    @pytest.mark.parametrize("make, size, digest", [
        (lambda: sczech_operator(F7, 5, DEFAULT_VARIANT), 18172752,
         "d6eda92d3c6dd66c2b31d64de2a2c2b538070b735acfdca13d0ab9d95373a22f"),
        (lambda: sczech_operator(F7, 5, INVERSE_DIFFERENT), 18172752,
         "c94159d50cb5ed3439a82f04595a77bda34a0aafdc9693d6035d4e1df800b893"),
        (lambda: sczech_operator(F2, 6), 80769190,
         "e02ac6c05973782bb46b316343ea374e42e94674b46080a2c39cd657ec27c48c"),
    ], ids=["d-7-N5-symplectic", "d-7-N5-invdiff", "d-2-N6"])
    def test_matrix_dump_pinned_past_the_dense_tests(self, tmp_path, make, size, digest):
        # pins taken from the writer that formatted each entry on its own,
        # for levels past the dense references (N <= 4)
        path = tmp_path / "dump.txt"
        write_matrix_dump(make(), str(path))
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(2**20), b""):
                h.update(chunk)
        assert (path.stat().st_size, h.hexdigest()) == (size, digest)
        path.unlink()                      # up to 81 MB; tmp_path outlives the test

    def test_dump_table_charge_bounds_the_peak(self):
        op = sczech_operator(F2, 5)
        tracemalloc.start()
        try:
            write_matrix_dump(op, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= eisenstein._BYTES_PER_CELL * 5**7     # 1.1 of 1.8 MiB

    def test_vectorized_matrix_matches_scalar_mirror(self, tmp_path):
        # scalar re-derivation of every entry, guarding the row/column
        # orientation of the Gram matrix and of the exponent tables
        import cmath

        for d in (-2, -7):
            f = make_field(d)
            T = f.omega_trace
            for variant in (INVERSE_DIFFERENT, "symplectic-invdiff"):
                op = sczech_operator(f, 2, variant)
                m = dense_from_dump(op, tmp_path / "dump.txt")
                N = 2

                def y(x, z):
                    return x[0] * z[1] + x[1] * z[0] + T * x[1] * z[1]

                def conj(z):
                    return ((z[0] + T * z[1]) % N, (-z[1]) % N)

                indices = list(product(range(N), repeat=4))[1:]     # zero is no index
                for i, row in enumerate(indices):
                    alpha, beta = (row[0], row[1]), (row[2], row[3])
                    for j, col in enumerate(indices):
                        gamma, delta = (col[0], col[1]), (col[2], col[3])
                        if variant == INVERSE_DIFFERENT:
                            gamma, delta = conj(gamma), conj(delta)
                        e = (y(alpha, delta) - y(beta, gamma)) % N
                        want = -1 / (N**2 * (N**2 - 1)) \
                            - cmath.exp(2j * cmath.pi * e / N) / N**2
                        assert abs(m[i, j] - want) < 1e-14

    def test_matrix_dump_roundtrip(self, tmp_path):
        op = sczech_operator(F2, 2)
        path = tmp_path / "matrix.txt"
        write_matrix_dump(op, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 15 * 15
        i, j, re, im = lines[0].split()
        assert (i, j) == ("0", "0")
        assert abs(float(re) + 1 / 3) < 1e-15
        last = lines[-1].split()
        assert (last[0], last[1]) == ("14", "14")


# The earlier array routes, kept here as references for the integer routes.

def gram_by_arrays(field, N, variant):
    """The Gram matrix as outer products of the pairing on the identity's rows."""
    T = field.omega_trace
    a1, b1, a2, b2 = np.eye(4, dtype=np.int64)

    def y_prod(x1, x2, z1, z2):
        return (np.multiply.outer(x1, z2) + np.multiply.outer(x2, z1)
                + T * np.multiply.outer(x2, z2))

    if variant == DEFAULT_VARIANT:
        d1, d2, g1, g2 = a2, b2, a1, b1
    else:
        d1, d2 = (a2 + T * b2) % N, (-b2) % N
        g1, g2 = (a1 + T * b1) % N, (-b1) % N
    return np.mod(y_prod(a1, b1, d1, d2) - y_prod(a2, b2, g1, g2), N)


def index_array(N):
    return np.indices((N,) * 4).reshape(4, -1).T[1:]


def trace_by_arrays(gram, N):
    n2, x = N**2, index_array(N)
    counts = np.bincount((x @ gram * x).sum(axis=1) % N, minlength=N)
    exact = -Fraction(n2 * n2 - 1, n2 * (n2 - 1)) - Fraction(int(counts[0]), n2)
    roots = np.exp(2j * np.pi * np.arange(1, N) / N)
    return float(exact) - complex(counts[1:] @ roots) / n2


def defect_by_arrays(gram, N):
    x = index_array(N)
    size, n2, n4 = len(x), N**2, N**4
    place = N ** np.arange(3, -1, -1)
    u = -(x @ gram) % N @ place
    v = x @ gram.T % N @ place
    cu, cv = np.bincount(u, minlength=n4), np.bincount(v, minlength=n4)
    u0, v0, matched = int(cu[0]), int(cv[0]), int(cu[1:] @ cv[1:])
    total = {0b000: (size - u0) * (size - v0) - matched, 0b001: matched,
             0b010: (size - u0) * v0, 0b100: u0 * (size - v0), 0b111: u0 * v0}
    diagonal = np.bincount(4 * (u == 0) + 2 * (v == 0) + (u == v), minlength=8)
    a = Fraction(1, n2 * (n2 - 1))

    def entry(code, eq):
        r_sum, dlt = (code >> 2) + (code >> 1 & 1), code & 1
        return a * a * size + a / n2 * (n4 * r_sum - 2) + dlt - Fraction(1, n4) - eq

    occurring = [entry(c, 1) for c in range(8) if diagonal[c]]
    occurring += [entry(c, 0) for c, n in total.items() if n > diagonal[c]]
    return float(max(abs(e) for e in occurring))


class TestAgainstArrayRoutes:
    # The float tail of the trace is a sum whose order differs from the array
    # dot product's; any count that differed would move it by >= 1/N^2.
    def test_fields(self):
        for d in (-2, -5, -7, -11, -19, -43):
            f = make_field(d)
            for N in range(2, 8):
                for variant in ADMISSIBLE:
                    op = sczech_operator(f, N, variant)
                    gram = gram_by_arrays(f, N, variant)
                    assert op.gram == tuple(map(tuple, gram.tolist()))
                    assert all(type(a) is int for row in op.gram for a in row)
                    assert abs(op.trace() - trace_by_arrays(gram, N)) < 1e-12
                    assert op.involution_defect() == defect_by_arrays(gram, N)

    def test_entry_values_bit_equal(self):
        # the dump prints these with 17 digits, so they must agree to the bit
        for N in range(2, 65):
            n2 = N * N
            want = -1.0 / (n2 * (n2 - 1)) - np.exp(2j * np.pi * np.arange(N) / N) / n2
            got = SczechOperator(N, np.eye(4, dtype=np.int64))._entry_values()
            assert [repr(z) for z in got] == [repr(z) for z in want.tolist()]
