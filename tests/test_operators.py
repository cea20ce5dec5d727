"""Hamiltonian family builders: term structure, algebra, the sparse entry list."""

import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qbmlab.operators as operators
import qbmlab.training as training
from qbmlab.linalg import gibbs_state
from qbmlab.operators import (
    PAULI,
    QUBIT_CAPS,
    _ladder_product,
    _masked_parity,
    _nonzeros,
    _scatter,
    _term,
    HamiltonianModel,
    Term,
    assemble_hamiltonian,
    build_classical_bm,
    build_complete_pauli_set,
    build_fermionic_model,
    build_mean_field,
    build_model,
    build_transverse_ising_complete,
    pauli_matrix,
)
from qbmlab.training import OptimizerConfig, PovmTrainingSet, StateTrainingSet, train

from conftest import ENTRY_LIST_MODELS, entry_list_model, random_density, random_full_rank_povm, random_hermitian

ALL_FAMILIES = ("classical_bm", "ti_complete", "pauli_complete", "mean_field", "fermionic")


class TestPauliMatrix:
    def test_identity(self):
        assert np.allclose(pauli_matrix("I"), np.eye(2))

    def test_zz_diagonal(self):
        assert np.allclose(pauli_matrix("ZZ"), np.diag([1, -1, -1, 1]))

    def test_squares_to_identity(self):
        m = pauli_matrix("XY")
        assert np.allclose(m @ m, np.eye(4))

    def test_qubit_zero_leftmost(self):
        assert np.allclose(pauli_matrix("XI"), np.kron(pauli_matrix("X"), np.eye(2)))

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            pauli_matrix("XQ")


class TestTerm:
    # A transposed C-ordered array is Fortran-ordered, and so is np.asarray
    # of it; the Hermiticity check must neither write into it nor misjudge it.
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "not_hermitian"])
    def test_fortran_ordered_input_untouched(self, hermitian, rng):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        base = raw + raw.conj().T if hermitian else raw
        source = base.T
        assert source.flags.f_contiguous and not source.flags.c_contiguous
        snapshot = source.copy()
        if hermitian:
            term = Term("h", source)
            assert np.array_equal(term.matrix, snapshot)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                Term("h", source)
        assert np.array_equal(source, snapshot)
        assert np.array_equal(base, snapshot.T)

    def test_real_fortran_ordered_input_untouched(self, rng):
        raw = rng.standard_normal((4, 4))
        base = raw + raw.T
        source = base.T
        snapshot = source.copy()
        term = Term("s", source)
        assert np.array_equal(term.matrix, snapshot)
        assert term.is_quantum
        assert np.array_equal(source, snapshot)
        assert np.array_equal(base, snapshot.T)

    def test_transpose_of_read_only_term_matrix(self):
        first = Term("y", pauli_matrix("Y"))
        second = Term("yT", first.matrix.T)
        assert np.array_equal(second.matrix, pauli_matrix("Y").T)
        assert np.array_equal(first.matrix, pauli_matrix("Y"))

    def test_leaves_caller_array_writeable(self, rng):
        Term("z", PAULI["Z"])
        assert PAULI["Z"].flags.writeable
        # complex128 already, so np.asarray hands back the caller's own array
        source = random_hermitian(4, rng)
        term = Term("h", source)
        assert source.flags.writeable and not term.matrix.flags.writeable
        source[0, 0] += 1.0
        assert not np.array_equal(term.matrix, source)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        matrix = np.eye(2, dtype=np.complex128)
        matrix[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Term("bad", matrix)
        matrix = np.full((2, 2), bad)
        with pytest.raises(ValueError, match="non-finite"):
            Term("bad", matrix)


def _dense_reference(matrix):
    """The dense term checks: the verdict and, if accepted, the quantum flag.

    max |m - m^| over every entry, non-finite first, then the 1e-12
    Hermiticity bound, then the largest off-diagonal magnitude.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    with np.errstate(invalid="ignore"):  # inf - inf
        worst = np.abs(m - m.conj().T).max()
    if not np.isfinite(worst):
        return "non-finite", None
    if worst > 1e-12:
        return "not Hermitian", None
    magnitudes = np.abs(m)
    np.fill_diagonal(magnitudes, 0.0)
    return "ok", bool(magnitudes.max() > 1e-12)


def _entry_built(label, matrix):
    """Term through the entry constructor: every position, zeros included, in a scrambled order."""
    m = np.asarray(matrix)
    order = np.random.default_rng(0).permutation(m.size)
    rows, cols = np.divmod(order, m.shape[1])
    return _term(label, m.shape[0], rows, cols, m.ravel()[order])


# The two ways into a term: a dense matrix, or the entries the builders hand over.
TERM_PATHS = {"dense": Term, "entries": _entry_built}


def _term_check(matrix, path="dense"):
    """The same verdict and flag from a Term made on the given path."""
    try:
        term = TERM_PATHS[path]("t", matrix)
    except ValueError as err:
        return ("non-finite" if "non-finite" in str(err) else "not Hermitian"), None
    return "ok", term.is_quantum


def _with_entries(dim, entries, dtype=np.complex128):
    matrix = np.zeros((dim, dim), dtype=dtype)
    for (r, c), value in entries.items():
        matrix[r, c] = value
    return matrix


_JUST_ABOVE = np.nextafter(1e-12, 1.0)

# name -> (matrix, expected verdict and flag); the dense reference must agree
TERM_CHECK_CASES = {
    "mirror_zero": (_with_entries(3, {(0, 2): 1e-3}), ("not Hermitian", None)),
    "mirror_zero_below_tol": (_with_entries(3, {(0, 2): 1e-13}), ("ok", False)),
    "defect_at_tol": (_with_entries(3, {(1, 0): 1e-12, (2, 2): 1.0}), ("ok", False)),
    "defect_above_tol": (_with_entries(3, {(1, 0): _JUST_ABOVE}), ("not Hermitian", None)),
    "conjugate_pair_defect_at_tol": (
        _with_entries(2, {(0, 1): 1.0 + 0.5e-12j, (1, 0): 1.0 + 0.5e-12j}), ("ok", True)),
    "imaginary_diagonal_at_tol": (_with_entries(2, {(1, 1): 0.5e-12j}), ("ok", False)),
    "imaginary_diagonal": (_with_entries(2, {(0, 0): 1.0, (1, 1): 1.0 + 1e-3j}),
                           ("not Hermitian", None)),
    "nan_mirror_zero": (_with_entries(3, {(0, 2): np.nan}), ("non-finite", None)),
    "inf_mirror_zero": (_with_entries(3, {(2, 0): np.inf}), ("non-finite", None)),
    "imaginary_inf_mirror_zero": (_with_entries(3, {(0, 1): complex(0.0, np.inf)}),
                                  ("non-finite", None)),
    "inf_on_both_sides": (_with_entries(2, {(0, 1): np.inf, (1, 0): np.inf}),
                          ("non-finite", None)),
    "inf_diagonal": (_with_entries(2, {(1, 1): np.inf}), ("non-finite", None)),
    "negative_zeros": (_with_entries(3, {(0, 1): -0.0, (1, 0): 0.0, (2, 2): -0.0,
                                         (1, 2): complex(-0.0, -0.0)}), ("ok", False)),
    "negative_zero_mirror": (_with_entries(2, {(0, 1): 2.0, (1, 0): -0.0}),
                             ("not Hermitian", None)),
    "real_symmetric": (_with_entries(3, {(0, 1): 0.5, (1, 0): 0.5, (2, 2): -1.0}, np.float64),
                       ("ok", True)),
    "real_not_symmetric": (_with_entries(3, {(0, 1): 0.5, (1, 0): 0.25}, np.float64),
                           ("not Hermitian", None)),
    "fortran_hermitian": (np.asfortranarray(pauli_matrix("YX")), ("ok", True)),
    "fortran_not_hermitian": (np.asfortranarray(_with_entries(4, {(3, 0): 1j, (0, 3): 1j})),
                              ("not Hermitian", None)),
    "fortran_real": (np.asfortranarray(_with_entries(2, {(0, 1): 1.0, (1, 0): 1.0}, np.float64)),
                     ("ok", True)),
    "all_zero": (np.zeros((4, 4)), ("ok", False)),
    "diagonal": (np.diag([1.0, -2.0, 0.0, 3.0]), ("ok", False)),
}


class TestTermCheck:
    """The one-pass check over the nonzeros against the dense reference, on both paths."""

    @pytest.mark.parametrize("name", TERM_CHECK_CASES)
    def test_matches_dense_reference(self, name):
        matrix, expected = TERM_CHECK_CASES[name]
        assert _dense_reference(matrix) == expected
        assert _term_check(matrix) == _term_check(matrix, "entries") == expected
        messages = set()
        for make in TERM_PATHS.values():
            try:
                make("t", matrix)
            except ValueError as err:
                messages.add(str(err))
        assert len(messages) == (expected[0] != "ok")  # both paths reject with one message

    def test_random_sparse_near_hermitian(self, rng):
        # sparse patterns with unmatched mirrors and defects around 1e-12
        for _ in range(300):
            dim = int(rng.integers(1, 6))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            matrix = np.where(rng.random((dim, dim)) < 0.4, a + a.conj().T, 0.0)
            scale = 10.0 ** rng.integers(-14, -10)
            noise = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            matrix = matrix + np.where(rng.random((dim, dim)) < 0.3, noise, 0.0)
            verdict = _dense_reference(matrix)
            assert _term_check(matrix) == _term_check(matrix, "entries") == verdict
            if verdict[0] == "ok":
                dense, built = Term("d", matrix), _entry_built("e", matrix)
                assert dense.nonzeros.flat.tobytes() == built.nonzeros.flat.tobytes()
                assert dense.nonzeros.values.tobytes() == built.nonzeros.values.tobytes()

    def test_rejects_empty_and_non_square(self):
        for matrix in (np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(4)):
            with pytest.raises(ValueError, match="square"):
                Term("bad", matrix)

    def test_no_runtime_warning_on_inf(self):
        with np.errstate(all="raise"):
            for make in TERM_PATHS.values():
                for name in ("inf_on_both_sides", "inf_diagonal", "inf_mirror_zero", "imaginary_inf_mirror_zero"):
                    with pytest.raises(ValueError, match="non-finite"):
                        make("bad", TERM_CHECK_CASES[name][0])

    def test_entries_sum_duplicates_and_drop_zeros(self):
        # X as two halves at (0, 1), a cancelling pair at (1, 1) and an explicit zero at (0, 0)
        term = _term("x", 2, [0, 1, 1, 0, 1, 0], [1, 1, 0, 1, 1, 0], [0.5, 2.0, 1.0, 0.5, -2.0, 0.0])
        assert term.nonzeros.flat.tolist() == [1, 2]
        assert term.nonzeros.values.dtype == np.complex128
        assert np.array_equal(term.matrix, pauli_matrix("X")) and term.is_quantum
        with pytest.raises(ValueError, match="invalid entry"):
            _term("x", 2, [2], [0], [1.0])

    def test_dense_matrix_built_on_first_use_read_only(self):
        term = build_model("mean_field", 1).terms[1]
        assert "matrix" not in vars(term)
        matrix = term.matrix
        assert term.matrix is matrix and not matrix.flags.writeable
        assert np.array_equal(matrix, pauli_matrix("Y"))
        with pytest.raises(Exception):
            term.matrix = np.zeros((2, 2))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_no_dense_term_on_the_hot_path(self, family, monkeypatch):
        # build, the entry list, then one epoch of every gradient kind but the sampled one,
        # which measures in the terms' eigenbases and so reads their dense matrices
        nv, nh = (2, 1) if family in ("classical_bm", "fermionic") else (2, 0)
        rng = np.random.default_rng(5)
        data = {StateTrainingSet: StateTrainingSet(random_density(2**nv, rng)),
                PovmTrainingSet: random_full_rank_povm(2**nv, rng)}
        calls = []
        for name in ("_nonzeros", "_scatter"):
            monkeypatch.setattr(operators, name, lambda *args, name=name: calls.append(name))
        model = build_model(family, nv, nh)
        model.entries
        for kind, (data_type, _) in training._GRADIENTS.items():
            if kind != "relent_sampled":
                trace = train(model, np.zeros(model.n_terms), data[data_type], OptimizerConfig(kind, epochs=1))
                assert len(trace.records) == 2 and not trace.diverged, kind
        assert calls == []
        assert all("matrix" not in vars(term) for term in model.terms)

    def test_building_holds_no_dense_term(self):
        # one dense 512 x 512 term would take 4 MiB
        tracemalloc.start()
        try:
            build_model("ti_complete", 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512 * 16


class TestClassicalBm:
    def test_single_number_operator(self):
        m = build_classical_bm(1)
        assert len(m.terms) == 1
        assert np.allclose(m.terms[0].matrix, np.diag([0.0, 1.0]))

    def test_edge_coupling_matrix(self):
        m = build_classical_bm(2)
        coupling = m.terms[-1].matrix
        assert np.allclose(coupling, np.diag([0.0, 0.0, 0.0, 1.0]))

    def test_zero_theta_zero_hamiltonian(self):
        m = build_classical_bm(2)
        assert np.allclose(assemble_hamiltonian(m, np.zeros(3)), np.zeros((4, 4)))

    def test_frozen_two_site_assembly(self):
        # b = (1, 1), w = 1 over basis 00,01,10,11
        m = build_classical_bm(2)
        h = assemble_hamiltonian(m, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(h, np.diag([0.0, 1.0, 1.0, 3.0]))

    def test_all_terms_classical(self):
        m = build_classical_bm(3)
        assert all(not t.is_quantum for t in m.terms)


class TestTransverseIsing:
    def test_term_count_and_order_n2(self):
        m = build_transverse_ising_complete(2)
        labels = [t.label for t in m.terms]
        assert len(labels) == 5
        # all Z, then all X, then ZZ pairs
        assert [l[0] for l in labels] == ["Z", "Z", "X", "X", "Z"]

    def test_term_count_n5(self):
        assert len(build_transverse_ising_complete(5).terms) == 20

    def test_x_term_is_quantum(self):
        m = build_transverse_ising_complete(2)
        x_terms = [t for t in m.terms if t.label.startswith("X")]
        assert len(x_terms) == 2
        for t in x_terms:
            assert t.is_quantum
            assert np.allclose(np.diag(t.matrix), 0.0)

    def test_zz_lexicographic(self):
        m = build_transverse_ising_complete(3)
        zz = [t.label for t in m.terms[6:]]
        assert zz == sorted(zz)


class TestCompletePauliSet:
    def test_one_qubit(self):
        labels = [t.label for t in build_complete_pauli_set(1).terms]
        assert labels == ["X", "Y", "Z"]

    def test_two_qubit_count(self):
        m = build_complete_pauli_set(2)
        assert len(m.terms) == 15
        assert len({t.label for t in m.terms}) == 15

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            build_complete_pauli_set(7)


class TestMeanField:
    def test_one_qubit_matches_complete_set(self):
        mf = build_mean_field(1)
        cp = build_complete_pauli_set(1)
        for a, b in zip(mf.terms, cp.terms):
            assert np.allclose(a.matrix, b.matrix)

    def test_term_count(self):
        assert len(build_mean_field(4).terms) == 12

    def test_zero_theta_maximally_mixed(self):
        m = build_mean_field(2)
        rho, _ = gibbs_state(assemble_hamiltonian(m, np.zeros(6)))
        assert np.allclose(rho, np.eye(4) / 4)

    def test_gibbs_factorizes_100_draws(self, rng):
        m = build_mean_field(2)
        for _ in range(100):
            theta = rng.normal(size=6)
            rho, _ = gibbs_state(assemble_hamiltonian(m, theta))
            h0 = theta[0] * pauli_matrix("X") + theta[1] * pauli_matrix("Y") + theta[2] * pauli_matrix("Z")
            h1 = theta[3] * pauli_matrix("X") + theta[4] * pauli_matrix("Y") + theta[5] * pauli_matrix("Z")
            prod = np.kron(gibbs_state(h0)[0], gibbs_state(h1)[0])
            assert np.linalg.norm(rho - prod) < 1e-10


class TestJordanWigner:
    """Canonical anticommutation of _kron_annihilator, the oracle of every fermionic term."""

    def test_single_mode_ladder(self):
        a = _kron_annihilator(0, 1)
        ket0, ket1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.allclose(a @ ket1, ket0)
        assert np.allclose(a @ ket0, 0.0)
        assert np.allclose(a.conj().T @ ket0, ket1)

    def test_cross_mode_anticommutator_vanishes(self):
        a0 = _kron_annihilator(0, 2)
        a1 = _kron_annihilator(1, 2)
        anti = a0 @ a1.conj().T + a1.conj().T @ a0
        assert np.allclose(anti, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_canonical_anticommutation(self, n):
        ops = [_kron_annihilator(p, n) for p in range(n)]
        eye = np.eye(2**n)
        for p, q in itertools.product(range(n), repeat=2):
            aa = ops[p] @ ops[q] + ops[q] @ ops[p]
            assert np.allclose(aa, 0.0, atol=1e-12)
            ad = ops[p] @ ops[q].conj().T + ops[q].conj().T @ ops[p]
            assert np.allclose(ad, (1.0 if p == q else 0.0) * eye, atol=1e-12)


class TestFermionicModel:
    def test_one_mode_term_count(self):
        m = build_fermionic_model(2)
        assert sum(1 for t in m.terms if t.label.startswith("a")) == 2

    def test_diagonal_reduction_matches_classical_bm(self):
        # zeroing every off-diagonal term leaves the number-operator sub-family
        m = build_fermionic_model(3)
        classical = build_classical_bm(3)
        by_label = {t.label: i for i, t in enumerate(m.terms)}
        theta = np.zeros(len(m.terms))
        diag_labels = [t.label for t in m.terms if not t.is_quantum]
        assert len(diag_labels) == len(classical.terms)
        coeffs = np.arange(1.0, len(diag_labels) + 1)
        for label, c in zip(diag_labels, coeffs):
            theta[by_label[label]] = c
        h_f = assemble_hamiltonian(m, theta)
        h_c = assemble_hamiltonian(classical, coeffs)
        assert np.allclose(h_f, np.diag(np.diag(h_f)))
        assert np.allclose(h_f, h_c, atol=1e-12)

    def test_interaction_terms_hermitian_traceless(self):
        m = build_fermionic_model(4)
        quads = [t for t in m.terms if t.label.startswith("int(")]
        assert quads
        for t in quads:
            assert np.allclose(t.matrix, t.matrix.conj().T, atol=1e-12)
            if t.is_quantum:
                assert abs(np.trace(t.matrix)) < 1e-12

    def test_one_mode_and_hopping_unit_norm(self):
        m = build_fermionic_model(3)
        for t in m.terms:
            if t.label.startswith("a") or t.label.startswith("hop("):
                assert abs(np.linalg.norm(t.matrix, 2) - 1.0) < 1e-12

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_fermionic_model(1)


class TestEveryBuilder:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_terms_hermitian_and_flagged(self, family):
        m = build_model(family, 2, 1 if family in ("classical_bm", "fermionic") else 0)
        for t in m.terms:
            assert np.allclose(t.matrix, t.matrix.conj().T, atol=1e-12)
            off = t.matrix - np.diag(np.diag(t.matrix))
            assert t.is_quantum == bool(np.max(np.abs(off)) > 1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_assemble_unit_vector_and_linearity(self, family, rng):
        m = build_model(family, 2)
        k = len(m.terms) // 2
        e_k = np.zeros(len(m.terms))
        e_k[k] = 1.0
        assert np.allclose(assemble_hamiltonian(m, e_k), m.terms[k].matrix)
        t1 = rng.normal(size=len(m.terms))
        t2 = rng.normal(size=len(m.terms))
        lhs = assemble_hamiltonian(m, t1) + assemble_hamiltonian(m, t2)
        assert np.allclose(lhs, assemble_hamiltonian(m, t1 + t2), atol=1e-12)

    def test_theta_length_checked(self):
        m = build_mean_field(2)
        with pytest.raises(ValueError):
            assemble_hamiltonian(m, np.zeros(5))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_model("heisenberg", 2)


class TestSerialization:
    def test_model_immutable(self):
        m = build_mean_field(1)
        with pytest.raises(Exception):
            m.n_visible = 3
        assert isinstance(m, HamiltonianModel)


# Term-construction oracles: every term as the dense np.kron chains of the
# 2x2 PAULI matrices and products of kron-built Jordan-Wigner annihilators.


def _kron_word(word):
    out = np.ones((1, 1), dtype=np.complex128)
    for ch in word:
        out = np.kron(out, PAULI[ch])
    return out


def _site_word(n, letters):
    return "".join(letters.get(k, "I") for k in range(n))


def _kron_annihilator(p, n):
    """a_p = Z^{(x)p} (x) (X + iY)/2 (x) I^{(x)(n-p-1)}, so a_p|1>_p = |0>_p."""
    lower = (PAULI["X"] + 1j * PAULI["Y"]) / 2.0
    factors = [PAULI["Z"]] * p + [lower] + [PAULI["I"]] * (n - p - 1)
    out = np.ones((1, 1), dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


def _kron_number(site, n):
    return (_kron_word("I" * n) - _kron_word(_site_word(n, {site: "Z"}))) / 2.0


def _oracle_classical_bm(n):
    terms = [(f"n{j}", _kron_number(j, n)) for j in range(n)]
    terms += [(f"n{i}n{j}", _kron_number(i, n) @ _kron_number(j, n))
              for i, j in itertools.combinations(range(n), 2)]
    return terms


def _oracle_ti_complete(n):
    terms = [(f"Z{j}", _kron_word(_site_word(n, {j: "Z"}))) for j in range(n)]
    terms += [(f"X{j}", _kron_word(_site_word(n, {j: "X"}))) for j in range(n)]
    terms += [(f"Z{i}Z{j}", _kron_word(_site_word(n, {i: "Z", j: "Z"})))
              for i, j in itertools.combinations(range(n), 2)]
    return terms


def _oracle_mean_field(n):
    return [(f"{op}{j}", _kron_word(_site_word(n, {j: op})))
            for j in range(n) for op in "XYZ"]


def _oracle_pauli_complete(n):
    words = ("".join(w) for w in itertools.product("IXYZ", repeat=n))
    return [(w, _kron_word(w)) for w in words if set(w) != {"I"}]


def _oracle_fermionic(n):
    a = [_kron_annihilator(p, n) for p in range(n)]
    ad = [op.conj().T for op in a]
    terms = [(f"a{p}+a{p}^", a[p] + ad[p]) for p in range(n)]
    for p in range(n):
        for q in range(p, n):
            if p == q:
                terms.append((f"n{p}", ad[p] @ a[p]))
            else:
                terms.append((f"hop({p},{q})", ad[p] @ a[q] + ad[q] @ a[p]))
    pairs = list(itertools.combinations(range(n), 2))
    for ip, (p, q) in enumerate(pairs):
        for r, s in pairs[ip:]:
            if (p, q) == (r, s):
                terms.append((f"n{p}n{q}", ad[p] @ a[p] @ ad[q] @ a[q]))
            else:
                body = ad[p] @ ad[q] @ a[s] @ a[r]
                terms.append((f"int({p},{q};{r},{s})", body + body.conj().T))
    return terms


ORACLE_CASES = [
    ("classical_bm", 3, 1, _oracle_classical_bm),
    ("ti_complete", 4, 0, _oracle_ti_complete),
    ("mean_field", 3, 0, _oracle_mean_field),
    ("pauli_complete", 2, 0, _oracle_pauli_complete),
    ("fermionic", 3, 1, _oracle_fermionic),
]


class TestMaskedParity:
    def test_matches_popcount_below_4096(self):
        values = np.arange(2**12)
        for mask in (0, 1, 0b101, 0b100000000001, 2**12 - 1, 0b011011011011):
            expected = [bin(c & mask).count("1") & 1 for c in range(2**12)]
            assert _masked_parity(values, mask).tolist() == expected


class TestTermOracles:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_matrix_every_word(self, n):
        for letters in itertools.product("IXYZ", repeat=n):
            word = "".join(letters)
            assert np.array_equal(pauli_matrix(word), _kron_word(word)), word

    @pytest.mark.parametrize("family,nv,nh,oracle", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_every_term_labels_and_flags(self, family, nv, nh, oracle):
        model = build_model(family, nv, nh)
        expected = oracle(nv + nh)
        assert list(model.labels) == [label for label, _ in expected]
        for term, (label, matrix) in zip(model.terms, expected):
            assert term.matrix.dtype == np.complex128
            assert np.array_equal(term.matrix, matrix), label
            off_diagonal = matrix - np.diag(np.diag(matrix))
            assert term.is_quantum == bool(np.any(off_diagonal != 0)), label
            assert _dense_reference(matrix) == ("ok", term.is_quantum), label
        assert np.array_equal(model.matrix_stack, np.stack([m for _, m in expected]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_annihilator_matches_kron_chain(self, n):
        for p in range(n):
            assert np.array_equal(_scatter(2**n, *_ladder_product([(p, False)], n)), _kron_annihilator(p, n))


class TestEntryList:
    @pytest.mark.parametrize("name", ENTRY_LIST_MODELS)
    def test_assemble_matches_dense_stack(self, name, rng):
        model = entry_list_model(name, rng)
        theta = rng.normal(size=model.n_terms)
        got = assemble_hamiltonian(model, theta)
        want = np.tensordot(theta, model.matrix_stack, axes=1)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
        assert np.array_equal(got, got.conj().T)

    @pytest.mark.parametrize("name", ENTRY_LIST_MODELS)
    def test_stacked_assembly_is_each_row_alone(self, name, rng):
        model = entry_list_model(name, rng)
        thetas = rng.normal(size=(4, model.n_terms))
        thetas[1] = 0.0
        stack = assemble_hamiltonian(model, thetas)
        assert stack.shape == (4, model.dim, model.dim)
        for theta, H in zip(thetas, stack):
            assert np.array_equal(H, assemble_hamiltonian(model, theta))
        for bad in (np.zeros((2, model.n_terms + 1)), np.zeros((1, 2, model.n_terms))):
            with pytest.raises(ValueError, match="theta has shape"):
                assemble_hamiltonian(model, bad)

    @pytest.mark.parametrize("name", [*ENTRY_LIST_MODELS, "classical_bm 3+2"])
    def test_entries_are_the_nonzeros_in_term_order(self, name, rng):
        model = build_model("classical_bm", 3, 2) if name == "classical_bm 3+2" else entry_list_model(name, rng)
        entries = model.entries
        assert np.all(np.diff(entries.index) >= 0)
        # within a term in C order: that order fixes the per-term sums bit for bit
        same_term = np.diff(entries.index) == 0
        assert np.all(np.diff(entries.flat)[same_term] > 0)
        # every array is, bit for bit, what a scan of the dense terms gives
        positions = [_nonzeros(m) for m in model.matrix_stack]
        rows, cols = np.divmod(np.concatenate(positions), model.dim)
        want = (
            np.repeat(np.arange(model.n_terms), [p.size for p in positions]),
            rows * model.dim + cols,
            cols * model.dim + rows,
            np.concatenate([m.ravel()[p] for m, p in zip(model.matrix_stack, positions)]),
        )
        for got, expected in zip(model.entries, want, strict=True):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_term_size_must_match_qubit_count(self):
        for make in TERM_PATHS.values():
            model = HamiltonianModel("custom", 1, 0, (make("zz", pauli_matrix("ZZ")),))
            with pytest.raises(ValueError, match="every term must be 2 x 2"):
                assemble_hamiltonian(model, np.ones(1))


# Terms of each family on n qubits (classical_bm on the complete graph).
TERM_COUNTS = {
    "classical_bm": lambda n: n + math.comb(n, 2),
    "ti_complete": lambda n: n * (n + 3) // 2,
    "pauli_complete": lambda n: 4**n - 1,
    "mean_field": lambda n: 3 * n,
    "fermionic": lambda n: n + n * (n + 1) // 2 + math.comb(math.comb(n, 2) + 1, 2),
}

# Dense term storage a model may need at its family's cap.
TERM_BYTES_BUDGET = 2 * 2**30


class TestQubitCaps:
    def test_every_family_has_a_cap(self):
        assert set(QUBIT_CAPS) == set(ALL_FAMILIES) == set(TERM_COUNTS)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_term_count_formula(self, family):
        for n in (2, 3, 4):
            assert build_model(family, n).n_terms == TERM_COUNTS[family](n)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_dense_terms_fit_the_budget_at_the_cap(self, family):
        n = QUBIT_CAPS[family]
        term_bytes = TERM_COUNTS[family](n) * 4**n * 16
        assert term_bytes <= TERM_BYTES_BUDGET, f"{family} at {n} qubits: {term_bytes / 2**30:.2f} GiB"
        with pytest.raises(ValueError, match="cap"):
            build_model(family, n + 1)


class TestIdentity:
    @pytest.mark.parametrize("family", ["ti_complete", "fermionic"])
    def test_models_and_terms_compare_and_hash_by_identity(self, family):
        model, again = build_model(family, 2), build_model(family, 2)
        assert model == model and model != again
        assert model != copy.copy(model)  # not even a copy sharing its terms
        assert {model: 1, again: 2}[model] == 1
        term = model.terms[0]
        assert term == term and term != again.terms[0]
        assert {term: 1}[term] == 1
