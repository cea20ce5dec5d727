"""Hamiltonian term families for quantum Boltzmann machines.

Models are ordered lists of Hermitian terms H_j with trainable weights
kept outside the model object: H(theta) = sum_j theta_j H_j. Qubit 0 is
the leftmost tensor factor; visible units come before hidden units.
The classical_bm, fermionic and ti_complete terms are real, so their H(theta)
and Gibbs states (the teacher targets too) are real and take the real-symmetric
solver (linalg._eigh); pauli_complete and mean_field hold imaginary Y terms.

A family lists its terms as (label, spec) pairs and builds them in blocks of
max(1, 2048 // dim) consecutive terms: one vectorized pass makes a block's
entries, and one _checked_terms pass gives each term what Term(...) gives it.
Blocks keep every temporary under 128 KiB, glibc's initial mmap threshold.
Freeing a larger one raises that threshold, so the dense arrays made after the
build come from the heap, whose pages are not given back: one block per model
raised a set-up's peak RSS by 29 MiB at fermionic 5+2.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Term",
    "HamiltonianModel",
    "build_model",
    "check_model_size",
    "assemble_hamiltonian",
]

# Off-diagonal magnitude above which a term couples computational basis
# states and counts as quantum (subject to L2 regularization).
QUANTUM_OFFDIAG_TOL = 1e-12


def _parity_table(n: int) -> np.ndarray:
    """popcount(c) mod 2 for every c < 2^n, as parity(2^k + c) = 1 - parity(c): numpy 1.24 has no bitwise_count."""
    table = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        table = np.concatenate([table, 1 - table])
    return table


def _scatter(dim: int, rows, cols, values) -> np.ndarray:
    """Dense dim x dim complex matrix with the given entries, zero elsewhere."""
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[rows, cols] = values
    return out


def _pauli_entries(words, table: np.ndarray):
    """Entries (rows, cols, values) of Pauli strings such as "IXZ" (qubit 0 leftmost), one row per string.

    With x the bitmask of the X/Y sites, z that of the Z/Y sites and #Y the
    number of Y letters, a string maps basis state c to
    i^{#Y} (-1)^{popcount(c & z)} |c ^ x>: one entry per column (the
    symplectic bitmask form of Aaronson and Gottesman).
    """
    # the X/Y and the Z/Y sites as binary numerals, qubit 0 the most significant bit
    sites = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
    x, z = (np.array([[int(w.translate(s), 2)] for w in words]) for s in sites)
    phase = np.array([[(1, 1j, -1, -1j)[w.count("Y") % 4]] for w in words])
    cols = np.arange(table.size)
    sign = 1 - 2 * table[cols & z]
    # the bits of each string alone: a real phase times the integer signs, an imaginary one the complex product
    return cols ^ x, np.broadcast_to(cols, sign.shape), np.where(phase.imag == 0, phase.real * sign, phase * sign)


def _ladder_entries(specs, table: np.ndarray):
    """Entries (rows, cols, values) of real Jordan-Wigner ladder-operator terms, one row per (ops, hermitian) spec.

    `ops` lists the factors of a product B left to right as (mode, creates),
    at most four. They act on every basis column at once, rightmost first:
    a factor flips the mode's bit, contributes the parity of the occupied
    lower-indexed modes (a lookup in `table`), and zeroes the column unless
    the mode was empty (creation) or occupied (annihilation). Column c holds
    B's one possible entry at row rows[c], and then its mirror: B^ for a
    hermitian term (B + B^), zeros for a diagonal B.
    """
    dim, cols = table.size, np.arange(table.size)
    # absent factors have bit 0 and creates 1: they keep every column as it is
    bits = np.array([[0] * (4 - len(ops)) + [dim >> (mode + 1) for mode, _ in ops] for ops, _ in specs])[..., None]
    creates = np.array([[1] * (4 - len(ops)) + [int(c) for _, c in ops] for ops, _ in specs])[..., None]
    rows, values = np.tile(cols, (len(specs), 1)), np.ones((len(specs), dim), dtype=np.intp)
    for f in reversed(range(4)):
        values *= ((rows & bits[:, f]) != 0) ^ creates[:, f]
        values *= 1 - 2 * table[rows & (dim - 2 * bits[:, f])]  # the Z string: every bit above the mode's
        rows ^= bits[:, f]
    cols, hermitian = np.broadcast_to(cols, rows.shape), np.array([[h] for _, h in specs])
    return np.hstack([rows, cols]), np.hstack([cols, rows]), np.hstack([values, values * hermitian])


class _Nonzeros(NamedTuple):
    """A term's entries m[r, c] != 0: flat positions r * dim + c, strictly increasing, and values."""

    flat: np.ndarray
    values: np.ndarray  # complex128


@dataclass(frozen=True, eq=False, init=False)
class Term:
    """One Hermitian summand of a model Hamiltonian, held as its nonzero entries.

    Term(label, dim, rows, cols, values) puts values[k] at (rows[k], cols[k])
    of a dim x dim matrix m: duplicates are summed in the given order, zeros
    dropped. m must be finite and Hermitian within 1e-12; the term keeps its
    Hermitian part (m + m^)/2, so mirrored entries are exact conjugates, and
    an entry already the conjugate of its mirror keeps its bits. The dense
    `matrix` is built on first use and kept; dense() builds a copy that is not.
    """

    label: str
    dim: int
    nonzeros: _Nonzeros
    is_quantum: bool

    def __init__(self, label: str, dim: int, rows, cols, values):
        (term,) = _checked_terms([label], dim, 0, rows, cols, values)
        for name, value in vars(term).items():
            object.__setattr__(self, name, value)

    def dense(self) -> np.ndarray:
        """A new dense dim x dim matrix: one scatter of the entries, kept by nobody."""
        return _scatter(self.dim, *np.divmod(self.nonzeros.flat, self.dim), self.nonzeros.values)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only: dense() on first use, then kept on the term."""
        matrix = self.dense()
        matrix.flags.writeable = False
        return matrix


def _checked_terms(labels, dim: int, term, rows, cols, values) -> list:
    """The Terms labels[j] of a block: entry k puts values[k] at (rows[k], cols[k]) of term term[k].

    term, rows and cols broadcast together. Each term gets what Term(label,
    dim, ...) does to its entries alone, in one pass over the block keyed by
    term * dim^2 + flat position; the first term that fails names itself.
    """
    term, rows, cols = np.broadcast_arrays(term, rows, cols)
    outside = (np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= dim)
    if outside.any():
        raise ValueError(f"term {labels[term[outside].min()]!r} has an invalid entry outside {dim} x {dim}")
    key = np.ravel_multi_index((term, rows, cols), (len(labels), dim, dim)).ravel()
    values = np.asarray(values)
    if values.shape != rows.shape:
        raise ValueError(f"term {', '.join(map(repr, labels))} has {values.size} values at {key.size} positions")
    order = np.argsort(key, kind="stable")
    key, values = key[order], values.ravel()[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    # a run of one position keeps its value bit for bit; a longer run sums in the given order
    values = np.add.reduceat(values, starts).astype(np.complex128)
    key, values = key[starts][values != 0], values[values != 0]
    # Exact on the nonzeros alone: m - m^ vanishes where m and m^T both do, and
    # |m[r,c] - conj(m[c,r])| = |m[c,r] - conj(m[r,c])|, so the maxima agree.
    # m[c, r] sits at key (term * dim + c) * dim + r, found in the sorted keys or zero.
    term, flat = np.divmod(key, dim * dim)
    rows, cols = np.divmod(flat, dim)
    key_t = key - flat + cols * dim + rows
    at = np.minimum(key.searchsorted(key_t), key.size - 1)
    lone = key[at] != key_t
    mirror = np.where(lone, 0, values[at]).conj()
    with np.errstate(invalid="ignore"):  # inf - inf, reported below
        defect = np.abs(values - mirror)
        failed = ~(defect <= 1e-12)  # NaN too
    if failed.any():  # keys sort by term, so the first failed entry is in the first failed term
        j = term[failed.argmax()]
        problem = "is not Hermitian within 1e-12" if np.isfinite(defect[term == j]).all() else "has non-finite entries"
        raise ValueError(f"term {labels[j]!r} {problem}")
    if defect.any():  # keep the Hermitian part (m + m^)/2; a lone entry gives half of itself to its mirror
        values = np.where(values == mirror, values, (values + mirror) / 2)
        key, values = np.concatenate([key, key_t[lone]]), np.concatenate([values, values[lone].conj()])
        order = np.argsort(key)
        keep = order[values[order] != 0]
        key, values = key[keep], values[keep]
        term, flat = np.divmod(key, dim * dim)
    # diagonal positions are multiples of dim + 1
    offdiagonal = (flat % (dim + 1) != 0) & (np.abs(values) > QUANTUM_OFFDIAG_TOL)
    is_quantum = np.bincount(term[offdiagonal], minlength=len(labels))
    bounds = term.searchsorted(np.arange(len(labels) + 1))
    for array in (flat, values):
        array.flags.writeable = False
    terms = []
    for label, lo, hi, quantum in zip(labels, bounds, bounds[1:], is_quantum):
        terms.append(object.__new__(Term))  # frozen: fields set in one order, so instances share their dict keys
        for name, value in (("label", label), ("dim", dim), ("nonzeros", _Nonzeros(flat[lo:hi], values[lo:hi])),
                            ("is_quantum", bool(quantum))):
            object.__setattr__(terms[-1], name, value)
    return terms


class TermEntries(NamedTuple):
    """The nonzero entries H_j[r, c] of a model's terms, concatenated in term order.

    Builder terms have at most two nonzeros per column, so this list is
    O(n_terms * dim) long where the dense stack is O(n_terms * dim^2).
    """

    index: np.ndarray  # term j of each entry
    flat: np.ndarray  # r * dim + c
    flat_t: np.ndarray  # c * dim + r, the transposed position
    values: np.ndarray  # H_j[r, c]


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """Immutable parameterized Hamiltonian family.

    The weight vector theta lives outside the model (one real entry per
    term, passed to every operation that needs it), so instances can be
    shared freely across ensemble workers. Models, like their terms, compare
    and hash by identity: they hold arrays and cache their last evaluation.
    """

    family: str
    n_visible: int
    n_hidden: int
    terms: tuple[Term, ...]

    @property
    def n_qubits(self) -> int:
        return self.n_visible + self.n_hidden

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    @cached_property
    def quantum_mask(self) -> np.ndarray:
        mask = np.array([t.is_quantum for t in self.terms], dtype=bool)
        mask.flags.writeable = False
        return mask

    @cached_property
    def matrix_stack(self) -> np.ndarray:
        """All term matrices as one (n_terms, dim, dim) array.

        For inspection and tests only: assembly and term expectations run
        on `entries`.
        """
        stack = np.stack([t.matrix for t in self.terms])
        stack.flags.writeable = False
        return stack

    @cached_property
    def entries(self) -> TermEntries:
        """Every nonzero entry of every term: the terms' own entries, joined on first use."""
        if any(t.dim != self.dim for t in self.terms):
            raise ValueError(f"every term must be {self.dim} x {self.dim} for {self.n_qubits} qubits")
        flat = np.concatenate([t.nonzeros.flat for t in self.terms])
        rows, cols = np.divmod(flat, self.dim)
        entries = TermEntries(
            index=np.repeat(np.arange(self.n_terms), [t.nonzeros.flat.size for t in self.terms]),
            flat=flat,
            flat_t=cols * self.dim + rows,
            values=np.concatenate([t.nonzeros.values for t in self.terms]),
        )
        for a in entries:
            a.flags.writeable = False
        return entries


# Largest qubit count (visible + hidden) of each family. Terms are held as entries, but every
# dense reader (Term.matrix, matrix_stack, the sampled gradient's term eigenbases) takes
# n_terms * 4^n * 16 bytes: at most 1.02 GiB at these caps (ti_complete 10), over 2 GiB one qubit on.
QUBIT_CAPS = {"classical_bm": 10, "fermionic": 8, "ti_complete": 10, "pauli_complete": 6,
              "mean_field": 10}


def check_model_size(family: str, n_visible: int, n_hidden: int = 0) -> int:
    """Qubit count of build_model(family, n_visible, n_hidden); raises its ValueError unbuilt."""
    if family not in QUBIT_CAPS:
        raise ValueError(f"unknown model family {family!r}")
    if n_hidden and family not in ("classical_bm", "fermionic"):
        raise ValueError(f"family {family!r} has no hidden-unit variant")
    if n_visible < 1:
        raise ValueError(f"{family}: n_visible must be >= 1, got {n_visible}")
    if n_hidden < 0:
        raise ValueError(f"{family}: n_hidden must be >= 0, got {n_hidden}")
    n, cap = n_visible + n_hidden, QUBIT_CAPS[family]
    if n > cap:
        raise ValueError(f"{family}: {n} qubits exceeds the dense-matrix cap of {cap}")
    if family == "fermionic" and n < 2:
        raise ValueError("fermionic model needs at least 2 modes")
    return n


def _classical_bm_terms(n: int) -> list:
    """Classical Boltzmann machine on the complete graph: biases n_j, then couplings n_i n_j.

    All terms are diagonal. Units are numbered visible first, hidden after,
    and the pairs i < j come lexicographically.
    """
    terms = [(f"n{j}", ([(j, True), (j, False)], False)) for j in range(n)]  # n_j = a_j^ a_j
    pairs = itertools.combinations(range(n), 2)
    return terms + [(f"n{i}n{j}", ([(i, True), (j, True), (j, False), (i, False)], False)) for i, j in pairs]


def _site_term(letters: dict, n: int) -> tuple:
    """Pauli term with letters[site] on the given sites, labelled like "Z0Z3"."""
    return "".join(f"{op}{site}" for site, op in letters.items()), "".join(letters.get(k, "I") for k in range(n))


def _ti_complete_terms(n: int) -> list:
    """Transverse-field Ising family on the complete graph.

    Terms in order: Z on every qubit, X on every qubit, then ZZ on every
    pair lexicographically. n(n+3)/2 terms total, all visible.
    """
    terms = [_site_term({j: "Z"}, n) for j in range(n)]
    terms += [_site_term({j: "X"}, n) for j in range(n)]
    return terms + [_site_term({i: "Z", j: "Z"}, n) for i, j in itertools.combinations(range(n), 2)]


def _pauli_complete_terms(n: int) -> list:
    """All 4^n - 1 non-identity Pauli strings, lexicographically ordered."""
    words = ("".join(letters) for letters in itertools.product("IXYZ", repeat=n))
    return [(word, word) for word in words if set(word) != {"I"}]


def _mean_field_terms(n: int) -> list:
    """Product-form family: X, Y and Z on each qubit separately (3n terms).

    Gibbs states factorize across qubits, so this is the natural
    uncorrelated approximation to any multi-qubit target.
    """
    return [_site_term({j: op}, n) for j in range(n) for op in "XYZ"]


def _fermionic_terms(n: int) -> list:
    """Fermionic QBM with one-mode, hopping and two-body interaction terms.

    Modes map to qubits by Jordan-Wigner (visible modes first). Terms:
      (i)   a_p + a_p^        for every mode p,
      (ii)  a_p^ a_q + a_q^ a_p   for p <= q; the diagonal p = q case is
            the number operator n_p,
      (iii) a_p^ a_q^ a_s a_r + h.c.  for p < q, r < s, (p,q) <= (r,s);
            the diagonal (p,q) = (r,s) case is n_p n_q.
    Zeroing every off-diagonal weight leaves exactly the classical
    Boltzmann machine on the complete graph.
    """
    terms = [(f"a{p}+a{p}^", ([(p, False)], True)) for p in range(n)]
    for p, q in itertools.combinations_with_replacement(range(n), 2):  # p = q: n_p = a_p^ a_p, no h.c.
        terms.append((f"hop({p},{q})" if p < q else f"n{p}", ([(p, True), (q, False)], p < q)))
    # (p, q) = (r, s): n_p n_q = a_p^ a_q^ a_q a_p, no h.c.
    for (p, q), (r, s) in itertools.combinations_with_replacement(itertools.combinations(range(n), 2), 2):
        label = f"int({p},{q};{r},{s})" if (p, q) != (r, s) else f"n{p}n{q}"
        terms.append((label, ([(p, True), (q, True), (s, False), (r, False)], (p, q) != (r, s))))
    return terms


# The (label, spec) pairs of each family's terms on n qubits (visible units first): ladder-operator
# products for classical_bm and fermionic, Pauli words for the rest.
_FAMILY_TERMS = {"classical_bm": _classical_bm_terms, "fermionic": _fermionic_terms,
                 "ti_complete": _ti_complete_terms, "pauli_complete": _pauli_complete_terms,
                 "mean_field": _mean_field_terms}


def _blocks(family: str, n: int):
    """_checked_terms arguments for family's terms on n qubits, max(1, 2048 // 2^n) consecutive terms at a time."""
    pairs, table = _FAMILY_TERMS[family](n), _parity_table(n)
    entries = _pauli_entries if isinstance(pairs[0][1], str) else _ladder_entries
    size = max(1, 2048 // table.size)
    for start in range(0, len(pairs), size):
        labels, specs = zip(*pairs[start:start + size])
        yield (labels, table.size, np.arange(len(labels))[:, None], *entries(specs, table))


def build_model(family: str, n_visible: int, n_hidden: int = 0) -> HamiltonianModel:
    """The model of a family by name; only classical_bm and fermionic take hidden units."""
    n = check_model_size(family, n_visible, n_hidden)
    terms = (term for block in _blocks(family, n) for term in _checked_terms(*block))
    return HamiltonianModel(family, n_visible, n_hidden, tuple(terms))


def assemble_hamiltonian(model: HamiltonianModel, theta) -> np.ndarray:
    """H(theta) = sum_j theta_j H_j; a (B, n_terms) stack of thetas gives the (B, dim, dim) stack.

    Each matrix of a stack is bit for bit the one its row alone gives.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim not in (1, 2) or theta.shape[-1] != model.n_terms:
        raise ValueError(
            f"theta has shape {theta.shape}, model needs ({model.n_terms},)"
        )
    # Real and imaginary parts scatter separately, each summed in term order,
    # so mirrored entries H[r, c] and H[c, r] come out exact conjugates.
    # A single theta is the one-row stack; row b scatters to positions offset
    # by b * dim^2, in the same order.
    entries = model.entries
    thetas = np.atleast_2d(theta)
    size = len(thetas) * model.dim**2
    positions = (np.arange(0, size, model.dim**2)[:, None] + entries.flat).ravel()
    weights = thetas.take(entries.index, axis=1)  # a gather, faster than thetas[:, index]
    H = np.empty(size, dtype=np.complex128)
    H.real = np.bincount(positions, (weights * entries.values.real).ravel(), size)
    H.imag = np.bincount(positions, (weights * entries.values.imag).ravel(), size)
    return H.reshape(theta.shape[:-1] + (model.dim, model.dim))

