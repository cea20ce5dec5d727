"""Hamiltonian term families for quantum Boltzmann machines.

Models are ordered lists of Hermitian terms H_j with trainable weights
kept outside the model object: H(theta) = sum_j theta_j H_j. Qubit 0 is
the leftmost tensor factor; visible units come before hidden units.
The classical_bm, fermionic and ti_complete terms are real, so their H(theta)
and Gibbs states (the teacher targets too) are real and take the real-symmetric
solver (linalg._eigh); pauli_complete and mean_field hold imaginary Y terms.
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


def _bit(site: int, n: int) -> int:
    """Basis-index bit of qubit `site` out of n (qubit 0 is the most significant)."""
    return 1 << (n - 1 - site)


def _masked_parity(values: np.ndarray, mask: int) -> np.ndarray:
    """popcount(values & mask) mod 2, by XOR over the set bits of mask: numpy 1.24 has no np.bitwise_count."""
    parity = np.zeros_like(values)
    bit = 0
    while mask >> bit:
        if (mask >> bit) & 1:
            parity ^= (values >> bit) & 1
        bit += 1
    return parity


def _scatter(dim: int, rows, cols, values) -> np.ndarray:
    """Dense dim x dim complex matrix with the given entries, zero elsewhere."""
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[rows, cols] = values
    return out


def _pauli_entries(letters: str):
    """Entries (rows, cols, values) of a Pauli string such as "IXZ" (qubit 0 leftmost).

    With x the bitmask of the X/Y sites, z that of the Z/Y sites and #Y the
    number of Y letters, the string maps basis state c to
    i^{#Y} (-1)^{popcount(c & z)} |c ^ x>: one entry per column (the
    symplectic bitmask form of Aaronson and Gottesman).
    """
    if not letters:
        raise ValueError("empty Pauli string")
    n = len(letters)
    x = z = n_y = 0
    for site, ch in enumerate(letters):
        if ch not in "IXYZ":
            raise ValueError(f"unknown Pauli letter {ch!r} in {letters!r}")
        if ch in "XY":
            x |= _bit(site, n)
        if ch in "YZ":
            z |= _bit(site, n)
        n_y += ch == "Y"
    cols = np.arange(2**n)
    return cols ^ x, cols, (1, 1j, -1, -1j)[n_y % 4] * (1 - 2 * _masked_parity(cols, z))


def _ladder_product(ops, n: int):
    """Entries (rows, cols, values) of a product of Jordan-Wigner ladder operators.

    `ops` lists the factors left to right as (mode, creates). They act on
    every basis column at once, rightmost first: a factor flips the mode's
    bit, contributes the parity of the occupied lower-indexed modes, and
    zeroes the column unless the mode was empty (creation) or occupied
    (annihilation). Column c holds its one possible entry at row rows[c].
    """
    cols = np.arange(2**n)
    rows = cols.copy()
    values = np.ones_like(cols)
    for mode, creates in reversed(ops):
        shift = n - 1 - mode
        values *= ((rows >> shift) & 1) ^ int(creates)
        # the Z string on modes 0..mode-1, the `mode` most significant bits
        values *= 1 - 2 * _masked_parity(rows, ((1 << mode) - 1) << (shift + 1))
        rows ^= 1 << shift
    return rows, cols, values


def _ladder_term(ops, n: int):
    """Entries of the Hermitian term B + B^ for the (real) ladder-operator product B."""
    rows, cols, values = _ladder_product(ops, n)
    return np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.concatenate([values, values])


def _number_term(modes, n: int):
    """Entries of the product of the number operators n_p = a_p^ a_p over `modes` (diagonal)."""
    return _ladder_product([(p, c) for p in modes for c in (True, False)], n)


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
        flat = np.ravel_multi_index((rows, cols), (dim, dim))  # raises on an index out of range
        values = np.asarray(values)
        if values.shape != flat.shape:
            raise ValueError(f"term {label!r} has {values.size} values at {flat.size} positions")
        order = np.argsort(flat, kind="stable")
        flat, values = flat[order], values[order]
        starts = np.flatnonzero(np.diff(flat, prepend=-1))
        # a run of one position keeps its value bit for bit; a longer run sums in the given order
        values = np.add.reduceat(values, starts).astype(np.complex128)
        flat, values = flat[starts][values != 0], values[values != 0]
        # Exact on the nonzeros alone: m - m^ vanishes where m and m^T both do, and
        # |m[r,c] - conj(m[c,r])| = |m[c,r] - conj(m[r,c])|, so the maxima agree.
        # m[c, r] sits at flat c * dim + r, found in the sorted positions or zero.
        rows, cols = np.divmod(flat, dim)
        flat_t = cols * dim + rows
        at = np.minimum(flat.searchsorted(flat_t), flat.size - 1)
        lone = flat[at] != flat_t
        mirror = np.where(lone, 0, values[at]).conj()
        with np.errstate(invalid="ignore"):  # inf - inf, reported below
            worst = np.abs(values - mirror).max(initial=0.0)
        if not worst <= 1e-12:  # NaN too
            problem = "is not Hermitian within 1e-12" if np.isfinite(worst) else "has non-finite entries"
            raise ValueError(f"term {label!r} {problem}")
        if worst > 0:  # keep the Hermitian part (m + m^)/2; a lone entry gives half of itself to its mirror
            values = np.where(values == mirror, values, (values + mirror) / 2)
            flat, values = np.concatenate([flat, flat_t[lone]]), np.concatenate([values, values[lone].conj()])
            order = np.argsort(flat)
            keep = order[values[order] != 0]
            flat, values = flat[keep], values[keep]
        # diagonal positions are multiples of dim + 1
        offdiagonal = np.abs(values[flat % (dim + 1) != 0]).max(initial=0.0)
        for array in (flat, values):
            array.flags.writeable = False
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "nonzeros", _Nonzeros(flat, values))
        object.__setattr__(self, "is_quantum", bool(offdiagonal > QUANTUM_OFFDIAG_TOL))

    def dense(self) -> np.ndarray:
        """A new dense dim x dim matrix: one scatter of the entries, kept by nobody."""
        return _scatter(self.dim, *np.divmod(self.nonzeros.flat, self.dim), self.nonzeros.values)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only: dense() on first use, then kept on the term."""
        matrix = self.dense()
        matrix.flags.writeable = False
        return matrix


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
    terms = [Term(f"n{j}", 2**n, *_number_term([j], n)) for j in range(n)]
    pairs = itertools.combinations(range(n), 2)
    return terms + [Term(f"n{i}n{j}", 2**n, *_number_term([i, j], n)) for i, j in pairs]


def _site_term(letters: dict, n: int) -> Term:
    """Pauli term with letters[site] on the given sites, labelled like "Z0Z3"."""
    label = "".join(f"{op}{site}" for site, op in letters.items())
    return Term(label, 2**n, *_pauli_entries("".join(letters.get(k, "I") for k in range(n))))


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
    return [Term(word, 2**n, *_pauli_entries(word)) for word in words if set(word) != {"I"}]


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
    terms = [Term(f"a{p}+a{p}^", 2**n, *_ladder_term([(p, False)], n)) for p in range(n)]
    for p in range(n):
        for q in range(p, n):
            if p == q:
                terms.append(Term(f"n{p}", 2**n, *_number_term([p], n)))
            else:
                terms.append(Term(f"hop({p},{q})", 2**n, *_ladder_term([(p, True), (q, False)], n)))
    pairs = list(itertools.combinations(range(n), 2))
    for ip, (p, q) in enumerate(pairs):
        for r, s in pairs[ip:]:
            if (p, q) == (r, s):
                terms.append(Term(f"n{p}n{q}", 2**n, *_number_term([p, q], n)))
            else:
                body = [(p, True), (q, True), (s, False), (r, False)]
                terms.append(Term(f"int({p},{q};{r},{s})", 2**n, *_ladder_term(body, n)))
    return terms


# The term list of each family on n qubits (visible units first).
_FAMILY_TERMS = {"classical_bm": _classical_bm_terms, "fermionic": _fermionic_terms,
                 "ti_complete": _ti_complete_terms, "pauli_complete": _pauli_complete_terms,
                 "mean_field": _mean_field_terms}


def build_model(family: str, n_visible: int, n_hidden: int = 0) -> HamiltonianModel:
    """The model of a family by name; only classical_bm and fermionic take hidden units."""
    n = check_model_size(family, n_visible, n_hidden)
    return HamiltonianModel(family, n_visible, n_hidden, tuple(_FAMILY_TERMS[family](n)))


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

