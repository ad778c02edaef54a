"""Witness search for the general interrogation formalism.

A protocol run twice -- atom absent and atom present -- yields a pair of
final joint states.  A successful nondistortion interrogation requires a
probe vector orthogonal to the atom-absent final probe state whose
contraction against the atom-present state is proportional to the initial
atom superposition.  Existence is decided by least squares on the
atom-present amplitude matrix restricted to that orthogonal complement;
if any populated component of the superposition is transparent to the
probe, the restricted row space cannot contain it and no witness exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .elements import Element, run_sequence
from .state import AtomSpec, BasisLayout, JointState, product_factors
from .tolerances import RANK_TOL


@dataclass(frozen=True)
class FinalStatePair:
    """Atom-absent and atom-present final states of one protocol."""

    absent: JointState
    present: JointState
    probe_dim: int
    atom_dim: int

    def absent_probe_vector(self) -> np.ndarray:
        """Probe factor of the (product) atom-absent final state."""
        return product_factors(self.absent)[0]


@dataclass(frozen=True)
class Witness:
    """Probe vector and proportionality scalar certifying interrogability."""

    phi_p: np.ndarray
    delta: complex
    residual: float


@dataclass(frozen=True)
class Absence:
    """Certified non-existence of a witness, with the best residual found."""

    residual: float


def build_final_states(
    layout: BasisLayout,
    elements: Sequence[Element],
    initial: JointState,
    transparency_mask: frozenset[str] = frozenset(),
) -> FinalStatePair:
    """Run the element sequence with and without the atom.

    The initial state carries the atom superposition; interacted and
    absorbed components stay inside the atom-present final state.
    """
    if initial.layout != layout:
        raise ValueError("initial state does not match the layout")
    absent = run_sequence(layout, elements, initial, atom_present=False)
    present = run_sequence(
        layout, elements, initial, atom_present=True, mask_override=transparency_mask
    )
    return FinalStatePair(
        absent=absent,
        present=present,
        probe_dim=layout.n_photon_modes,
        atom_dim=layout.n_levels,
    )


def _complement_basis(psi_f: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of psi_f (columns)."""
    dim = psi_f.shape[0]
    mat = np.eye(dim, dtype=complex) - np.outer(psi_f, psi_f.conj())
    q, s, _ = np.linalg.svd(mat)
    return q[:, : dim - 1]


def find_witness(
    pair: FinalStatePair, atom_init: np.ndarray, tol: float = RANK_TOL
) -> Witness | Absence:
    """Decide whether a witness probe vector exists.

    Reshapes the atom-present state into a probe x atom matrix, restricts
    the probe index to the complement of the atom-absent probe state, and
    asks by least squares whether the initial atom vector lies in the
    restricted row space.
    """
    present = pair.present.matrix()
    if np.linalg.norm(present) < tol:
        raise ValueError("atom-present final state is zero")
    atom_init = np.asarray(atom_init, dtype=complex)
    atom_init = atom_init / np.linalg.norm(atom_init)

    psi_f = pair.absent_probe_vector()
    q = _complement_basis(psi_f)
    restricted = q.conj().T @ present  # (probe_dim-1, atom_dim)

    # Solve restricted^T c = atom_init; conj(c) are the witness
    # coefficients in the complement basis.
    sol, residual_sq, _, _ = np.linalg.lstsq(restricted.T, atom_init, rcond=None)
    defect = restricted.T @ sol - atom_init
    residual = float(np.linalg.norm(defect))
    coeff_norm = float(np.linalg.norm(sol))
    if residual < tol and coeff_norm > tol and coeff_norm < 1.0 / tol:
        phi_p = q @ sol.conj()
        phi_p = phi_p / np.linalg.norm(phi_p)
        delta = complex(1.0 / coeff_norm)
        # Fix the witness phase so the contraction is exactly delta * atom_init.
        contraction = phi_p.conj() @ present
        phase = np.vdot(atom_init, contraction / np.linalg.norm(contraction))
        return Witness(phi_p=phi_p, delta=delta * phase, residual=residual)
    return Absence(residual=residual)


def grid_witness_search(
    pair: FinalStatePair,
    atom_init: np.ndarray,
    n_angles: int = 12,
    seed: int = 0,
    amp_tol: float = 1e-6,
) -> tuple[float, np.ndarray | None]:
    """Brute-force oracle over probe vectors in the complement.

    Scans a grid of candidate probe directions (basis vectors, pairwise
    superpositions over a phase grid, and seeded random points) and
    returns the smallest relative defect from proportionality to
    atom_init together with the best candidate.  Intended for complements
    of dimension <= 3; defect below ``amp_tol`` means a witness exists.
    """
    present = pair.present.matrix()
    atom_init = np.asarray(atom_init, dtype=complex)
    atom_init = atom_init / np.linalg.norm(atom_init)
    psi_f = pair.absent_probe_vector()
    q = _complement_basis(psi_f)
    dim = q.shape[1]

    candidates: list[np.ndarray] = []
    eye = np.eye(dim, dtype=complex)
    candidates.extend(eye)
    phases = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    weights = np.linspace(0.0, 1.0, n_angles + 1)[1:-1]
    for i, j in itertools.combinations(range(dim), 2):
        for w in weights:
            for ph in phases:
                candidates.append(
                    np.sqrt(1 - w) * eye[i] + np.sqrt(w) * ph * eye[j]
                )
    rng = np.random.default_rng(seed)
    for _ in range(200 * dim):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        candidates.append(z / np.linalg.norm(z))

    best = np.inf
    best_vec = None
    for c in candidates:
        w = q @ c
        atom_vec = w.conj() @ present
        norm = np.linalg.norm(atom_vec)
        if norm < amp_tol:
            continue
        overlap = np.vdot(atom_init, atom_vec)
        defect = float(np.linalg.norm(atom_vec - overlap * atom_init) / norm)
        if defect < best:
            best = defect
            best_vec = w
    return best, best_vec


@dataclass(frozen=True)
class NogoRow:
    mask: frozenset[str]
    alpha: complex
    beta: complex
    witness_found: bool
    residual: float
    delta_sq: float | None


def transparency_nogo_scan(
    layout: BasisLayout,
    elements: Sequence[Element],
    initial_factory,
    masks: Iterable[frozenset[str]],
    samples: Sequence[AtomSpec],
) -> list[NogoRow]:
    """Tabulate witness existence over (transparency mask, atom sample) pairs.

    ``initial_factory(atom)`` must build the initial joint state for one
    sample on the given layout.  A sample's own transparency mask adds to
    the scan mask.
    """
    masks = list(masks)
    if not masks:
        raise ValueError("at least one mask is required")
    rows = []
    for mask in masks:
        for atom in samples:
            initial = initial_factory(atom)
            pair = build_final_states(
                layout, elements, initial, frozenset(mask) | atom.transparency_mask
            )
            atom_init = atom.level_vector(layout)
            result = find_witness(pair, atom_init)
            if isinstance(result, Witness):
                rows.append(
                    NogoRow(
                        frozenset(mask),
                        atom.alpha,
                        atom.beta,
                        True,
                        result.residual,
                        abs(result.delta) ** 2,
                    )
                )
            else:
                rows.append(
                    NogoRow(
                        frozenset(mask), atom.alpha, atom.beta, False, result.residual, None
                    )
                )
    return rows
