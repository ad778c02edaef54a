"""Witness search for the general interrogation formalism.

A protocol run twice -- atom absent and atom present -- yields a pair of
final joint states.  A successful nondistortion interrogation requires a
probe vector orthogonal to the atom-absent final probe state whose
contraction against the atom-present state is proportional to the initial
atom superposition.  Existence is decided by least squares on the
atom-present amplitude matrix projected onto that orthogonal complement
with ``I - psi psi^dagger``, applied as a rank-one update (no basis of the
complement is built, so the cost is linear in the number of photon
modes); if any populated component of the superposition is transparent
to the probe, the projected row space cannot contain it and no witness
exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .elements import Element, run_sequence
from .state import ABSENT_MASK, ATOM_LEVELS, AtomSpec, BasisLayout, JointState
from .state import product_factors
from .tolerances import RANK_TOL


@dataclass(frozen=True)
class FinalStatePair:
    """Atom-absent and atom-present final states of one protocol."""

    absent: JointState
    present: JointState

    @property
    def probe_dim(self) -> int:
        return self.absent.layout.n_photon_modes

    @property
    def atom_dim(self) -> int:
        return self.absent.layout.n_levels

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
    """Run the element sequence with the atom transparent at
    ``ABSENT_MASK`` (absent) and at ``transparency_mask``, whose levels
    must be ``ATOM_LEVELS``.

    The initial state carries the atom superposition; interacted and
    absorbed components stay inside the atom-present final state.
    """
    if initial.layout != layout:
        raise ValueError("initial state does not match the layout")
    unknown = frozenset(transparency_mask).difference(ATOM_LEVELS)
    if unknown:
        raise ValueError(f"unknown atom levels in mask: {sorted(unknown)}")
    absent = run_sequence(layout, elements, initial, mask_override=ABSENT_MASK)
    present = run_sequence(layout, elements, initial, mask_override=transparency_mask)
    return FinalStatePair(absent=absent, present=present)


def _complement_basis(psi_f: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of psi_f (columns)."""
    dim = psi_f.shape[0]
    mat = np.eye(dim, dtype=complex) - np.outer(psi_f, psi_f.conj())
    q, s, _ = np.linalg.svd(mat)
    return q[:, : dim - 1]


def _unit_atom_vector(atom_init: np.ndarray, atom_dim: int) -> np.ndarray:
    """atom_init as a unit vector of length atom_dim, or a ValueError."""
    atom_init = np.asarray(atom_init, dtype=complex)
    if atom_init.shape != (atom_dim,):
        raise ValueError(f"atom_init has shape {atom_init.shape}, expected ({atom_dim},)")
    norm = np.linalg.norm(atom_init)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"atom_init must be finite and nonzero (norm {norm})")
    return atom_init / norm


def find_witness(pair: FinalStatePair, atom_init: np.ndarray) -> Witness | Absence:
    """Decide whether a witness probe vector exists.

    Reshapes the atom-present state into a probe x atom matrix, projects
    its probe index onto the complement of the atom-absent probe state
    psi_f with ``I - psi_f psi_f^dagger`` (never forming the projector or
    a basis of the complement), and asks by least squares whether the
    initial atom vector lies in the projected row space.
    """
    atom_init = _unit_atom_vector(atom_init, pair.atom_dim)
    present = pair.present.matrix()
    if not np.linalg.norm(present) >= RANK_TOL:
        raise ValueError("atom-present final state is zero or not finite")

    psi_f = pair.absent_probe_vector()
    restricted = present - np.outer(psi_f, psi_f.conj() @ present)  # (probe_dim, atom_dim)

    # Minimum-norm solution of restricted^T c = atom_init from the thin SVD
    # restricted = u s vh: c = conj(u) s^-1 conj(vh) atom_init.  conj(c)
    # lies in the range of restricted, so it is orthogonal to psi_f: it is
    # the witness itself, with the residual and norm a complement basis
    # would give.  Singular values at the roundoff level of present count
    # as zero; a cutoff relative to the largest one alone would fit
    # roundoff when every populated level is transparent.
    u, s, vh = np.linalg.svd(restricted, full_matrices=False)
    kept = s > np.finfo(float).eps * max(present.shape) * np.linalg.norm(present)
    sol = u[:, kept].conj() @ ((vh[kept].conj() @ atom_init) / s[kept])
    defect = restricted.T @ sol - atom_init
    residual = float(np.linalg.norm(defect))
    coeff_norm = float(np.linalg.norm(sol))
    if residual < RANK_TOL and RANK_TOL < coeff_norm < 1.0 / RANK_TOL:
        # As conj(c) is orthogonal to psi_f, the witness contracts present to
        # restricted^T c / |c| = (atom_init + defect) / |c|: delta is 1/|c|.
        phi_p = sol.conj() / coeff_norm
        return Witness(phi_p=phi_p, delta=complex(1.0 / coeff_norm), residual=residual)
    return Absence(residual=residual)


_GRID_DIM_MAX = 3
# Phase and weight steps of the pairwise candidates, the seed of the random
# ones, and the contraction norm below which a candidate is skipped.
_GRID_ANGLES = 12
_GRID_SEED = 0
_GRID_AMP_TOL = 1e-6


def grid_witness_search(
    pair: FinalStatePair, atom_init: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """Brute-force oracle over probe vectors in the complement.

    Scans a grid of candidate probe directions (basis vectors, pairwise
    superpositions over a phase grid, and seeded random points) and
    returns the smallest relative defect from proportionality to
    atom_init together with the best candidate (the first one on a tie).
    Candidates whose contraction has norm below ``_GRID_AMP_TOL`` are
    skipped.  Complements of dimension above 3 are rejected; defect below
    ``_GRID_AMP_TOL`` means a witness exists.
    """
    atom_init = _unit_atom_vector(atom_init, pair.atom_dim)
    dim = pair.probe_dim - 1
    if dim > _GRID_DIM_MAX:
        raise ValueError(
            f"grid oracle covers complements of dimension <= {_GRID_DIM_MAX}, got {dim}"
        )
    present = pair.present.matrix()
    q = _complement_basis(pair.absent_probe_vector())

    eye = np.eye(dim, dtype=complex)
    phases = np.exp(2j * np.pi * np.arange(_GRID_ANGLES) / _GRID_ANGLES)
    weights = np.linspace(0.0, 1.0, _GRID_ANGLES + 1)[1:-1]
    # Pairwise superpositions, ordered by pair, then weight, then phase.
    root_1w = np.sqrt(1 - weights)[:, None, None]
    root_w = np.sqrt(weights)[:, None, None]
    pairs = [
        (root_1w * eye[i] + root_w * phases[:, None] * eye[j]).reshape(-1, dim)
        for i, j in itertools.combinations(range(dim), 2)
    ]
    # One draw of (real, imaginary) rows per random candidate.
    z = np.random.default_rng(_GRID_SEED).standard_normal((200 * dim, 2, dim))
    z = z[:, 0] + 1j * z[:, 1]
    candidates = np.concatenate([eye, *pairs, z / np.linalg.norm(z, axis=1)[:, None]])

    probes = candidates @ q.T
    atom_vecs = probes.conj() @ present
    norms = np.linalg.norm(atom_vecs, axis=1)
    overlaps = atom_vecs @ atom_init.conj()
    defects = np.full(len(candidates), np.inf)
    kept = norms >= _GRID_AMP_TOL
    defects[kept] = (
        np.linalg.norm(atom_vecs[kept] - overlaps[kept, None] * atom_init, axis=1)
        / norms[kept]
    )
    if not kept.any():
        return np.inf, None
    best = int(np.argmin(defects))
    return float(defects[best]), probes[best]


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
    the scan mask, so an absent sample gets ``Absence``.
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
            found = isinstance(result, Witness)
            rows.append(
                NogoRow(
                    frozenset(mask),
                    atom.alpha,
                    atom.beta,
                    found,
                    result.residual,
                    abs(result.delta) ** 2 if found else None,
                )
            )
    return rows
