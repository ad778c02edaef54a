"""Witness search for the general interrogation formalism.

A protocol run twice -- atom absent and atom present -- yields a pair of
final joint states.  A successful nondistortion interrogation requires a
probe vector orthogonal to the atom-absent final probe state whose
contraction against the atom-present state is proportional to the initial
atom superposition.  Existence is decided by least squares on the
atom-present amplitude matrix projected onto that orthogonal complement
with ``I - psi psi^dagger``, applied as a rank-one update (no basis of the
complement is built); if any populated component of the superposition is
transparent to the probe, the projected row space cannot contain it and no
witness exists.

Both final states come from the network's transfer under a mask: a run is
linear in its initial state and never mixes atom levels, so one
``propagate`` of the 2P x 2P identity on the propagating rows gives each
level's map of those rows and what each sink row absorbs from the inputs
of each interacting level; g never interacts, so its map is the network
with the atom absent.  ``build_final_states`` computes that dense pair on
each call and keeps nothing.

The scan never builds the dense states.  Its photon enters on a path, so
the absent state lives on the 2P propagating rows and the present state's
sink rows are the column ``absorbed @ inputs`` at g.  A unitary on the
sink rows takes that column to one row holding its norm, where the absent
state is zero: the witness is decided on 2P + 1 rows, with the dense
problem's singular values, residual and coefficient norm.  That norm is
the norm of R times the inputs, R the triangular factor of ``absorbed``,
so each transfer keeps one operator that maps the initial path rows to the
present path rows, the absent path rows and R's rows at once: a sample
costs one product whose size does not depend on the number of sinks, and
then the witness core that ``find_witness`` uses too.  The scan keeps that
operator alone, in an LRU keyed by value (layout, element tuple, mask), so
it propagates once per (network, mask); a compiled ``program`` keeps each
repeat as one node, so its key stays short at any chain length.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .elements import Element, Repeat, _identity, propagate
from .state import ATOM_LEVELS, G, AtomSpec, BasisLayout, JointState
from .state import _rank_one, product_factors
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


def _floor(n_modes: int, n_levels: int) -> float:
    """Singular values up to this share of the norm of the atom-present
    matrix count as zero in ``_witness``: its roundoff at ``n_modes`` photon
    modes and ``n_levels`` levels, but never below ``RANK_TOL``."""
    return max(np.finfo(float).eps * max(n_modes, n_levels), RANK_TOL)


def _dense_transfer(
    layout: BasisLayout, elements: Sequence[Element | Repeat], mask: frozenset[str]
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """``(prop, absorbed, columns)`` of ``elements`` under ``mask``, from one
    ``propagate`` of the 2P x 2P identity: level c of the 2P propagating
    rows leaves as ``prop[:, c]`` times its column, and the sink rows add at
    g ``absorbed`` times the stacked columns ``columns`` of the levels that
    interact (m+ and m- less the masked ones).  Nothing is kept."""
    n, n_levels = 2 * len(layout.paths), layout.n_levels
    # ``propagate`` carries a copy of the kept read-only identity.
    prop, absorbed = propagate(layout, elements, _identity(n, n_levels), mask=mask)
    # A masked level absorbs nothing: keep the other levels' inputs alone.
    columns = tuple(c for c, level in enumerate(ATOM_LEVELS[:2]) if level not in mask)
    absorbed = absorbed[:, list(columns)].reshape(len(layout.sinks), len(columns) * n)
    return prop, absorbed, columns


@dataclass(frozen=True, eq=False)
class _Transfer:
    """What the scan keeps of one network under one mask.

    ``operator`` acts on the row-major path block vec(M), M the initial
    state's 2P propagating rows, and stacks, in ``_dense_transfer``'s terms,
    - the atom-present matrix's 2P x L path rows (``prop[:, c] @ M[:, c]``
      per level c), then L zero rows that take its one sink row;
    - the atom-absent path rows ``prop[:, g] @ M``;
    - R times the interacting columns, R the triangular factor of
      ``absorbed``: at most k 2P rows for k interacting levels, whose norm
      is the norm of what the sinks absorb at g.
    Its shape does not depend on the number of sinks.  ``floor`` is
    ``_floor`` of the dense state's photon modes."""

    operator: np.ndarray
    floor: float


@functools.lru_cache(maxsize=8)
def _transfer(
    layout: BasisLayout, elements: tuple[Element | Repeat, ...], mask: frozenset[str]
) -> _Transfer:
    """The ``_Transfer`` of ``elements`` under ``mask``, read-only.  Eight
    entries hold every mask of one network, so no scan evicts its own."""
    prop, absorbed, columns = _dense_transfer(layout, elements, mask)
    n, n_levels = len(prop), layout.n_levels
    # |R v| is |absorbed v| to roundoff, at any size of v; the Gramian's
    # v^dagger G v would lose every part below sqrt(eps) of it.
    r = np.linalg.qr(absorbed, mode="r")
    width = n * n_levels
    operator = np.zeros(((2 * n + 1) * n_levels + len(r), width), dtype=complex)
    present = operator[:width].reshape(n, n_levels, n, n_levels)
    absent = operator[width + n_levels : 2 * width + n_levels].reshape(n, n_levels, n, n_levels)
    sink = operator[2 * width + n_levels :].reshape(len(r), n, n_levels)
    for c in range(n_levels):
        present[:, c, :, c] = prop[:, c]
        absent[:, c, :, c] = prop[:, G]
    for block, c in enumerate(columns):
        sink[:, :, c] = r[:, block * n : (block + 1) * n]
    operator.flags.writeable = False
    return _Transfer(operator, _floor(layout.n_photon_modes, n_levels))


def _compact_witness(
    layout: BasisLayout, transfer: _Transfer, initial: JointState, atom_init: np.ndarray
) -> Witness | Absence:
    """``find_witness`` of ``initial``'s final states under ``transfer``,
    decided on the 2P propagating rows and one sink row at g, over which
    the witness's ``phi_p`` runs, from one product with the transfer's
    operator; ``initial`` must hold no sink amplitude."""
    mat, n, n_levels = initial.matrix(), 2 * len(layout.paths), layout.n_levels
    if mat[n:].any():
        raise ValueError("initial state has sink amplitude: the photon must enter on a path")
    rows = transfer.operator @ mat[:n].reshape(-1)
    width = n * n_levels
    present = rows[: width + n_levels].reshape(n + 1, n_levels)
    absent = rows[width + n_levels : 2 * width + n_levels].reshape(n, n_levels)
    sink = rows[2 * width + n_levels :]
    present[n, G] = math.sqrt(np.vdot(sink, sink).real)
    return _witness(present, absent, atom_init, transfer.floor)


def _checked_mask(mask: Iterable[str]) -> frozenset[str]:
    """``mask`` as a frozenset, or a ValueError naming its unknown levels."""
    mask = frozenset(mask)
    unknown = mask.difference(ATOM_LEVELS)
    if unknown:
        raise ValueError(f"unknown atom levels in mask: {sorted(unknown)}")
    return mask


def build_final_states(
    layout: BasisLayout,
    elements: Sequence[Element],
    initial: JointState,
    transparency_mask: frozenset[str] = frozenset(),
) -> FinalStatePair:
    """Run the element sequence with the atom absent and with it
    transparent at ``transparency_mask``, whose levels must be
    ``ATOM_LEVELS``.

    The initial state carries the atom superposition; interacted and
    absorbed components stay inside the atom-present final state.  Both
    are the network's transfer under ``transparency_mask`` applied to
    ``initial``, propagated on each call and not kept.
    """
    if initial.layout != layout:
        raise ValueError("initial state does not match the layout")
    prop, absorbed, columns = _dense_transfer(layout, elements, _checked_mask(transparency_mask))
    mat, n = initial.matrix(), len(prop)
    absent, present = mat.copy(), mat.copy()
    absent[:n] = prop[:, G] @ mat[:n]
    present[:n] = np.einsum("icj,jc->ic", prop, mat[:n])
    present[n:, G] += absorbed @ mat[:n, columns].T.reshape(-1)
    return FinalStatePair(*(JointState(layout, amps.reshape(-1)) for amps in (absent, present)))


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
    norm = math.sqrt(np.vdot(atom_init, atom_init).real)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"atom_init must be finite and nonzero (norm {norm})")
    return atom_init / norm


def _witness(
    present: np.ndarray, absent: np.ndarray, atom_init: np.ndarray, floor: float
) -> Witness | Absence:
    """The witness decision on the (rows, levels) matrix ``present``.
    ``absent`` is the atom-absent matrix on the leading rows of ``present``
    and zero on the others, ``atom_init`` a unit vector, and ``floor`` the
    ``_floor`` of the dense state.  The witness's ``phi_p`` is over the rows
    of ``present``.  Neither matrix is written to."""
    norm = math.sqrt(np.vdot(present, present).real)
    if not norm >= RANK_TOL:
        raise ValueError("atom-present final state is zero or not finite")
    psi_f = _rank_one(absent)[0]
    restricted = present.copy()
    restricted[: len(psi_f)] -= psi_f[:, None] * (psi_f.conj() @ present[: len(psi_f)])

    # Minimum-norm solution of restricted^T c = atom_init from the thin SVD
    # restricted = u s vh: c = conj(u) s^-1 conj(vh) atom_init.  conj(c)
    # lies in the range of restricted, so it is orthogonal to psi_f: it is
    # the witness itself, with the residual and norm a complement basis
    # would give.  Singular values up to ``floor`` times the norm of present
    # count as zero: a cutoff relative to the largest one alone would fit
    # roundoff when every populated level is transparent, and one at the
    # roundoff level would spend a coefficient of order 1 on a leftover that
    # a truncated run leaves (fp.nqi at K = 117 leaves 1e-11 inside).
    u, s, vh = np.linalg.svd(restricted, full_matrices=False)
    cutoff = floor * norm
    kept = sum(value > cutoff for value in s.tolist())
    sol = u[:, :kept].conj() @ ((vh[:kept].conj() @ atom_init) / s[:kept])
    defect = restricted.T @ sol - atom_init
    residual = math.sqrt(np.vdot(defect, defect).real)
    coeff_norm = math.sqrt(np.vdot(sol, sol).real)
    if residual < RANK_TOL and RANK_TOL < coeff_norm < 1.0 / RANK_TOL:
        # As conj(c) is orthogonal to psi_f, the witness contracts present to
        # restricted^T c / |c| = (atom_init + defect) / |c|: delta is 1/|c|.
        phi_p = sol.conj() / coeff_norm
        return Witness(phi_p=phi_p, delta=complex(1.0 / coeff_norm), residual=residual)
    return Absence(residual=residual)


def find_witness(pair: FinalStatePair, atom_init: np.ndarray) -> Witness | Absence:
    """Decide whether a witness probe vector exists.

    Reshapes the atom-present state into a probe x atom matrix, projects
    its probe index onto the complement of the atom-absent probe state
    psi_f with ``I - psi_f psi_f^dagger`` (never forming the projector or
    a basis of the complement), and asks by least squares whether the
    initial atom vector lies in the projected row space.  The scan decides
    the same problem on the transfer's propagating rows and one sink row
    by the same core.  The pair's states are left as they are.
    """
    atom_init = _unit_atom_vector(atom_init, pair.atom_dim)
    floor = _floor(pair.probe_dim, pair.atom_dim)
    return _witness(pair.present.matrix(), pair.absent.matrix(), atom_init, floor)


_GRID_DIM_MAX = 3
# Phase and weight steps of the pairwise candidates, the seed of the random
# ones, and the contraction norm below which a candidate is skipped.
_GRID_ANGLES = 12
_GRID_SEED = 0
_GRID_AMP_TOL = 1e-6


@functools.lru_cache(maxsize=_GRID_DIM_MAX)
def _grid_candidates(dim: int) -> np.ndarray:
    """The read-only candidate rows of ``grid_witness_search`` in a
    complement of dimension ``dim``: the basis vectors, the pairwise
    superpositions over the phase grid, then the seeded random points.
    They depend on ``dim`` alone, so each dimension builds them once."""
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
    candidates.flags.writeable = False
    return candidates


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
    candidates = _grid_candidates(dim)
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
    sample on the given layout, with the photon on the propagating rows: a
    state of another layout, or with sink amplitude, is a ValueError.  A
    sample's own transparency mask adds to the scan mask, so an absent
    sample gets ``Absence``.  Every mask is checked before the first sample
    runs.  The network is propagated once per mask (transfers are kept
    by value, so an equal network reuses them), each mask's transfer is
    looked up once per call, and each sample is decided as
    ``find_witness`` of ``build_final_states`` would, from one product with
    the transfer's operator, without the dense states.
    """
    masks = [_checked_mask(mask) for mask in masks]
    if not masks:
        raise ValueError("at least one mask is required")
    samples = list(samples)
    if not samples:
        raise ValueError("at least one sample is required")
    elements = tuple(elements)
    transfers: dict[frozenset[str], _Transfer] = {}
    rows = []
    for mask in masks:
        for atom in samples:
            initial = initial_factory(atom)
            if initial.layout != layout:
                raise ValueError("initial state does not match the layout")
            scan_mask = mask | atom.transparency_mask
            if scan_mask not in transfers:
                transfers[scan_mask] = _transfer(layout, elements, scan_mask)
            atom_init = _unit_atom_vector(atom.level_vector(layout), layout.n_levels)
            result = _compact_witness(layout, transfers[scan_mask], initial, atom_init)
            found = isinstance(result, Witness)
            delta_sq = abs(result.delta) ** 2 if found else None
            rows.append(NogoRow(mask, atom.alpha, atom.beta, found, result.residual, delta_sq))
    return rows
