"""Linear maps for the optical and atomic components.

Phase conventions:

* Beam splitter: transmitted amplitude crosses to the partner path with
  real coefficient t; reflected amplitude stays on its path with
  coefficient i*r.  In the (path_a, path_b) basis the map is
  [[i r, t], [t, i r]], unitary for t^2 + r^2 = 1.
* Mirror: multiplies a path by i (two mirrors per interferometer arm
  contribute the -1 the stage traces require).
* Scattered photons never propagate again: every element acts as the
  identity on sink modes.

A path's ``+`` and ``-`` rows are adjacent (``BasisLayout.path_block``),
so each kernel is one operation on that (2, n_levels) block: a mirror or
phase shift scales it, a rotator multiplies it by ``u``, a beam splitter
mixes two blocks, a relabel adds one block into another.

``propagate`` is the one propagation, behind every runner's
``CompiledCircuit.level_response`` and the witness scan: it carries a
block of inputs on the propagating rows (P paths) and is pure.  It splits
the sequence at every atom interaction; each run of optical elements
between two interactions is one 2P x 2P map on those rows, built once per
call by the kernels on the identity, so the copies of a repeat body share
their maps.  An interaction moves its path's ``+`` row at m+ and ``-``
row at m- onto its sink rows, kept under the level they came from.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .state import ABSENT_MASK, ATOM_LEVELS, BasisLayout, JointState
from .tolerances import NORM_TOL


@dataclass(frozen=True)
class BeamSplitter:
    t: float
    r: float
    path_a: str
    path_b: str

    def __post_init__(self):
        if self.t < 0 or self.r < 0:
            raise ValueError("beam splitter amplitudes must be non-negative")
        if not abs(self.t**2 + self.r**2 - 1.0) <= NORM_TOL:
            raise ValueError(
                f"beam splitter is not unitary: t^2 + r^2 = {self.t**2 + self.r**2}"
            )
        if self.path_a == self.path_b:
            raise ValueError("beam splitter needs two distinct paths")


@dataclass(frozen=True)
class Mirror:
    path: str


@dataclass(frozen=True, eq=False)
class PolRotator:
    path: str
    u: np.ndarray

    def __post_init__(self):
        # A read-only copy: compiled circuits share one rotator across the
        # copies of a repeat body, and the caller's matrix stays its own.
        u = np.array(self.u, dtype=complex)
        u.flags.writeable = False
        if u.shape != (2, 2):
            raise ValueError("polarization rotator must be a 2x2 matrix")
        defect = np.max(np.abs(u.conj().T @ u - np.eye(2)))
        if not defect <= NORM_TOL:
            raise ValueError(f"polarization rotator is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "u", u)

    def __eq__(self, other):
        return isinstance(other, PolRotator) and self.path == other.path and np.array_equal(self.u, other.u)

    def __hash__(self):
        return hash((self.path, self.u.tobytes()))


POL_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class PhaseShift:
    path: str
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phase is not finite: {self.phi!r}")


@dataclass(frozen=True)
class AtomInteraction:
    """Absorption isometry on one path: (+, m+) -> S+ (x) g and (-, m-) -> S- (x) g.

    Levels in ``transparency_mask`` never interact.  Each interaction
    element owns its sink pair so that distinct scattering events stay
    orthogonal.
    """

    path: str
    transparency_mask: frozenset[str] = frozenset()
    sink_plus: str = "S+"
    sink_minus: str = "S-"

    def __post_init__(self):
        object.__setattr__(self, "transparency_mask", frozenset(self.transparency_mask))


@dataclass(frozen=True)
class Relabel:
    """Move (coherently merge) all amplitudes from one path onto another.

    An isometry when the destination is empty; with a populated
    destination it models same-mode interference of out-coupled beams.
    """

    src: str
    dst: str

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("relabel needs two distinct paths")


Element = BeamSplitter | Mirror | PolRotator | PhaseShift | AtomInteraction | Relabel


def _block(layout: BasisLayout, path: str) -> slice:
    try:
        return layout.path_block[path]
    except KeyError:
        raise ValueError(f"path {path!r} is not in the layout") from None


def _sink_row(layout: BasisLayout, sink: str) -> int:
    try:
        return layout.photon_index(sink)
    except ValueError:
        raise ValueError(f"sink {sink!r} is not in the layout") from None


def _beam_splitter_inplace(mat: np.ndarray, layout: BasisLayout, bs: BeamSplitter) -> None:
    a = _block(layout, bs.path_a)
    b = _block(layout, bs.path_b)
    ir = 1j * bs.r
    ina = mat[a].copy()
    mat[a] = ir * ina + bs.t * mat[b]
    mat[b] = bs.t * ina + ir * mat[b]


def _mirror_inplace(mat: np.ndarray, layout: BasisLayout, m: Mirror) -> None:
    mat[_block(layout, m.path)] *= 1j


def _pol_rotator_inplace(mat: np.ndarray, layout: BasisLayout, rot: PolRotator) -> None:
    block = _block(layout, rot.path)
    mat[block] = rot.u @ mat[block]


# exp(i k pi/2) for k mod 4: a phase at a multiple of the float pi/2 is
# meant as that many quarter turns, which cmath.exp misses by up to an ulp
# (exp(i pi) is -1 + 1.22e-16i, which detunes a high-finesse cavity).
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


def _phase_inplace(mat: np.ndarray, layout: BasisLayout, ps: PhaseShift) -> None:
    turns = round(ps.phi / (math.pi / 2))
    exact = turns * (math.pi / 2) == ps.phi
    mat[_block(layout, ps.path)] *= _QUARTER_TURNS[turns % 4] if exact else cmath.exp(1j * ps.phi)


def _relabel_inplace(mat: np.ndarray, layout: BasisLayout, rl: Relabel) -> None:
    src = _block(layout, rl.src)
    mat[_block(layout, rl.dst)] += mat[src]
    mat[src] = 0.0


_KERNELS = {
    BeamSplitter: _beam_splitter_inplace,
    Mirror: _mirror_inplace,
    PolRotator: _pol_rotator_inplace,
    PhaseShift: _phase_inplace,
    Relabel: _relabel_inplace,
}


def propagate(
    layout: BasisLayout,
    elements: Iterable[Element],
    photons: np.ndarray,
    *,
    mask: frozenset[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Carry the block ``photons``, k inputs on the 2P propagating rows at
    each of the L atom levels, (2P, L, k), through an element sequence.
    Returns the propagating rows after it, (2P, L, k), and what each sink
    row absorbed from m+ and from m-, (S, 2, k).  Levels in ``mask`` never
    interact, in addition to each interaction's own mask; with
    ``ABSENT_MASK`` among them every interaction is skipped."""
    n, n_levels, k = 2 * len(layout.paths), layout.n_levels, photons.shape[-1]
    if photons.shape != (n, n_levels, k):
        raise ValueError(f"photon block has shape {photons.shape}, not ({n}, {n_levels}, k)")
    # Each column's k cells in a row of the flat blocks: a scalar index at
    # k = 1, so that every move stays a scalar.
    cells = [c if k == 1 else slice(c * k, (c + 1) * k) for c in range(n_levels)]
    prop = np.array(photons, dtype=complex).reshape(n, n_levels * k)
    absorbed = np.zeros((len(layout.sinks), 2 * k), dtype=complex)
    interacts = not ABSENT_MASK <= mask
    # One map per distinct optical run, keyed by its element ids; each entry
    # keeps its run alive, so no id is reused while the call lasts.
    maps: dict[tuple[int, ...], tuple[np.ndarray, list[Element]]] = {}
    run: list[Element] = []
    levels = None
    for el in itertools.chain(elements, [None]):
        if el is not None and not isinstance(el, AtomInteraction):
            run.append(el)
            continue
        if run:
            key = tuple(map(id, run))
            if key not in maps:
                m = np.eye(n, dtype=complex)
                for optic in run:
                    _KERNELS[type(optic)](m, layout, optic)
                maps[key] = m, run
            prop = maps[key][0].dot(prop)
            run = []
        if el is None or not interacts:
            continue
        if levels is None:
            levels = [(i, lev, cells[layout.level_index(lev)]) for i, lev in enumerate(ATOM_LEVELS[:2])]
        start = _block(layout, el.path).start
        sinks = _sink_row(layout, el.sink_plus) - n, _sink_row(layout, el.sink_minus) - n
        for offset, level, col in levels:
            if level not in el.transparency_mask and level not in mask:
                absorbed[sinks[offset], cells[offset]] += prop[start + offset, col]
                prop[start + offset, col] = 0.0
    return prop.reshape(photons.shape), absorbed.reshape(len(layout.sinks), 2, k)


def run_sequence(
    layout: BasisLayout,
    elements: Iterable[Element],
    initial: JointState,
    *,
    mask_override: frozenset[str] = frozenset(),
) -> JointState:
    """``propagate`` of the one state ``initial`` under ``mask_override``,
    with what each sink row absorbed from either level added into its g
    cell, as a new state."""
    if initial.layout != layout:
        raise ValueError("initial state does not match the layout")
    mat = initial.matrix().copy()
    n = 2 * len(layout.paths)
    prop, absorbed = propagate(layout, elements, mat[:n, :, None], mask=mask_override)
    mat[:n] = prop[..., 0]
    if absorbed.any():
        mat[n:, layout.level_index(ATOM_LEVELS[2])] += absorbed[:, 0, 0] + absorbed[:, 1, 0]
    return JointState(layout, mat.reshape(-1))


def sink_pair_labels(event: int, base_plus: str = "S+", base_minus: str = "S-") -> tuple[str, str]:
    """Sink labels for the event-th atom interaction; event 0 keeps the bare names."""
    if event == 0:
        return base_plus, base_minus
    return f"{base_plus}#{event + 1}", f"{base_minus}#{event + 1}"
