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
between two interactions is one 2P x 2P map on those rows, built by the
kernels on the identity where the run is met and applied as one product
(a repeat's body is met once).  Under the run's mask each atom level is
read or passes: an interaction moves its path's ``+`` row at m+ and ``-``
row at m- onto its sink rows, kept under the level they came from, unless
the mask holds that level; g and every masked level pass.  A ``Repeat``
node of a compiled program is not unrolled: its body, propagated once on
the identity, is one 2P x 2P map per level and the rows its interactions
read.  Binary powers of that map, by repeated squaring, give each passing
level its count-th power and each read level every copy's input in
O(log count) products, from which one more product reads what every copy
absorbed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .state import ATOM_LEVELS, BasisLayout, JointState
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


@dataclass(frozen=True)
class Repeat:
    """``count`` copies of ``body`` in a row, kept as one node of a compiled
    program.  The body's interactions name the sink pairs of its first
    copy; copy c scatters into those rows moved on by c times two rows per
    interaction of a copy, as in the unrolled program, whose k-th
    interaction owns the k-th sink pair."""

    body: tuple[Element | "Repeat", ...]
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"a repeat needs a positive count, got {self.count!r}")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Taken once: the witness scan keys its transfers by the program,
        # and the field hash would walk the body on every lookup.
        return hash((self.body, self.count))

    def __getstate__(self) -> dict:
        # String hashes differ between processes; a copy takes its own.
        return {key: value for key, value in vars(self).items() if key != "_hash"}


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
    elements: Iterable[Element | Repeat],
    photons: np.ndarray,
    *,
    mask: frozenset[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Carry the block ``photons``, k inputs on the 2P propagating rows at
    each of the L atom levels, (2P, L, k), through an element sequence or
    a compiled program.  Returns the propagating rows after it, (2P, L, k),
    and what each sink row absorbed from m+ and from m-, (S, 2, k).  Levels
    in ``mask`` never interact, in addition to each interaction's own mask:
    m+ and m- outside ``mask`` are read, and every other level passes."""
    n, n_levels, k = 2 * len(layout.paths), layout.n_levels, photons.shape[-1]
    if photons.shape != (n, n_levels, k):
        raise ValueError(f"photon block has shape {photons.shape}, not ({n}, {n_levels}, k)")
    # The read levels: (offset of the row each reads in a path block, level,
    # level index).
    reads = [
        (offset, level, layout.level_index(level))
        for offset, level in enumerate(ATOM_LEVELS[:2])
        if level not in mask
    ]

    def advance(items: Iterable[Element | Repeat], block: np.ndarray):
        """``block``, (2P, L, c), after ``items``; what each interaction
        absorbed from m+ and from m-, (E, 2, c); and the two sink rows it
        absorbed into, (E, 2)."""
        c = block.shape[-1]
        # The interactions met here one by one, then each repeat's copies.
        amps: list[np.ndarray] = []
        rows: list[tuple[int, int]] = []
        repeated: list[tuple[np.ndarray, np.ndarray]] = []
        run: list[Element] = []
        for el in itertools.chain(items, [None]):
            if el is not None and not isinstance(el, (AtomInteraction, Repeat)):
                run.append(el)
                continue
            if run:
                # One product, as a repeat body's map is applied: kernels
                # applied to the block itself would round differently.
                m = np.eye(n, dtype=complex)
                for optic in run:
                    _KERNELS[type(optic)](m, layout, optic)
                block = m.dot(block.reshape(n, -1)).reshape(n, n_levels, c)
                run = []
            if isinstance(el, Repeat):
                block, copies, sink_rows = repeat(el, block)
                repeated.append((copies, sink_rows))
            elif el is not None and reads:
                start = _block(layout, el.path).start
                event = np.zeros((2, c), dtype=complex)
                for offset, level, index in reads:
                    if level not in el.transparency_mask:
                        event[offset] = block[start + offset, index]
                        block[start + offset, index] = 0.0
                amps.append(event)
                rows.append((_sink_row(layout, el.sink_plus), _sink_row(layout, el.sink_minus)))
        singles = np.array(amps, dtype=complex).reshape(-1, 2, c), np.array(rows, dtype=int).reshape(-1, 2)
        parts = [singles, *repeated]
        return (
            block,
            np.concatenate([part for part, _ in parts]),
            np.concatenate([part for _, part in parts]),
        )

    def repeat(node: Repeat, block: np.ndarray):
        """``advance`` through ``node.count`` copies of ``node.body``."""
        count, c = node.count, block.shape[-1]
        # The body on the identity: its map per level, and the row of the
        # input that each of its interactions reads at m+ and m-.
        identity = np.repeat(np.eye(n, dtype=complex)[:, None, :], n_levels, axis=1)
        body, absorbs, sink_rows = advance(node.body, identity)
        # The levels that the copies read, then those that pass.
        order = [index for _, _, index in reads] if len(absorbs) else []
        split = len(order)
        order += [j for j in range(n_levels) if j not in order]
        body, block = body.transpose(1, 0, 2)[order], block.transpose(1, 0, 2)[order]
        # A passing level leaves as body^count block, by repeated squaring; a
        # read level keeps copy j's input, body^j block, as inputs[:, :, j],
        # by doubling: body^(2^i) carries the first 2^i inputs to the next 2^i.
        passed, power = block[split:], body
        if split:
            inputs = np.empty((split, n, count, c), dtype=complex)
            inputs[:, :, 0] = block[:split]
        for i in range(count.bit_length()):
            if i:
                power = power @ power
            if count >> i & 1:
                passed = power[split:] @ passed
            done = 1 << i
            if split and done < count:
                step = min(done, count - done)
                moved = inputs[:, :, done : done + step].reshape(split, n, step * c)
                np.matmul(power[:split], inputs[:, :, :step].reshape(split, n, step * c), out=moved)
        if not split:  # every level passes, in its own order
            return passed.transpose(1, 0, 2), np.zeros((0, 2, c), dtype=complex), sink_rows
        out = np.empty((n_levels, n, c), dtype=complex)
        out[order] = np.concatenate([body[:split] @ inputs[:, :, -1], passed])
        per_copy = len(absorbs)
        copies = np.zeros((per_copy, 2, count * c), dtype=complex)
        for j, (offset, _, _) in enumerate(reads):
            copies[:, offset] = absorbs[:, offset] @ inputs[j].reshape(n, count * c)
        copies = copies.reshape(per_copy, 2, count, c).transpose(2, 0, 1, 3).reshape(-1, 2, c)
        shifts = 2 * per_copy * np.arange(count)[:, None, None]
        return out.transpose(1, 0, 2), copies, (sink_rows + shifts).reshape(-1, 2)

    prop, amps, rows = advance(elements, np.array(photons, dtype=complex))
    absorbed = np.zeros((len(layout.sinks), 2, k), dtype=complex)
    if len(rows):
        if rows.max() >= layout.n_photon_modes:
            raise ValueError("a repeat's copies scatter past the sinks of the layout")
        for offset in range(2):
            np.add.at(absorbed, (rows[:, offset] - n, offset), amps[:, offset])
    return prop, absorbed


def run_sequence(
    layout: BasisLayout,
    elements: Iterable[Element | Repeat],
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
