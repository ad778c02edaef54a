"""Joint photon-atom Hilbert space: basis layouts, amplitude vectors, branching.

A photon mode is either a propagating mode ``(path, polarization)`` or a
terminal sink label recording a scattered photon.  The joint basis is the
product of photon modes with atom levels, flattened into one dense complex
amplitude vector.  The atom levels are a constant of the model, as the
two polarizations are: every layout has ``ATOM_LEVELS``, m+, m- and g, in
the columns ``M_PLUS``, ``M_MINUS`` and ``G``, which every other module
indexes directly.  All operations here are pure functions on immutable
values; states are never mutated in place.  A compiled program's sinks
are a ``SinkLog``: one pair per atom interaction, each label named by
``sink_pair_labels`` on demand and its row found by arithmetic.

The two ends of every run live here as well: ``initial_state`` puts a
photon of one ``POL_STATES`` polarization on an input path, times the
atom superposition, and ``score_outcome`` scores a run by its three exits
(``BRANCH_LABELS``: success, failure, absorbed), whose photon rows each
circuit groups once as ``CompiledCircuit.branches``.  It takes the branch
probabilities and the photon (x) atom factors of one exit, which one core
(``_factor_rows``) takes in closed form from the exit's non-zero rows as
plain tuples: the levels never mix, so the exit's path rows hold m+ and m-
and its sink rows g, and the factors follow from 2 x 2 data with no SVD.
The photon factor is kept on the non-zero path rows alone, all that
names the exit polarization (``_exit_label``).
``assemble_outcome`` is its front end for a dense final state, whose exit
rows ``_branch_factors`` gathers.  ``product_factors`` keeps the SVD for a
general dense state.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar, Iterator, Sequence, Union

import numpy as np

from .tolerances import NORM_TOL, PROB_TOL, RANK_TOL

PhotonMode = Union[tuple[str, str], str]

POLARIZATIONS = ("+", "-")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Polarization states in (plus, minus) coordinates.  Linear x and y are
# fixed once and for all; x is the combination that appears in the direct
# interaction formula.
POL_STATES: dict[str, np.ndarray] = {
    "+": np.array([1.0, 0.0], dtype=complex),
    "-": np.array([0.0, 1.0], dtype=complex),
    "x": np.array([-_INV_SQRT2, _INV_SQRT2], dtype=complex),
    "y": np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex),
}

# The conjugated POL_STATES, in plain complex numbers, that name an exit.
_POL_BRAS = tuple(
    (label, tuple(z.conjugate() for z in ref.tolist())) for label, ref in POL_STATES.items()
)

ATOM_LEVELS = ("m+", "m-", "g")

# The column of each atom level in every (photon mode, level) matrix: m+
# and m- interact with the photon rows of their own polarization, ``+``
# and ``-``, which sit at the same offsets 0 and 1 of a path block.
M_PLUS, M_MINUS, G = range(len(ATOM_LEVELS))
_LEVEL_INDEX = {level: i for i, level in enumerate(ATOM_LEVELS)}

# An absent atom is transparent at both interacting levels: no probe
# tells the two apart.
ABSENT_MASK = frozenset(ATOM_LEVELS[:2])

# The exits that score a run, in the order a ``ProtocolOutcome`` lists them.
BRANCH_LABELS = ("success", "failure", "absorbed")


def sink_pair_labels(event: int, base_plus: str = "S+", base_minus: str = "S-") -> tuple[str, str]:
    """Sink labels for the event-th atom interaction; event 0 keeps the bare names."""
    if event == 0:
        return base_plus, base_minus
    return f"{base_plus}#{event + 1}", f"{base_minus}#{event + 1}"


# The tail ``#k`` that ``sink_pair_labels`` appends to a base label: k
# written in ASCII digits without a leading zero (``int`` would also take
# ``+3``, `` 3``, ``03`` and ``1_0``).
_EVENT_TAIL = re.compile(r"#([1-9][0-9]*)")


class SinkLog(SequenceABC):
    """The sink labels of ``pairs`` atom interactions as an event log: the
    k-th interaction scatters into the k-th pair, which
    ``sink_pair_labels(k, base_plus, base_minus)`` names on demand, so the
    log keeps its two bases and its length, not its labels.  It reads as
    the tuple of those labels -- ``S+, S-, S+#2, S-#2, ...`` -- and equals
    and hashes as that tuple; ``index`` takes a label's row apart by
    arithmetic and accepts only the labels the log names.  Raises
    ``ValueError`` where two of its labels coincide (a base may hold
    ``#``: bases ``S`` and ``S#2`` name ``S#2`` twice from two pairs on)."""

    __slots__ = ("bases", "pairs")

    def __init__(self, base_plus: str, base_minus: str, pairs: int):
        if pairs < 1:
            raise ValueError(f"a sink log needs at least one pair, got {pairs!r}")
        self.bases = (base_plus, base_minus)
        self.pairs = pairs
        # Labels with a tail cannot coincide unless the bases do, so a
        # repeated label is one base named by the other side of the log.
        for side, other in ((0, base_minus), (1, base_plus)):
            if self._pair(other, side) is not None:
                raise ValueError(f"duplicate sink label: {other!r}")

    def _pair(self, label: str, side: int) -> int | None:
        """The pair whose label on ``side`` (0 for plus) is ``label``, or None."""
        base = self.bases[side]
        if label == base:
            return 0
        if label.startswith(base):
            tail = _EVENT_TAIL.fullmatch(label, len(base))
            # No more digits than the last pair's: ``int`` refuses long ones.
            if tail is not None and len(tail[1]) <= len(str(self.pairs)):
                event = int(tail[1]) - 1
                if 1 <= event < self.pairs:
                    return event
        return None

    def __len__(self) -> int:
        return 2 * self.pairs

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("sink log index out of range")
        pair, side = divmod(i % len(self), 2)
        return sink_pair_labels(pair, *self.bases)[side]

    def __iter__(self) -> Iterator[str]:
        for pair in range(self.pairs):
            yield from sink_pair_labels(pair, *self.bases)

    def index(self, label, start: int = 0, stop: int | None = None) -> int:
        if isinstance(label, str):
            start, stop, _ = slice(start, stop).indices(len(self))
            for side in range(2):
                pair = self._pair(label, side)
                if pair is not None and start <= 2 * pair + side < stop:
                    return 2 * pair + side
        raise ValueError(f"{label!r} is not in the sink log")

    def __contains__(self, label) -> bool:
        try:
            self.index(label)
        except ValueError:
            return False
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, SinkLog):
            return (self.bases, self.pairs) == (other.bases, other.pairs)
        if isinstance(other, tuple):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        # As the label tuple hashes; the tuple is built for the hash alone.
        return hash(tuple(self))

    def __reduce__(self):
        return SinkLog, (*self.bases, self.pairs)

    def __repr__(self) -> str:
        return f"SinkLog({self.bases[0]!r}, {self.bases[1]!r}, pairs={self.pairs})"


def _check_unique(kind: str, labels: Sequence[str]) -> None:
    if len(set(labels)) == len(labels):
        return
    seen = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"duplicate {kind} label: {label!r}")
        seen.add(label)


@dataclass(frozen=True)
class BasisLayout:
    """Enumeration of joint (photon mode, atom level) basis states.

    Index convention: photon modes run lexicographically (paths x
    polarizations, then sinks), atom levels fastest, so
    ``index = photon_index * n_levels + level_index``.  Path ``i`` owns
    photon rows ``2i`` (``+``) and ``2i + 1`` (``-``): its block.  The
    polarizations and the atom levels are the same in every layout: m+,
    m- and g are the columns ``M_PLUS``, ``M_MINUS`` and ``G``.
    """

    paths: tuple[str, ...]
    # The labels given, or a compiled program's ``SinkLog``.
    sinks: tuple[str, ...] | SinkLog
    polarizations: ClassVar[tuple[str, str]] = POLARIZATIONS
    atom_levels: ClassVar[tuple[str, str, str]] = ATOM_LEVELS
    n_levels: ClassVar[int] = len(ATOM_LEVELS)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Equal layouts have equal sink counts, so the count stands in for
        # the labels: a ``SinkLog`` would write out all of them to hash (4N
        # for a chain of N stages).
        return hash((self.paths, len(self.sinks)))

    def __getstate__(self) -> dict:
        # String hashes differ between processes; a copy takes its own.
        return {key: value for key, value in vars(self).items() if key != "_hash"}

    @property
    def photon_modes(self) -> tuple[PhotonMode, ...]:
        """Every photon mode in row order, built on each read."""
        propagating: list[PhotonMode] = [
            (p, pol) for p in self.paths for pol in self.polarizations
        ]
        return tuple(propagating) + tuple(self.sinks)

    @cached_property
    def _photon_index(self) -> dict[PhotonMode, int]:
        """The row of each propagating mode and of each sink label given;
        a ``SinkLog``'s labels are found by arithmetic (``photon_index``)."""
        index: dict[PhotonMode, int] = {
            (p, pol): 2 * i + j for i, p in enumerate(self.paths) for j, pol in enumerate(self.polarizations)
        }
        if not isinstance(self.sinks, SinkLog):
            index.update(zip(self.sinks, range(len(index), self.n_photon_modes)))
        return index

    @cached_property
    def path_block(self) -> dict[str, slice]:
        """The two adjacent photon rows of each path: ``+`` then ``-``."""
        return {p: slice(2 * i, 2 * i + 2) for i, p in enumerate(self.paths)}

    @property
    def n_photon_modes(self) -> int:
        return len(self.paths) * 2 + len(self.sinks)

    @property
    def dim(self) -> int:
        return self.n_photon_modes * self.n_levels

    def photon_index(self, mode: PhotonMode) -> int:
        row = self._photon_index.get(mode)
        if row is not None:
            return row
        if isinstance(self.sinks, SinkLog):
            try:
                return 2 * len(self.paths) + self.sinks.index(mode)
            except ValueError:
                pass
        raise ValueError(f"unknown photon mode: {mode!r}")

    def level_index(self, level: str) -> int:
        try:
            return _LEVEL_INDEX[level]
        except KeyError:
            raise ValueError(f"unknown atom level: {level!r}") from None

    def index(self, mode: PhotonMode, level: str) -> int:
        return self.photon_index(mode) * self.n_levels + self.level_index(level)


def make_layout(
    paths: Sequence[str], sinks: Sequence[str], atom_levels: Sequence[str] = ATOM_LEVELS
) -> BasisLayout:
    """Build a layout with deterministic index assignment.

    Sinks may be empty; paths must not be.  A ``SinkLog`` is kept as it is
    (its labels are unique by its own check); any other sequence of sinks
    is kept as a tuple of its labels.  ``atom_levels``, if given, must be
    ``ATOM_LEVELS`` in that order: every layout has those columns.
    """
    if not paths:
        raise ValueError("at least one path is required")
    if tuple(atom_levels) != ATOM_LEVELS:
        raise ValueError(f"atom levels must be {ATOM_LEVELS}, got {tuple(atom_levels)}")
    _check_unique("path", paths)
    if not isinstance(sinks, SinkLog):
        _check_unique("sink", sinks)
        sinks = tuple(sinks)
    return BasisLayout(tuple(paths), sinks)


@dataclass(frozen=True)
class JointState:
    """Dense complex amplitude vector over a BasisLayout (possibly sub-normalized)."""

    layout: BasisLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.layout.dim},)"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def matrix(self) -> np.ndarray:
        """Amplitudes as an (n_photon_modes, n_levels) view."""
        return self.amplitudes.reshape(
            self.layout.n_photon_modes, self.layout.n_levels
        )

    def amplitude(self, mode: PhotonMode, level: str) -> complex:
        return complex(self.amplitudes[self.layout.index(mode, level)])


@dataclass(frozen=True)
class Branch:
    """One component of a partitioned state, kept sub-normalized."""

    state: JointState
    probability: float
    label: str


def partition_branches(
    state: JointState, branches: dict[str, np.ndarray]
) -> list[Branch]:
    """Split a state into the photon rows of each branch label
    (``CompiledCircuit.branches``); probabilities add up to the squared
    norm of the rows covered."""
    mat = state.matrix()
    parts = []
    for label, rows in branches.items():
        part = np.zeros_like(mat)
        part[rows] = mat[rows]
        st = JointState(state.layout, part.reshape(-1))
        parts.append(Branch(st, st.norm2, label))
    return parts


def _rank_one(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit photon and atom factors of a (photon rows, levels) matrix
    of rank one, from its leading singular vectors; raises ``ValueError``
    at a second singular value above ``RANK_TOL`` or on the zero matrix."""
    u, s, vh = np.linalg.svd(amps, full_matrices=False)
    if s.size > 1 and s[1] > RANK_TOL:
        raise ValueError(
            f"state is not a photon-atom product (second singular value {s[1]:.3e})"
        )
    if s[0] == 0.0:
        raise ValueError("cannot factor the zero state")
    return u[:, 0].copy(), vh[0].copy()


def product_factors(state: JointState) -> tuple[np.ndarray, np.ndarray]:
    """Factor a (sub-normalized) state into photon (x) atom unit vectors.

    Raises if the photon-atom amplitude matrix has rank > 1 beyond
    ``RANK_TOL``.  The product of the two factors times the state's norm
    reproduces the state up to a global phase absorbed into the photon
    factor.
    """
    return _rank_one(state.matrix())


# ---------------------------------------------------------------------------
# The atom, the input state and the outcome of a run


class ConservationError(RuntimeError):
    """Branch probabilities failed to sum to one."""


@dataclass(frozen=True)
class AtomSpec:
    """Atom prepared in alpha|m+> + beta|m->; levels in
    ``transparency_mask`` never interact.  An absent atom is one masked at
    ``ABSENT_MASK``: either mask implies the other, and its amplitudes,
    which still scale the final state, are normalized all the same."""

    alpha: complex = _INV_SQRT2
    beta: complex = _INV_SQRT2
    present: bool = True
    transparency_mask: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        mask = frozenset(self.transparency_mask)
        unknown = mask.difference(ATOM_LEVELS)
        if unknown:
            raise ValueError(f"unknown atom levels in transparency mask: {sorted(unknown)}")
        present = bool(self.present) and not ABSENT_MASK <= mask
        object.__setattr__(self, "present", present)
        object.__setattr__(self, "transparency_mask", mask if present else mask | ABSENT_MASK)
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n - 1.0) <= NORM_TOL:
            raise ValueError(f"atom amplitudes are not normalized: |a|^2+|b|^2={n}")

    def level_vector(self, layout: BasisLayout) -> np.ndarray:
        """The atom's amplitudes at m+, m- and g, the levels of every
        layout: alpha, beta and 0."""
        return np.array([self.alpha, self.beta, 0j])


def _aimed_photon(layout: BasisLayout, path: str, polarization: str) -> tuple[slice, np.ndarray]:
    """The rows of ``path`` (its block) and the ``POL_STATES`` vector of
    ``polarization`` on them, or a ValueError naming the unknown one."""
    pol = POL_STATES.get(polarization)
    if pol is None:
        raise ValueError(f"unknown polarization: {polarization!r}")
    if path not in layout.path_block:
        raise ValueError(f"path {path!r} is not in the layout")
    return layout.path_block[path], pol


def initial_state(
    layout: BasisLayout,
    path: str,
    polarization: str,
    atom: AtomSpec,
) -> JointState:
    """The photon on ``path`` with the ``POL_STATES`` polarization
    ``polarization``, times the atom superposition."""
    block, pol = _aimed_photon(layout, path, polarization)
    amps = np.zeros(layout.dim, dtype=complex)
    mat = amps.reshape(layout.n_photon_modes, layout.n_levels)
    mat[block] = np.outer(pol, atom.level_vector(layout))
    return JointState(layout, amps)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Branch probabilities of a run, and its post-selected atom state with
    that state's fidelity.  ``final_state``, the dense joint state, is
    built by ``build_final_state`` on first access and then kept."""

    success_prob: float
    failure_prob: float
    absorbed_prob: float
    success_atom_state: np.ndarray | None
    success_fidelity: float | None
    exit_polarization: str
    build_final_state: Callable[[], JointState] = field(repr=False, compare=False)
    details: dict = field(default_factory=dict)

    @cached_property
    def final_state(self) -> JointState:
        return self.build_final_state()


def _branch_factors(
    layout: BasisLayout, rows: np.ndarray, amps: np.ndarray
) -> tuple[list[tuple[int, complex]], np.ndarray]:
    """The unit photon and atom factors of a branch's (photon rows, levels)
    block ``amps`` on the photon rows ``rows``, as ``_rank_one`` takes them
    but in closed form (``_factor_rows``): the levels never mix, so the
    path rows hold amplitude only at m+ and m- and the sink rows only at g.
    Raises ``ValueError`` on amplitude outside that structure, at a second
    singular value above ``RANK_TOL`` or on the zero block."""
    n = 2 * len(layout.paths)
    # (photon row, m+ and m- amplitudes) of each non-zero path row, the g
    # amplitude of each non-zero sink row.
    path: list[tuple[int, complex, complex]] = []
    sink: list[complex] = []
    for row, (plus, minus, g) in zip(rows.tolist(), amps.tolist()):
        if row < n:
            if g:
                raise ValueError(f"photon row {row} has amplitude at level 'g'")
            if plus or minus:
                path.append((row, plus, minus))
        elif plus or minus:
            level = "m+" if plus else "m-"
            raise ValueError(f"photon row {row} has amplitude at level {level!r}")
        elif g:
            sink.append(g)
    return _factor_rows(path, sink)


def _factor_rows(
    path: list[tuple[int, complex, complex]],
    sink: list[complex],
) -> tuple[list[tuple[int, complex]], np.ndarray]:
    """The unit photon and atom factors of a branch whose non-zero rows are
    ``path``, (photon row, m+, m-) -- the rows x 2 block P -- and ``sink``,
    the g amplitudes -- the column s: the block's singular values are P's
    s1 and s2 and ||s||.

    s1 s2 is the root of the sum of P's squared 2 x 2 minors (Cauchy-Binet),
    which keeps s2 to an absolute 1e-16 where the Gram determinant would
    leave 1e-8, and s1^2 + s2^2 is P's squared norm.  P's leading right
    vector v comes from the better-conditioned row of the 2 x 2 Gram, and
    the photon factor on the path rows is P v / s1.  Raises ``ValueError``
    at a second singular value above ``RANK_TOL`` or on the zero block.
    The photon factor is given on the path rows of ``path`` alone, as
    (photon row, amplitude) pairs, and is empty where the sink rows lead;
    the atom factor, on every level, is the only array built.
    """
    aa = bb = det2 = sink2 = 0.0
    c = 0j
    for j, (_, a, b) in enumerate(path):
        aa += a.real * a.real + a.imag * a.imag
        bb += b.real * b.real + b.imag * b.imag
        c += a.conjugate() * b
        for _, a2, b2 in path[j + 1 :]:
            minor = a * b2 - a2 * b
            det2 += minor.real * minor.real + minor.imag * minor.imag
    for z in sink:
        sink2 += z.real * z.real + z.imag * z.imag
    frob, det, s_sink = aa + bb, math.sqrt(det2), math.sqrt(sink2)
    # s1^2 - s2^2, then s1 and s2 = s1 s2 / s1 without cancellation.
    gap = math.sqrt(max((frob - 2.0 * det) * (frob + 2.0 * det), 0.0))
    s1 = math.sqrt((frob + gap) / 2.0)
    s2 = det / s1 if s1 else 0.0
    lead, second = (s_sink, s1) if s_sink > s1 else (s1, max(s2, s_sink))
    if second > RANK_TOL:
        raise ValueError(
            f"state is not a photon-atom product (second singular value {second:.3e})"
        )
    if lead == 0.0:
        raise ValueError("cannot factor the zero state")

    atom = np.zeros(len(ATOM_LEVELS), dtype=complex)
    if s_sink > s1:
        atom[G] = 1.0
        return [], atom
    # The Gram [[aa, c], [c*, bb]] minus s1^2 annuls v; its row with the
    # smaller diagonal entry gives v without cancellation.
    if aa <= bb:
        v_plus, v_minus = c, complex((bb - aa + gap) / 2.0)
    else:
        v_plus, v_minus = complex((aa - bb + gap) / 2.0), c.conjugate()
    norm = math.hypot(abs(v_plus), abs(v_minus))
    v_plus, v_minus = v_plus / norm, v_minus / norm
    photon = [(row, (a * v_plus + b * v_minus) / s1) for row, a, b in path]
    atom[M_PLUS], atom[M_MINUS] = v_plus.conjugate(), v_minus.conjugate()
    return photon, atom


def _exit_label(photon: list[tuple[int, complex]]) -> str:
    """Name the polarization of a photon factor, given as (path row,
    amplitude) pairs, that is confined to one path."""
    blocks: dict[int, list[complex]] = {}
    for row, z in photon:
        blocks.setdefault(row // 2, [0j, 0j])[row % 2] = z
    populated = [blk for blk in blocks.values() if max(abs(blk[0]), abs(blk[1])) > 1e-9]
    if not populated:
        return "none"
    if len(populated) > 1:
        return "mixed"
    scale = math.hypot(*map(abs, populated[0]))
    plus, minus = (z / scale for z in populated[0])
    for label, (ref_plus, ref_minus) in _POL_BRAS:
        if abs(ref_plus * plus + ref_minus * minus) ** 2 > 1.0 - 1e-9:
            return label
    return "mixed"


def score_outcome(
    probs: tuple[float, float, float],
    factors: Callable[[str], tuple[list[tuple[int, complex]], np.ndarray]],
    atom_init: Sequence[complex],
    final_state: Callable[[], JointState],
    prob_tol: float = PROB_TOL,
) -> ProtocolOutcome:
    """Score a run from its branch probabilities ``probs``, one per label of
    ``BRANCH_LABELS`` in that order, and, on request, the factors of one
    branch: ``factors(label)`` is the unit photon factor on the branch's
    non-zero path rows and the unit atom factor (``_factor_rows``), or a
    ``ValueError`` if the branch is not a product.

    The probabilities, added in that order, must sum to one within
    ``prob_tol``.  Only one branch is factored: the success
    branch, into the post-selected atom state, its fidelity to
    ``atom_init`` (the initial amplitude of each level, normalized here)
    and the exit polarization, or failing that the failure branch, which
    names the exit polarization alone ("mixed" if it is not a product); a
    success branch that is not a product raises ``ValueError``.  The
    outcome's ``final_state`` is ``final_state()``, called on first access.
    """
    if not 0.0 <= prob_tol < math.inf:
        raise ValueError(f"prob_tol must be finite and non-negative, got {prob_tol!r}")
    success, failure, absorbed = probs
    total = success + failure + absorbed
    if not abs(total - 1.0) <= prob_tol:
        raise ConservationError(
            f"branch probabilities sum to {total!r}, expected 1"
        )

    success_atom = None
    success_fid = None
    exit_pol = "none"
    if success > PROB_TOL:
        photon, success_atom = factors("success")
        # The squared norm of atom_init and its overlap with the atom
        # factor, each summed level by level.
        init2 = overlap = 0
        for a, z in zip(success_atom.tolist(), atom_init):
            init2 += z.real * z.real + z.imag * z.imag
            overlap += a.conjugate() * z
        if not 0.0 < init2 < math.inf:
            raise ValueError("atom_init must be a finite non-zero vector")
        success_fid = min(abs(overlap) ** 2 / init2, 1.0)
        exit_pol = _exit_label(photon)
    elif failure > PROB_TOL:
        try:
            photon, _ = factors("failure")
        except ValueError:
            exit_pol = "mixed"
        else:
            exit_pol = _exit_label(photon)

    return ProtocolOutcome(
        success_prob=success,
        failure_prob=failure,
        absorbed_prob=absorbed,
        success_atom_state=success_atom,
        success_fidelity=success_fid,
        exit_polarization=exit_pol,
        build_final_state=final_state,
    )


def assemble_outcome(
    final: JointState,
    branches: dict[str, np.ndarray],
    atom_init: np.ndarray,
    prob_tol: float = PROB_TOL,
) -> ProtocolOutcome:
    """Branch probabilities of a dense final state, each the squared norm
    of its branch's photon rows, scored by ``score_outcome`` on those rows
    (``_branch_factors``); the outcome's ``final_state`` is ``final``."""
    layout = final.layout
    mat = final.matrix()
    all_rows = np.arange(layout.n_photon_modes)
    rows = {label: all_rows[branch] for label, branch in branches.items()}
    parts = {label: mat[rows[label]] for label in BRANCH_LABELS if label in rows}
    probs = tuple(
        float(np.vdot(parts[label], parts[label]).real) if label in parts else 0.0
        for label in BRANCH_LABELS
    )

    def factors(label: str) -> tuple[list[tuple[int, complex]], np.ndarray]:
        return _branch_factors(layout, rows[label], parts[label])

    init = np.asarray(atom_init).tolist()
    return score_outcome(probs, factors, init, lambda: final, prob_tol)
