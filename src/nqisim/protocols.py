"""Runners for the interrogation protocols and their closed forms.

Three experiments: direct interaction of a polarized photon with the
atom, the N-stage Mach-Zehnder chain, and the Fabry-Perot cavity, plus
the two-pass demonstration that an atom in superposition absorbs an
intracavity photon with certainty once the polarization is flipped
between passes.

Every network is described only by a bundled circuit -- ``direct.nqi``,
``twopass.nqi``, ``mz.nqi`` and ``fp.nqi`` -- which the runners compile
(``dsl``) once per binding and run from its level response
(``CompiledCircuit.level_response``); no element is built and nothing is
propagated here.  Every run ends in ``state.score_outcome``, which scores
it by the exit rows the circuit's ``classify`` line compiles to
(``CompiledCircuit.branches``); ``state.assemble_outcome``, its front end
for a dense final state, the atom and outcome types, ``POL_STATES`` and
``ATOM_LEVELS`` are re-exported here.

The level response propagates the input photon times the atom m+ = m-
= 1 under a transparency mask, an absent atom being masked at both, and
holds each absorbed amplitude under the level it came from.
``dsl.run_compiled`` scales its m+ column by alpha and its m- column by
beta (the levels never mix), so a sweep over atoms costs one propagation
per chain length.  The compiled chain keeps its ``repeat N`` as one node,
which that propagation runs by doubling the stage's map (``elements``): it
takes O(log N) products, plus the O(N) sink rows it writes.  The first
run at a mask keeps, from that one response, two squared norms per
branch (``CompiledCircuit.branch_weights``) and the (m+, m-) responses of
the non-zero rows of the success and the failure branch, and drops the
response.  A run scales those rows by alpha and beta and
``score_outcome`` factors them in closed form, with no SVD: a run builds
no array but the atom factor.  Only ``run_two_pass``'s ``details`` and an
outcome's dense ``final_state`` (``CompiledCircuit.amplitudes``) read the
response, which propagates again for each of them.
The cavity's level response sums every later round trip in closed form
onto the first trip's, from one propagation of the input and each row it
carries between trips; the cavity keeps it per mask, because its checks
read ``final_state`` warm.

Mach-Zehnder geometry: each stage is one beam splitter followed by the
two interferometer arms (atom pass, two mirrors and a polarization flip
per arm, second atom pass on the redirected beam).  The recombining beam
splitter of a stage is the splitting beam splitter of the next stage;
after the last stage the arm ends are the exit ports.  This reproduces
the stage-by-stage amplitude trace exactly and gives the closed-form
success probability [cos^2(pi/2N)]^N.

Fabry-Perot geometry: one repeat of ``fp.nqi`` is one round trip of the
intracavity beam ``fwd``, past the atom to the far mirror and back.  It
starts at the entry mirror, which reflects the incoming photon out (i r)
and couples part of ``fwd`` out.  The trip runs in the + frame, with the
polarization flipped between the two atom passes, and its half turn
``phase fwd pi`` is an exact -1 (``elements`` applies a multiple of the
float pi/2 as exact quarter turns), so its only inexact elements are the
two mirrors; the photon is turned x -> + once before the first trip and
the exits are turned back once after the last.  The cavity runner compiles
it at K = 1 and runs it with a level response that adds every later round
trip to the first, B (I - T)^-1 v per atom level for the beam v that the
first trip leaves inside: the geometric series behind the paper's i r and
t t' beta.  Its ``details["reflected"]`` and ``details["transmitted"]``
are the run's success and failure probabilities: ``refl`` is the only
success path, and of the failure paths only ``trans`` holds light once
every trip is summed.  Its ``details["round_trips"]`` is the K at which
the compiled ``fp.nqi`` leaves less than ``eps`` inside, bracketed over
the columns T^(2^j) v and bisected over the columns T^K v of each carried
column v, which the cavity keeps per mask as searches read them, in plain
Python numbers: a warm run makes no numpy call outside ``run_compiled``,
and a repeated search computes no column.  The compiled circuit's exits
add coherently, so they miss an amplitude tail of order
sqrt(eps)/(1 - r r'), not eps.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Sequence

import numpy as np

from .dsl import CircuitAst, CompiledCircuit, compile_circuit, load_golden, parse, run_compiled
# ``run_sequence`` is not called here; perfbench/tracing.py binds it as
# ``protocols.run_sequence``.
from .elements import Element, Relabel, Repeat, run_sequence, sink_pair_labels
from .state import (
    ATOM_LEVELS,
    M_MINUS,
    M_PLUS,
    AtomSpec,
    BasisLayout,
    ConservationError,
    JointState,
    POL_STATES,
    ProtocolOutcome,
    assemble_outcome,
)
from .tolerances import NORM_TOL


def haar_random_atoms(n: int, seed: int) -> list[AtomSpec]:
    """Atom superpositions from normalized pairs of complex Gaussians."""
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < n:
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        norm = np.linalg.norm(z)
        if norm < 1e-6:
            continue
        z = z / norm
        samples.append(AtomSpec(alpha=z[0], beta=z[1]))
    return samples


@functools.cache
def _golden(name: str) -> CircuitAst:
    """A bundled circuit, parsed on first use."""
    return parse(load_golden(name))


@functools.lru_cache(maxsize=4)
def _circuit(name: str, **bindings: float) -> CompiledCircuit:
    """The bundled circuit ``name`` compiled at ``bindings``, kept with its
    mask records.  Long chains reuse three ``mz`` circuits; a sweep over N
    misses at any bound, and a larger one multiplies the worst case (``mz``
    at N = 10^5 holds 3.2 MB once compiled, nearly all of it the sinks
    branch's 400,000 rows, and no more once run, as a record keeps no
    response, after a peak of 49 MB during the first run at a mask:
    tracemalloc).
    """
    return compile_circuit(_golden(name), bindings)


# ---------------------------------------------------------------------------
# Direct interaction and the two-pass opacity demonstration


def run_direct(polarization: str, atom: AtomSpec) -> JointState:
    """One pass of a photon with the ``POL_STATES`` polarization
    ``polarization`` through the atom of ``direct.nqi``; returns the full
    joint state (no post-selection)."""
    circuit = dataclasses.replace(_circuit("direct"), input_pol=polarization)
    return run_compiled(circuit, atom).final_state


def run_two_pass(atom: AtomSpec) -> ProtocolOutcome:
    """Send |+> through the atom, flip the polarization, pass again
    (``twopass.nqi``).

    With the atom present the photon is absorbed with certainty, which is
    what makes the atom in superposition equivalent to an opaque object.
    Each pass scatters into its own sink pair (``S+ S-``, then ``S+#2
    S-#2``), from which ``details`` reads the absorption of that pass as
    |alpha|^2 P + |beta|^2 M, from the squared norms P and M of the m+ and
    m- columns of the level response over the pair's two rows, propagated
    and summed on each call.  The run itself propagates the circuit once
    per transparency mask for every atom.
    """
    circuit = _circuit("twopass")
    out = run_compiled(circuit, atom)
    response = circuit.level_response(atom.transparency_mask)
    a2, b2 = abs(atom.alpha) ** 2, abs(atom.beta) ** 2
    for event, key in enumerate(("first_pass_absorbed", "second_pass_absorbed")):
        cells = response[[circuit.layout.photon_index(sink) for sink in sink_pair_labels(event)]]
        squares = cells.real**2 + cells.imag**2
        plus, minus = float(squares[:, M_PLUS].sum()), float(squares[:, M_MINUS].sum())
        out.details[key] = a2 * plus + b2 * minus
    return out


# ---------------------------------------------------------------------------
# Mach-Zehnder chain


def mz_closed_form(n_stages: int) -> float:
    """[cos^2(pi/2N)]^N, the success probability of the N-stage chain, as
    exp(2N log1p(-2 sin^2(pi/4N))), which keeps full precision at large N."""
    if n_stages < 1:
        raise ValueError("the chain needs at least one stage")
    return math.exp(2 * n_stages * math.log1p(-2 * math.sin(math.pi / (4 * n_stages)) ** 2))


def mz_circuit(n_stages: int) -> CompiledCircuit:
    """``mz.nqi`` compiled at N = n_stages.  Every atom interaction gets a
    fresh sink pair: scattered photons from different stages are
    distinguishable, and merging them would break conservation from N=3 on.
    """
    if n_stages < 1:
        raise ValueError("the chain needs at least one stage")
    return _circuit("mz", N=n_stages)


def build_mz(
    n_stages: int,
) -> tuple[BasisLayout, tuple[Element | Repeat, ...], dict[str, np.ndarray]]:
    """Layout, compiled program and exit rows (``CompiledCircuit.branches``)
    of the N-stage chain: the program keeps the chain as one ``Repeat`` of
    its stage (``CompiledCircuit.elements`` unrolls it)."""
    circuit = mz_circuit(n_stages)
    return circuit.layout, circuit.program, circuit.branches


def run_mz_chain(n_stages: int, atom: AtomSpec) -> ProtocolOutcome:
    """Simulate the N-stage chain for a |+> photon entering the lower port."""
    out = run_compiled(mz_circuit(n_stages), atom)
    out.details["n_stages"] = n_stages
    return out


# ---------------------------------------------------------------------------
# Fabry-Perot cavity


@dataclasses.dataclass(frozen=True)
class _Cavity(CompiledCircuit):
    """``fp.nqi`` at K = 1, whose level response sums every round trip.
    The trip's only inexact elements are its two mirrors: its half turn,
    ``phase fwd pi``, is an exact -1.

    The photon leaves the first trip on the carried paths, those no
    ``relabel`` touches (a relabel takes the beam from a mirror port it
    leaves by to an exit), as the columns v_l per level l.  Each later trip
    starts there, and the program's statements outside the trip act only on
    the emptied input path or on the exits, so the response is the one-trip
    response plus B_l (I - T_l)^-1 v_l, with the carried rows emptied: T_l
    and B_l are one trip aimed at each carried row, propagated in one block
    with the input.  Unlike a plain circuit's, each mask's response is kept,
    read-only, for the dense ``final_state`` that the cavity's checks read
    warm, with one ``_Carried`` per distinct (T_l, v_l) with v_l != 0, which
    ``_fp_round_trips`` reads (``summed``).
    """

    _sums: dict[frozenset[str], tuple[np.ndarray, tuple[_Carried, ...]]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def level_response(self, mask: frozenset[str]) -> np.ndarray:
        return self.summed(mask)[0]

    def summed(self, mask: frozenset[str]) -> tuple[np.ndarray, tuple[_Carried, ...]]:
        """The summed response under ``mask`` and its carried columns,
        made on first use and kept."""
        kept = self._sums.get(mask)
        if kept is not None:
            return kept
        layout = self.layout
        # At K = 1 the program is the trip written out: a repeat of one
        # compiles to its body.
        touched = {p for el in self.program if isinstance(el, Relabel) for p in (el.src, el.dst)}
        carried = [p for p in layout.paths if p not in touched]
        aims = [(self.input_path, self.input_pol)]
        aims += [(path, pol) for path in carried for pol in layout.polarizations]
        block = self._aimed_response(aims, mask)
        rows = np.r_[tuple(layout.path_block[p] for p in carried)]
        # response[..., j] is one trip's output for carried row j.
        first, response = block[..., 0], np.ascontiguousarray(block[..., 1:])
        levels = [M_PLUS, M_MINUS]
        maps = response[rows][:, levels].transpose(1, 0, 2)
        inside = first[rows][:, levels].T[..., None]
        # Later trips add only to a level that the first leaves light in:
        # a closed entry mirror leaves none, and there I - T_l is singular.
        lit = inside.any(axis=(1, 2))
        totals = np.zeros_like(inside)
        totals[lit] = np.linalg.solve(np.eye(len(rows)) - maps[lit], inside[lit])
        # Each level's column takes B_l times its total; the carried rows,
        # which would hold T_l times it, are empty once every trip is done.
        summed = response @ totals[..., 0].T
        final = first.copy()
        final[:, levels] += summed[:, levels, [0, 1]]
        final[rows] = 0.0
        final.flags.writeable = False
        kept = self._sums[mask] = (final, _carried(maps, inside[..., 0]))
        return kept


@functools.lru_cache(maxsize=4)
def _cavity(**mirrors: float) -> _Cavity:
    """``fp.nqi`` at K = 1 as a ``_Cavity``, kept with its responses."""
    circuit = compile_circuit(_golden("fp"), {**mirrors, "K": 1})
    return _Cavity(**{f.name: getattr(circuit, f.name) for f in dataclasses.fields(circuit) if f.init})


# Powers T^(2^j) tried before a cavity is taken never to empty.  A
# spectral radius that floating point tells apart from 1 has decayed
# below every positive eps long before T^(2^64).
_FP_MAX_DOUBLINGS = 64

# Columns T^K v kept per carried column before every kept one is dropped.
# On fp.nqi's two carried rows a node holds about 300 bytes, so a full
# entry holds about 0.9 MB (tracemalloc).  Uncapped, a sweep of {m+} atoms
# at r = 0.99999 and eps = 1e-22 keeps 10,556 nodes (3.1 MB) after 2000
# atoms, and more with every further atom.
_FP_MAX_NODES = 3000


def _apply(matrix: list[list[complex]], column: list[complex]) -> tuple[list[complex], float]:
    """``matrix`` times ``column`` and its squared norm, in plain Python
    numbers: on the few carried rows one numpy call costs more than the
    arithmetic."""
    out, norm2 = [], 0.0
    for row in matrix:
        z = sum(map(operator.mul, row, column))
        out.append(z)
        norm2 += z.real * z.real + z.imag * z.imag
    return out, norm2


@dataclasses.dataclass(eq=False)
class _Carried:
    """The column v that the first round trip leaves on the carried rows
    for unit amplitude at each atom level of ``levels`` (0 for m+, 1 for
    m-), which share v and the trip map T, with its squared norm ``norm``
    and the powers T^(2^j), T itself first, squared on as far as a search
    needs.  ``nodes`` maps each trip count K > 0 that a search has read
    to the column T^K v and its squared norm (``node``).  The powers and
    nodes are kept across atoms and ``eps`` values; ``nodes`` holds at most
    ``_FP_MAX_NODES`` entries (about 0.9 MB on fp.nqi's two carried rows)
    and is emptied when it is full.  Every number is a plain Python one."""

    levels: list[int]
    column: list[complex]
    powers: list[list[list[complex]]]
    norm: float
    nodes: dict[int, tuple[list[complex], float]] = dataclasses.field(default_factory=dict, repr=False)

    def node(self, trips: int) -> tuple[list[complex], float]:
        """T^trips v and its squared norm: T^(2^j) times the column at
        ``trips`` with its lowest set bit 2^j cleared, so the same products
        whichever search reads it, kept in ``nodes``."""
        if not trips:
            return self.column, self.norm
        kept = self.nodes.get(trips)
        if kept is None:
            low = trips & -trips
            j = low.bit_length() - 1
            while len(self.powers) <= j:
                power = self.powers[-1]
                columns = list(zip(*power))
                self.powers.append([[sum(map(operator.mul, row, col)) for col in columns] for row in power])
            kept = _apply(self.powers[j], self.node(trips - low)[0])
            if len(self.nodes) >= _FP_MAX_NODES:
                self.nodes.clear()
            self.nodes[trips] = kept
        return kept


def _carried(maps: np.ndarray, columns: np.ndarray) -> tuple[_Carried, ...]:
    """One ``_Carried`` per level l whose column v_l, ``columns[l]``, is not
    zero, for the trip maps T_l, ``maps[l]``: levels whose T_l and v_l are
    bitwise equal, as an absent atom's two are, share one."""
    entries: dict[bytes, _Carried] = {}
    for level, (trip, column) in enumerate(zip(maps, columns)):
        if column.any():
            key = trip.tobytes() + column.tobytes()
            if key in entries:
                entries[key].levels.append(level)
            else:
                start = column.tolist()
                norm2 = sum(z.real * z.real + z.imag * z.imag for z in start)
                entries[key] = _Carried([level], start, [trip.tolist()], norm2)
    return tuple(entries.values())


def _fp_round_trips(carried: Sequence[_Carried], weights: Sequence[float], eps: float) -> int:
    """The first K at which sum_l w_l |T_l^K v_l|^2 falls below ``eps``,
    for the columns v_l and trip maps T_l of the entries ``carried``, each
    weighted by the sum of ``weights`` over its levels (|alpha|^2 and
    |beta|^2).

    Each T_l is a contraction, so that carried probability never rises
    from one trip to the next.  K is bracketed by the first power of two
    of trips (or none) that leaves less than ``eps`` and then bisected:
    from ``trips`` trips, a sum of powers of two above 2^j, the bisection
    tries trips + 2^j.  Every count it reads is a node of the entry
    (``_Carried.node``), which depends on the count alone, not on the
    weights or ``eps``, so a repeated search computes no column.  A
    probability that is NaN has not fallen below ``eps``.
    """
    entries = [(entry, sum([weights[level] for level in entry.levels])) for entry in carried]
    # The bracket reads 0 trips and then 2^(top-1) for top = 1, 2, ...,
    # until ``node`` leaves less than eps; ``trips``, read before it, does not.
    top, trips, node = 0, 0, 0
    while True:
        total = 0.0
        for entry, w in entries:
            total += w * entry.node(node)[1]
        if total < eps:
            break
        if top > _FP_MAX_DOUBLINGS:
            raise ConservationError(f"the cavity does not empty below eps = {eps!r}")
        top, trips, node = top + 1, node, 1 << top
    if top == 0:
        return 0
    # At step j, ``trips`` leave eps or more inside and trips + 2^(j+1) less.
    for j in reversed(range(top - 2)):
        node = trips + (1 << j)
        total = 0.0
        for entry, w in entries:
            total += w * entry.node(node)[1]
        if not total < eps:
            trips = node
    return trips + 1


def run_fabry_perot(
    r: float,
    t: float,
    r_prime: float,
    t_prime: float,
    atom: AtomSpec,
    eps: float = 1e-12,
) -> ProtocolOutcome:
    """Every round trip of the cavity ``fp.nqi`` at once (``run_compiled`` on
    a ``_Cavity``), with the photon entering x polarized.  The sum amplifies
    float rounding of the trip's only inexact elements, its two mirrors
    (its ``phase fwd pi`` is an exact -1), by 1/(1 - r r').  Equal mirrors
    conserve to about 1e-15 up to r = 1 - 10^-15, and an empty cavity
    transmits all but about 1e-15 there.  Unequal ones near 1 fail
    conservation already from about r = 1 - 10^-6, r' = 1 - 10^-7, where
    an empty cavity's branches sum to 1 + 1.5e-10; at r = 1 - 10^-8,
    r' = 1 - 10^-10 they sum 2.55e-9 short.

    ``details["reflected"]`` and ``details["transmitted"]`` are each
    exit's probability, the run's ``success_prob`` and ``failure_prob``:
    ``refl`` is the only success path, and the summed trips leave the other
    failure paths, ``in``, ``fwd`` and ``tport``, at exactly zero, so the
    failure sum adds only ``trans``'s rows.

    ``eps`` only sets ``details["round_trips"]``: one plus the first K at
    which the carried probability sum_l |a_l|^2 |T_l^K v_l|^2 falls below
    ``eps``, v_l being the beam the first trip leaves inside for unit
    amplitude at level l and a_l the atom's amplitude there
    (``_fp_round_trips``).  The compiled ``fp.nqi`` at that many trips
    leaves less than ``eps`` inside, but its exits miss an amplitude tail
    of order sqrt(eps)/(1 - r r'), which moves each of its probabilities by
    up to that much.  The search keeps the columns T_l^K v_l it reads with
    the cavity's summed response of the mask (``_Cavity.summed``), for every
    later atom and ``eps`` at these mirrors: up to ``_FP_MAX_NODES`` per
    carried column, about 0.9 MB, of which a mask has at most two
    (``_Carried``).
    """
    for name, (tt, rr) in (("entry", (t, r)), ("far", (t_prime, r_prime))):
        if tt < 0 or rr < 0:
            raise ValueError(f"{name} mirror amplitudes must be non-negative")
        if not abs(tt**2 + rr**2 - 1.0) <= NORM_TOL:
            raise ValueError(f"{name} mirror is not unitary: t^2+r^2 = {tt**2 + rr**2}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    cavity = _cavity(T=t, R=r, TP=t_prime, RP=r_prime)
    # Conservation first: a cavity whose trips never empty it fails there.
    try:
        out = run_compiled(cavity, atom)
    except ConservationError as exc:
        gain = f"1/(1 - r r') = {1 / (1 - r * r_prime):.1e}"
        note = f"float rounding of the round trip's elements is amplified by {gain}"
        raise ConservationError(f"{exc}; {note}") from None
    out.details["reflected"], out.details["transmitted"] = out.success_prob, out.failure_prob
    trips = cavity.summed(atom.transparency_mask)[1]
    weights = abs(atom.alpha) ** 2, abs(atom.beta) ** 2
    out.details["round_trips"] = 1 + _fp_round_trips(trips, weights, eps)
    return out
