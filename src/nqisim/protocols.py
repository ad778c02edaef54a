"""Runners for the interrogation protocols and their closed forms.

Three experiments: direct interaction of a polarized photon with the
atom, the N-stage Mach-Zehnder chain, and the Fabry-Perot cavity, plus
the two-pass demonstration that an atom in superposition absorbs an
intracavity photon with certainty once the polarization is flipped
between passes.

Every network is described only by a bundled circuit -- ``direct.nqi``,
``twopass.nqi``, ``mz.nqi`` and ``fp.nqi`` -- which the runners compile
(``dsl``) once per binding and run through its level response
(``CompiledCircuit.level_response``); no element is built and nothing is
propagated here.  Every run ends in ``state.assemble_outcome``, which
scores the final state by the exit rows the circuit's ``classify`` line
compiles to (``CompiledCircuit.branches``); those names, the atom and
outcome types, ``POL_STATES`` and ``ATOM_LEVELS`` are re-exported here.

The level response propagates the input photon times the atom m+ = m-
= 1 once per transparency mask, an absent atom being masked at both.
``dsl.run_compiled`` scales its m+ cells by alpha and its m- cells by
beta (the levels never mix), so a sweep over atoms costs one propagation
per chain length.  The cavity's level response sums every round trip in
closed form from one trip's, aimed at each row it carries between trips.

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
and couples part of ``fwd`` out.  The cavity runner compiles it at K = 1
and runs it with a level response that sums all round trips,
B (I - T)^-1 x0 per atom level: the geometric series behind the paper's
i r and t t' beta.  Its ``details["round_trips"]`` is the K at which the
compiled ``fp.nqi`` leaves less than ``eps`` inside and so reproduces the
run.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .dsl import CircuitAst, CompiledCircuit, compile_circuit, load_golden, parse, run_compiled
# ``run_sequence`` is not called here; perfbench/tracing.py binds it as
# ``protocols.run_sequence``.
from .elements import Element, Relabel, run_sequence, sink_pair_labels
from .state import (
    ATOM_LEVELS,
    AtomSpec,
    BasisLayout,
    ConservationError,
    JointState,
    POL_STATES,
    ProtocolOutcome,
    assemble_outcome,
    initial_state,
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
    level responses.  Long chains reuse three ``mz`` circuits; a sweep over
    N misses at any bound, and a larger one multiplies the worst case
    (``mz`` at N = 10^5 holds 58 MB).
    """
    return compile_circuit(_golden(name), bindings)


def _probability(state: JointState, rows) -> float:
    """Total probability on the given photon rows (indices or a block)."""
    return float(np.sum(np.abs(state.matrix()[rows]) ** 2))


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
    S-#2``), from which ``details`` reads the absorption of that pass.  The
    circuit is propagated once per transparency mask and serves every atom.
    """
    out = run_compiled(_circuit("twopass"), atom)
    layout = out.final_state.layout
    for event, key in enumerate(("first_pass_absorbed", "second_pass_absorbed")):
        rows = [layout.photon_index(sink) for sink in sink_pair_labels(event)]
        out.details[key] = _probability(out.final_state, rows)
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
) -> tuple[BasisLayout, tuple[Element, ...], dict[str, np.ndarray]]:
    """Layout, element sequence and exit rows (``CompiledCircuit.branches``)
    of the N-stage chain."""
    circuit = mz_circuit(n_stages)
    return circuit.layout, circuit.elements, circuit.branches


def run_mz_chain(n_stages: int, atom: AtomSpec) -> ProtocolOutcome:
    """Simulate the N-stage chain for a |+> photon entering the lower port."""
    out = run_compiled(mz_circuit(n_stages), atom)
    out.details["n_stages"] = n_stages
    return out


# ---------------------------------------------------------------------------
# Fabry-Perot cavity


@dataclasses.dataclass(frozen=True)
class _Cavity(CompiledCircuit):
    """``fp.nqi`` at K = 1, whose level response sums every round trip:
    B_l (I - T_l)^-1 x0 per level l, from one trip aimed at each carried row.
    The input path is carried, and so is every path no ``relabel`` touches:
    a relabel takes the beam from a mirror port it leaves by to an exit."""

    # Per mask: the maps T_l and the input column x0 that ``trips`` scales.
    _trips: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def level_response(self, mask: frozenset[str]) -> np.ndarray:
        if mask not in self._responses:
            layout, carried = self.layout, [self.input_path]
            touched = {p for el in self.elements if isinstance(el, Relabel) for p in (el.src, el.dst)}
            carried += [p for p in layout.paths if p not in touched | {self.input_path}]
            columns = [
                CompiledCircuit.level_response(dataclasses.replace(self, input_path=path, input_pol=pol), mask)
                for path in carried
                for pol in layout.polarizations
            ]
            rows = np.r_[tuple(layout.path_block[p] for p in carried)]
            # response[..., j] is one trip's output for carried row j.
            response = np.stack(columns, axis=-1)
            levels = [layout.level_index(level) for level in ("m+", "m-")]
            maps = response[rows][:, levels].transpose(1, 0, 2)
            start = np.r_[POL_STATES[self.input_pol], np.zeros(len(rows) - 2)][:, None]
            totals = np.linalg.solve(np.eye(len(rows)) - maps, start[None])
            # Each level's cells take B_l times its total; the carried rows,
            # which would hold T_l times it, are empty once every trip is done.
            summed = response @ totals[..., 0].T
            final = np.where(self.plus_cells, summed[..., 0], summed[..., 1])
            final[rows] = 0.0
            final.flags.writeable = False
            self._trips[mask], self._responses[mask] = (maps, start), final
        return self._responses[mask]

    def trips(self, atom: AtomSpec) -> tuple[np.ndarray, np.ndarray]:
        """The maps T_l, stacked, and the columns x0_l that ``atom`` starts."""
        self.level_response(atom.transparency_mask)
        maps, start = self._trips[atom.transparency_mask]
        return maps, np.array([atom.alpha, atom.beta])[:, None, None] * start


@functools.lru_cache(maxsize=4)
def _cavity(**mirrors: float) -> _Cavity:
    """``fp.nqi`` at K = 1 as a ``_Cavity``, kept with its responses."""
    circuit = compile_circuit(_golden("fp"), {**mirrors, "K": 1})
    return _Cavity(**{f.name: getattr(circuit, f.name) for f in dataclasses.fields(circuit) if f.init})


# Powers T^(2^j) tried before a cavity is taken never to empty.  A
# spectral radius that floating point tells apart from 1 has decayed
# below every positive eps long before T^(2^64).
_FP_MAX_DOUBLINGS = 64


def _fp_round_trips(maps: np.ndarray, starts: np.ndarray, eps: float) -> int:
    """The first K at which sum_l |T_l^K x0_l|^2 falls below ``eps``, for
    the trip maps T_l stacked in ``maps`` and the columns x0_l in
    ``starts``.

    Each T_l is a contraction, so that carried probability never rises
    from one trip to the next: K is bracketed by the powers T^(2^j), found
    by repeated squaring, and then bisected.  A probability that is NaN
    has not fallen below ``eps``.
    """

    def emptied(vectors: np.ndarray) -> bool:
        return float(np.vdot(vectors, vectors).real) < eps

    if emptied(starts):
        return 0
    powers = [maps]
    while not emptied(powers[-1] @ starts):
        if len(powers) > _FP_MAX_DOUBLINGS:
            raise ConservationError(f"the cavity does not empty below eps = {eps!r}")
        powers.append(powers[-1] @ powers[-1])
    # At step j, ``trips`` leave eps or more inside and trips + 2^(j+1) less.
    trips, vectors = 0, starts
    for j in reversed(range(len(powers) - 1)):
        trial = powers[j] @ vectors
        if not emptied(trial):
            trips, vectors = trips + 2**j, trial
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
    float rounding of the trip's elements by 1/(1 - r r'), which fails
    conservation at high finesse.

    ``eps`` only sets ``details["round_trips"]``: the first K at which the
    carried probability sum_l |T_l^K x0_l|^2 falls below ``eps``, so the
    compiled ``fp.nqi`` at that K reproduces the run to within it.
    """
    for name, (tt, rr) in (("entry", (t, r)), ("far", (t_prime, r_prime))):
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
    blocks = cavity.layout.path_block
    out.details["reflected"] = _probability(out.final_state, blocks["refl"])
    out.details["transmitted"] = _probability(out.final_state, blocks["trans"])
    out.details["round_trips"] = _fp_round_trips(*cavity.trips(atom), eps)
    return out
