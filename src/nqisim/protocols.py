"""Runners for the interrogation protocols and their closed forms.

Three experiments: direct interaction of a polarized photon with the
atom, the N-stage Mach-Zehnder chain, and the Fabry-Perot cavity, plus
the two-pass demonstration that an atom in superposition absorbs an
intracavity photon with certainty once the polarization is flipped
between passes.

Every network is described only by a bundled circuit -- ``direct.nqi``,
``twopass.nqi``, ``mz.nqi`` and ``fp.nqi`` -- which the runners compile
(``dsl``) and propagate through ``elements.run_sequence``, the one
propagation loop; no element is built here.  Every run starts from
``state.initial_state`` and ends in ``state.assemble_outcome``, which
scores the final state by the exit rows the circuit's ``classify`` line
compiles to (``CompiledCircuit.branches``); those names, the atom and
outcome types, ``POL_STATES`` and ``ATOM_LEVELS`` are re-exported here.

The chain and the two-pass runner go through ``dsl.run_compiled``, which
propagates a compiled circuit once per atom presence and transparency
mask and builds each atom's final state from that level response: the
m+ and m- columns evolve apart, and each interaction's S+ sink row holds
only m+ amplitude and its S- row only m- amplitude, so alpha and beta
scale disjoint cells.  A sweep over atoms therefore costs one
propagation per chain length; the cavity iterates ``run_sequence``
itself.

Mach-Zehnder geometry: each stage is one beam splitter followed by the
two interferometer arms (atom pass, two mirrors and a polarization flip
per arm, second atom pass on the redirected beam).  The recombining beam
splitter of a stage is the splitting beam splitter of the next stage;
after the last stage the arm ends are the exit ports.  This reproduces
the stage-by-stage amplitude trace exactly and gives the closed-form
success probability [cos^2(pi/2N)]^N.

Fabry-Perot geometry: one repeat of ``fp.nqi`` is one round trip starting
at the entry mirror, which reflects the incoming photon out (i r) and the
intracavity beam back in.  The cavity runner compiles the circuit at
K = 1 and applies that round trip until the intracavity amplitude is
spent, so ``details["round_trips"]`` is the K at which the compiled
``fp.nqi`` reproduces the run.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dsl import CircuitAst, CompiledCircuit, compile_circuit, load_golden, parse, run_compiled
from .elements import Element, run_sequence, sink_pair_labels
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
from .tolerances import NORM_TOL, PROB_TOL

# Round trips after which a cavity run is taken not to converge.
_FP_MAX_TRIPS = 1_000_000


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


@functools.cache
def _fixed_circuit(name: str) -> CompiledCircuit:
    """A bundled circuit without parameters, compiled on first use."""
    return compile_circuit(_golden(name))


def _probability(state: JointState, rows) -> float:
    """Total probability on the given photon rows (indices or a block)."""
    return float(np.sum(np.abs(state.matrix()[rows]) ** 2))


# ---------------------------------------------------------------------------
# Direct interaction and the two-pass opacity demonstration


def run_direct(polarization: str, atom: AtomSpec) -> JointState:
    """One pass of a photon with the ``POL_STATES`` polarization
    ``polarization`` through the atom of ``direct.nqi``; returns the full
    joint state (no post-selection)."""
    circuit = _fixed_circuit("direct")
    layout = circuit.layout
    return run_sequence(
        layout,
        circuit.elements,
        initial_state(layout, circuit.input_path, polarization, atom),
        atom_present=atom.present,
        mask_override=atom.transparency_mask,
    )


def run_two_pass(atom: AtomSpec) -> ProtocolOutcome:
    """Send |+> through the atom, flip the polarization, pass again
    (``twopass.nqi``).

    With the atom present the photon is absorbed with certainty, which is
    what makes the atom in superposition equivalent to an opaque object.
    Each pass scatters into its own sink pair (``S+ S-``, then ``S+#2
    S-#2``), from which ``details`` reads the absorption of that pass.  The
    circuit is propagated once per transparency mask and serves every atom.
    """
    out = run_compiled(_fixed_circuit("twopass"), atom)
    layout = out.final_state.layout
    for event, key in enumerate(("first_pass_absorbed", "second_pass_absorbed")):
        rows = [layout.photon_index(sink) for sink in sink_pair_labels(event)]
        out.details[key] = _probability(out.final_state, rows)
    return out


# ---------------------------------------------------------------------------
# Mach-Zehnder chain


def mz_closed_form(n_stages: int) -> float:
    """[cos^2(pi/2N)]^N, the success probability of the N-stage chain."""
    if n_stages < 1:
        raise ValueError("the chain needs at least one stage")
    return math.cos(math.pi / (2 * n_stages)) ** (2 * n_stages)


@functools.lru_cache(maxsize=4)
def _mz_circuit(n_stages: int) -> CompiledCircuit:
    """``mz.nqi`` compiled at N = n_stages.

    Sweeps loop over atoms inside a loop over N, so the last few chains,
    each with its level responses, are enough to keep.  Every atom
    interaction gets a fresh sink pair: scattered photons from different
    stages are distinguishable, and merging them coherently would break
    probability conservation from N=3 on.
    """
    if n_stages < 1:
        raise ValueError("the chain needs at least one stage")
    return compile_circuit(_golden("mz"), {"N": n_stages})


def build_mz(
    n_stages: int,
) -> tuple[BasisLayout, tuple[Element, ...], dict[str, np.ndarray]]:
    """Layout, element sequence and exit rows (``CompiledCircuit.branches``)
    of the N-stage chain."""
    circuit = _mz_circuit(n_stages)
    return circuit.layout, circuit.elements, circuit.branches


def run_mz_chain(n_stages: int, atom: AtomSpec) -> ProtocolOutcome:
    """Simulate the N-stage chain for a |+> photon entering the lower port."""
    out = run_compiled(_mz_circuit(n_stages), atom)
    out.details["n_stages"] = n_stages
    return out


# ---------------------------------------------------------------------------
# Fabry-Perot cavity

_FP_EXITS = ("refl", "trans")


def run_fabry_perot(
    r: float,
    t: float,
    r_prime: float,
    t_prime: float,
    atom: AtomSpec,
    eps: float = 1e-12,
) -> ProtocolOutcome:
    """Iterate cavity round trips until the intracavity amplitude is spent.

    The photon enters linearly (x) polarized; its polarization is rotated
    x -> + -> y -> - -> x around each round trip, with the atom sitting
    mid-cavity between the two rotations of each half.
    """
    for name, (tt, rr) in (("entry", (t, r)), ("far", (t_prime, r_prime))):
        if not abs(tt**2 + rr**2 - 1.0) <= NORM_TOL:
            raise ValueError(f"{name} mirror is not unitary: t^2+r^2 = {tt**2 + rr**2}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    circuit = compile_circuit(
        _golden("fp"), {"T": t, "R": r, "TP": t_prime, "RP": r_prime, "K": 1}
    )
    layout = circuit.layout
    state = initial_state(layout, circuit.input_path, circuit.input_pol, atom)

    blocks = layout.path_block
    intracavity = np.r_[tuple(blocks[p] for p in layout.paths if p not in _FP_EXITS)]
    trips = 0
    while _probability(state, intracavity) >= eps:
        if trips >= _FP_MAX_TRIPS:
            raise RuntimeError("Fabry-Perot iteration failed to converge")
        state = run_sequence(
            layout,
            circuit.elements,
            state,
            atom_present=atom.present,
            mask_override=atom.transparency_mask,
        )
        trips += 1

    details = {
        "round_trips": trips,
        "reflected": _probability(state, blocks["refl"]),
        "transmitted": _probability(state, blocks["trans"]),
        "residual": _probability(state, intracavity),
    }
    # Truncation stops the coherent accumulation of out-coupled beams one
    # amplitude tail short, so the norm deficit scales like sqrt(eps).
    slack = max(PROB_TOL, 8.0 * math.sqrt(eps) / max(1e-6, 1.0 - r * r_prime))
    return assemble_outcome(
        state, circuit.branches, atom.level_vector(layout), details=details, prob_tol=slack
    )
