"""Runners for the interrogation protocols and their closed forms.

Three experiments: direct interaction of a polarized photon with the
atom, the N-stage Mach-Zehnder chain, and the Fabry-Perot cavity, plus
the two-pass demonstration that a superposed atom absorbs an intracavity
photon with certainty once the polarization is flipped between passes.

The chain and the cavity are described only by the bundled circuits
``mz.nqi`` and ``fp.nqi``: the runners compile them (``dsl``) and
propagate the element lists through ``elements.run_sequence``, the one
propagation loop.  Every run starts from ``state.initial_state`` and ends
in ``state.assemble_outcome``; those names, the atom and outcome types,
``POL_STATES`` and ``ATOM_LEVELS`` are re-exported here.

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dsl import CircuitAst, CompiledCircuit, compile_circuit, load_golden, parse, run_compiled
from .elements import AtomInteraction, Element, PolRotator, POL_FLIP, run_sequence
from .state import (
    ATOM_LEVELS,
    AtomSpec,
    BasisLayout,
    ConservationError,
    JointState,
    POL_STATES,
    PhotonMode,
    ProtocolOutcome,
    assemble_outcome,
    initial_state,
    make_classifier,
    make_layout,
    partition_branches,
)
from .tolerances import NORM_TOL, PROB_TOL


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


# ---------------------------------------------------------------------------
# Direct interaction and the two-pass opacity demonstration


def _single_path_layout() -> BasisLayout:
    return make_layout(["a"], ["S+", "S-"], list(ATOM_LEVELS))


def run_direct(polarization: str | np.ndarray, atom: AtomSpec) -> JointState:
    """One pass of a polarized photon through the atom; returns the full
    joint state (no post-selection)."""
    layout = _single_path_layout()
    return run_sequence(
        layout,
        [AtomInteraction("a")],
        initial_state(layout, "a", polarization, atom),
        atom_present=atom.present,
        mask_override=atom.transparency_mask,
    )


def run_two_pass(atom: AtomSpec) -> ProtocolOutcome:
    """Send |+> through the atom, flip the polarization, pass again.

    With the atom present the photon is absorbed with certainty, which is
    what makes the superposed atom equivalent to an opaque object.
    """
    layout = _single_path_layout()
    interaction = AtomInteraction("a")
    classifier = make_classifier({"a": "failure"})

    def absorbed(st) -> float:
        return sum(
            b.probability for b in partition_branches(st, classifier) if b.label == "absorbed"
        )

    first = run_sequence(
        layout,
        [interaction],
        initial_state(layout, "a", "+", atom),
        atom_present=atom.present,
        mask_override=atom.transparency_mask,
    )
    final = run_sequence(
        layout,
        [PolRotator("a", POL_FLIP), interaction],
        first,
        atom_present=atom.present,
        mask_override=atom.transparency_mask,
    )
    absorbed_first = absorbed(first)
    return assemble_outcome(
        final,
        classifier,
        atom.level_vector(layout),
        details={
            "first_pass_absorbed": absorbed_first,
            "second_pass_absorbed": absorbed(final) - absorbed_first,
        },
    )


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

    Sweeps loop over atoms inside a loop over N, so the last few chains
    are enough to keep.  Every atom interaction gets a fresh sink pair:
    scattered photons from different stages are distinguishable, and
    merging them coherently would break probability conservation from
    N=3 on.
    """
    if n_stages < 1:
        raise ValueError("the chain needs at least one stage")
    return compile_circuit(_golden("mz"), {"N": n_stages})


def build_mz(
    n_stages: int,
) -> tuple[BasisLayout, tuple[Element, ...], Callable[[PhotonMode], str]]:
    """Layout, element sequence and exit classifier of the N-stage chain."""
    circuit = _mz_circuit(n_stages)
    return circuit.layout, circuit.elements, circuit.classifier()


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
    max_trips: int = 1_000_000,
) -> ProtocolOutcome:
    """Iterate cavity round trips until the intracavity amplitude is spent.

    The photon enters linearly (x) polarized; its polarization is rotated
    x -> + -> y -> - -> x around each round trip, with the atom sitting
    mid-cavity between the two rotations of each half.
    """
    for name, (tt, rr) in (("entry", (t, r)), ("far", (t_prime, r_prime))):
        if abs(tt**2 + rr**2 - 1.0) > NORM_TOL:
            raise ValueError(f"{name} mirror is not unitary: t^2+r^2 = {tt**2 + rr**2}")
    circuit = compile_circuit(
        _golden("fp"), {"T": t, "R": r, "TP": t_prime, "RP": r_prime, "K": 1}
    )
    layout = circuit.layout
    state = initial_state(layout, circuit.input_path, circuit.input_pol, atom)

    def rows(paths) -> list[int]:
        return [layout.photon_index((p, pol)) for p in paths for pol in layout.polarizations]

    def prob(st: JointState, idx: list[int]) -> float:
        return float(np.sum(np.abs(st.matrix()[idx]) ** 2))

    intracavity = rows(p for p in layout.paths if p not in _FP_EXITS)
    trips = 0
    while prob(state, intracavity) >= eps:
        if trips >= max_trips:
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
        "reflected": prob(state, rows(["refl"])),
        "transmitted": prob(state, rows(["trans"])),
        "residual": prob(state, intracavity),
    }
    # Truncation stops the coherent accumulation of out-coupled beams one
    # amplitude tail short, so the norm deficit scales like sqrt(eps).
    slack = max(PROB_TOL, 8.0 * math.sqrt(eps) / max(1e-6, 1.0 - r * r_prime))
    return assemble_outcome(
        state, circuit.classifier(), atom.level_vector(layout), details=details, prob_tol=slack
    )


# ---------------------------------------------------------------------------
# Fidelity scan


@dataclass(frozen=True)
class ScanRow:
    alpha: complex
    beta: complex
    success_prob: float
    fidelity: float | None


def success_fidelity_scan(
    runner: Callable[[AtomSpec], ProtocolOutcome], samples: Sequence[AtomSpec]
) -> list[ScanRow]:
    """Tabulate success probability and post-selected fidelity per sample."""
    rows = []
    for atom in samples:
        out = runner(atom)
        rows.append(
            ScanRow(atom.alpha, atom.beta, out.success_prob, out.success_fidelity)
        )
    return rows
