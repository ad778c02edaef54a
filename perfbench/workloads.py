"""The four benchmark workloads and the checks on their outputs.

Each workload draws the inputs of every pass from the seed and the pass
number, runs the pass, and checks every output at the acceptance-gate
tolerances.  Atoms are fresh in every pass, so a result cached in one
pass cannot answer the next; the networks stay the same.  A pass calls the
library only through module attributes (``protocols.run_mz_chain``, not a
name imported here), so the traced run sees every call.  Why each
workload exists is written in ``README.md`` beside this file.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from nqisim import dsl, nogo, protocols
from nqisim.elements import POL_FLIP, AtomInteraction, PolRotator
from nqisim.protocols import POL_STATES, AtomSpec, mz_closed_form
from nqisim.state import JointState, make_layout
from nqisim.tolerances import RANK_TOL

# Acceptance-gate tolerances (tests/test_acceptance.py).
PROB_TOL = 1e-10
TRANSMISSION_TOL = 1e-9
WITNESS_GRID_TOL = 1e-6
ABSENCE_GRID_FLOOR = 1e-2
FP_EPS = 1e-22
MASK_M_PLUS = frozenset({"m+"})


@dataclass
class Ledger:
    """Counts protocol runs and failed checks, times each run, and keeps
    the worst deviation seen by each check."""

    attempted: int = 0
    failed: int = 0
    run_times: list[float] = field(default_factory=list)
    worst: dict[str, float] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def run(self, check, fn, *args, **kwargs):
        """One protocol run: time ``fn``, then ``check(output)``.

        A run whose check fails, or that raises, counts as failed; the
        pass goes on with the next run.
        """
        self.attempted += 1
        out = None
        try:
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.run_times.append(time.perf_counter() - start)
            ok = check(out)
        except Exception as exc:  # boundary: record it and keep measuring
            self._error(exc)
            ok = False
        if not ok:
            self.failed += 1
        return out

    def attempt(self, fn, *args, **kwargs):
        """A step that is not a protocol run (parse, compile, build).

        On an exception it returns None, so every run that needs the
        result raises in turn and is counted as failed.
        """
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # boundary: the runs that follow fail
            self._error(exc)
            return None

    def dev(self, check: str, deviation: float, tol: float) -> bool:
        """Record a deviation; true when it is within ``tol``."""
        deviation = float(deviation)
        self.note(check, deviation)
        ok = deviation <= tol  # NaN fails
        if not ok:
            self.misses[check] = self.misses.get(check, 0) + 1
        return ok

    def note(self, check: str, deviation: float) -> None:
        """Record a deviation that is reported but not checked."""
        prev = self.worst.get(check, 0.0)
        self.worst[check] = deviation if math.isnan(deviation) else max(prev, deviation)

    def _error(self, exc: BaseException) -> None:
        self.errors.append(f"{type(exc).__name__}: {exc}")
        if len(self.errors) <= 3:
            traceback.print_exception(exc, file=sys.stderr)


def draw_atoms(rng: np.random.Generator, n: int, mask=frozenset()) -> list[AtomSpec]:
    """Atom superpositions from normalized pairs of complex Gaussians."""
    atoms = []
    while len(atoms) < n:
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        norm = float(np.linalg.norm(z))
        if norm < 1e-6:
            continue
        z = z / norm
        atoms.append(AtomSpec(complex(z[0]), complex(z[1]), transparency_mask=mask))
    return atoms


def input_state(layout, path: str, pol: str, atom: AtomSpec) -> JointState:
    """Photon on (path, pol) times the atom superposition."""
    amps = np.zeros(layout.dim, dtype=complex)
    mat = amps.reshape(layout.n_photon_modes, layout.n_levels)
    vec = atom.level_vector(layout)
    for i, p in enumerate(layout.polarizations):
        mat[layout.photon_index((path, p))] = POL_STATES[pol][i] * vec
    return JointState(layout, amps)


def _branch_probs(out) -> tuple[float, float, float]:
    return out.success_prob, out.failure_prob, out.absorbed_prob


# ---------------------------------------------------------------------------
# Mach-Zehnder chain: the sweep and the long chains share these checks.


def _chain_ok(led: Ledger, out, expected: float) -> bool:
    if out.success_fidelity is not None:
        fid_dev = abs(out.success_fidelity - 1.0)
    else:  # no success branch, which is right only where none is expected
        fid_dev = 0.0 if expected <= PROB_TOL else math.inf
    return all(
        [
            led.dev("chain.branch_sum", abs(sum(_branch_probs(out)) - 1.0), PROB_TOL),
            led.dev("chain.closed_form", abs(out.success_prob - expected), PROB_TOL),
            led.dev("chain.fidelity", fid_dev, PROB_TOL),
        ]
    )


def _agree_ok(led: Ledger, out, lib_probs) -> bool:
    if lib_probs is None:
        return led.dev("chain.lib_dsl_agreement", math.inf, PROB_TOL)
    diff = max(abs(a - b) for a, b in zip(_branch_probs(out), lib_probs))
    return led.dev("chain.lib_dsl_agreement", diff, PROB_TOL)


class ChainSweep:
    name = "chain-sweep"

    def inputs(self, seed: int, pass_index: int, tiny: bool = False) -> dict:
        rng = np.random.default_rng([seed, pass_index])
        return {
            # Seeded order: runs of one length are spread over the pass.
            "stages": [int(n) for n in rng.permutation(np.arange(1, 5 if tiny else 65))],
            "atoms": draw_atoms(rng, 2 if tiny else 20),
            "source": dsl.load_golden("mz"),
        }

    def warmup(self, inp: dict, led: Ledger) -> None:
        self.run_pass(dict(inp, stages=[max(inp["stages"])], atoms=inp["atoms"][:1]), led)

    def run_pass(self, inp: dict, led: Ledger) -> None:
        lib: dict[tuple[int, int], tuple | None] = {}
        for n in inp["stages"]:
            expected = mz_closed_form(n)
            for i, atom in enumerate(inp["atoms"]):
                out = led.run(
                    lambda o: _chain_ok(led, o, expected), protocols.run_mz_chain, n, atom
                )
                lib[n, i] = _branch_probs(out) if out is not None else None

        ast = led.attempt(dsl.parse, inp["source"])
        for n in inp["stages"]:
            expected = mz_closed_form(n)
            circuit = led.attempt(dsl.compile_circuit, ast, {"N": n})
            for i, atom in enumerate(inp["atoms"]):
                led.run(
                    lambda o: all([_chain_ok(led, o, expected), _agree_ok(led, o, lib[n, i])]),
                    dsl.run_compiled,
                    circuit,
                    atom,
                )


class ChainLong:
    name = "chain-long"

    def inputs(self, seed: int, pass_index: int, tiny: bool = False) -> dict:
        rng = np.random.default_rng([seed, pass_index])
        return {
            "stages": [int(n) for n in rng.permutation([20, 30, 40] if tiny else [1000, 1500, 2000])],
            "atoms": draw_atoms(rng, 2),
        }

    def warmup(self, inp: dict, led: Ledger) -> None:
        self.run_pass(dict(inp, stages=[min(inp["stages"])], atoms=inp["atoms"][:1]), led)

    def run_pass(self, inp: dict, led: Ledger) -> None:
        for n in inp["stages"]:
            expected = mz_closed_form(n)
            for atom in inp["atoms"]:
                led.run(lambda o: _chain_ok(led, o, expected), protocols.run_mz_chain, n, atom)


# ---------------------------------------------------------------------------
# Witness scan


def _scan_ok(led: Ledger, rows, mask) -> bool:
    (row,) = rows
    if not mask:
        return led.dev("witness.none_residual", row.residual, RANK_TOL) and row.witness_found
    # Certified absence: the best residual stays a fixed share of the
    # smaller amplitude (it is the transparent component left over).
    bound = min(abs(row.alpha), abs(row.beta)) / 2
    shortfall = bound / row.residual if row.residual > 0 else math.inf
    return led.dev("witness.m+_bound_over_residual", shortfall, 1.0) and not row.witness_found


def _grid_ok(led: Ledger, result) -> bool:
    decided, grid_best = result
    if isinstance(decided, nogo.Witness):
        return led.dev("grid.witness_defect", grid_best, WITNESS_GRID_TOL)
    floor_ratio = ABSENCE_GRID_FLOOR / grid_best if grid_best > 0 else math.inf
    return led.dev("grid.absence_floor_over_defect", floor_ratio, 1.0)


def _grid_oracle(layout, elements, pol: str, atom: AtomSpec):
    pair = nogo.build_final_states(layout, elements, input_state(layout, "a", pol, atom))
    atom_init = atom.level_vector(layout)
    decided = nogo.find_witness(pair, atom_init)
    grid_best, _ = nogo.grid_witness_search(pair, atom_init)
    return decided, grid_best


class WitnessScan:
    name = "witness-scan"

    def inputs(self, seed: int, pass_index: int, tiny: bool = False) -> dict:
        rng = np.random.default_rng([seed, pass_index])
        return {
            "stages": 4 if tiny else 150,
            "atoms": draw_atoms(rng, 2 if tiny else 10),
            "masks": [frozenset(), MASK_M_PLUS],
        }

    def warmup(self, inp: dict, led: Ledger) -> None:
        self.run_pass(dict(inp, atoms=inp["atoms"][:1], masks=inp["masks"][:1]), led)

    def run_pass(self, inp: dict, led: Ledger) -> None:
        layout, elements, _ = led.attempt(protocols.build_mz, inp["stages"]) or (None,) * 3

        def factory(atom):
            return input_state(layout, "l", "+", atom)

        for mask in inp["masks"]:
            for atom in inp["atoms"]:
                led.run(
                    lambda rows: _scan_ok(led, rows, mask),
                    nogo.transparency_nogo_scan,
                    layout,
                    elements,
                    factory,
                    [mask],
                    [atom],
                )

        # The three single-path instances of acceptance criterion 7, where
        # the complement has dimension 3 and the grid oracle can decide.
        small = make_layout(["a"], ["S+", "S-"], list(protocols.ATOM_LEVELS))
        hit = AtomInteraction("a")
        cases = [
            ([hit], "x", AtomSpec(0.6, 0.8)),
            ([hit, PolRotator("a", POL_FLIP), hit], "+", AtomSpec(0.6, 0.8)),
            ([hit], "x", AtomSpec(0.0, 1.0)),
        ]
        for elements_small, pol, atom in cases:
            led.run(lambda r: _grid_ok(led, r), _grid_oracle, small, elements_small, pol, atom)


# ---------------------------------------------------------------------------
# Fabry-Perot cavity


def _mirror(r: float) -> tuple[float, float, float, float]:
    t = math.sqrt(1.0 - r * r)
    return r, t, r, t


def _reflection_dev(out, r: float, atom: AtomSpec, levels) -> float:
    """Largest deviation of the reflected amplitudes from i r x (x) atom."""
    final = out.final_state
    amp = {"m+": atom.alpha, "m-": atom.beta}
    return max(
        abs(final.amplitude(("refl", pol), level) - 1j * r * POL_STATES["x"][i] * amp[level])
        for i, pol in enumerate(final.layout.polarizations)
        for level in levels
    )


def _cavity_ok(led: Ledger, out, r: float, atom: AtomSpec) -> bool:
    led.note("cavity.branch_sum", abs(sum(_branch_probs(out)) - 1.0))
    if not atom.present:
        return led.dev(
            "cavity.empty_transmission",
            abs(out.details["transmitted"] - 1.0),
            TRANSMISSION_TOL,
        )
    if atom.transparency_mask == MASK_M_PLUS:
        # m+ sees an empty cavity and is transmitted; m- is reflected
        # promptly with i r and absorbed inside.
        final = out.final_state
        trans_m_plus = sum(
            abs(final.amplitude(("trans", pol), "m+")) ** 2 for pol in final.layout.polarizations
        )
        return all(
            [
                led.dev(
                    "cavity.m+_transmission",
                    abs(trans_m_plus - abs(atom.alpha) ** 2),
                    TRANSMISSION_TOL,
                ),
                led.dev("cavity.reflection_amplitude", _reflection_dev(out, r, atom, ["m-"]), PROB_TOL),
            ]
        )
    fid_dev = abs(out.success_fidelity - 1.0) if out.success_fidelity is not None else math.inf
    return all(
        [
            led.dev("cavity.fidelity", fid_dev, PROB_TOL),
            led.dev(
                "cavity.reflection_amplitude", _reflection_dev(out, r, atom, ["m+", "m-"]), PROB_TOL
            ),
        ]
    )


def _compiled_ok(led: Ledger, out, ref) -> bool:
    led.note("cavity.branch_sum", abs(sum(_branch_probs(out)) - 1.0))
    return led.dev(
        "cavity.lib_dsl_agreement", abs(out.failure_prob - ref.failure_prob), PROB_TOL
    )


class Cavity:
    name = "cavity"

    def inputs(self, seed: int, pass_index: int, tiny: bool = False) -> dict:
        rng = np.random.default_rng([seed, pass_index])
        (masked,) = draw_atoms(rng, 1, MASK_M_PLUS)
        (plain,) = draw_atoms(rng, 1)
        return {
            "library_r": [0.5, 0.7] if tiny else [0.99, 0.999],
            "compiled_r": [0.3, 0.5] if tiny else [0.9, 0.95],
            "atoms": [AtomSpec(present=False), masked, plain],
            "source": dsl.load_golden("fp"),
        }

    def warmup(self, inp: dict, led: Ledger) -> None:
        self.run_pass(dict(inp, library_r=inp["library_r"][:1], compiled_r=inp["compiled_r"][:1]), led)

    def run_pass(self, inp: dict, led: Ledger) -> None:
        for r in inp["library_r"]:
            for atom in inp["atoms"]:
                led.run(
                    lambda o: _cavity_ok(led, o, r, atom),
                    protocols.run_fabry_perot,
                    *_mirror(r),
                    atom,
                    eps=FP_EPS,
                )

        # The golden fp.nqi unrolls as many round trips as the library
        # runner took for the empty cavity at the same r.
        empty = AtomSpec(present=False)
        ast = led.attempt(dsl.parse, inp["source"])
        for r in inp["compiled_r"]:
            ref = led.run(
                lambda o: _cavity_ok(led, o, r, empty),
                protocols.run_fabry_perot,
                *_mirror(r),
                empty,
                eps=FP_EPS,
            )
            bindings = dict(zip(("R", "T", "RP", "TP"), _mirror(r)))
            circuit = led.attempt(
                lambda: dsl.compile_circuit(ast, dict(bindings, K=ref.details["round_trips"]))
            )
            led.run(
                lambda o: _compiled_ok(led, o, ref),
                dsl.run_compiled,
                circuit,
                empty,
                prob_tol=TRANSMISSION_TOL,
            )


WORKLOADS = {w.name: w for w in (ChainSweep(), ChainLong(), WitnessScan(), Cavity())}
