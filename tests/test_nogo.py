"""Witness existence: least-squares decision versus the brute-force grid."""

import functools
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nqisim import dsl, nogo
from nqisim.elements import (
    AtomInteraction,
    BeamSplitter,
    Mirror,
    PhaseShift,
    PolRotator,
    POL_FLIP,
    Repeat,
    propagate,
    run_sequence,
)
from nqisim.nogo import (
    Absence,
    FinalStatePair,
    Witness,
    build_final_states,
    find_witness,
    grid_witness_search,
    transparency_nogo_scan,
)
from nqisim.protocols import (
    ATOM_LEVELS,
    AtomSpec,
    build_mz,
    haar_random_atoms,
    mz_circuit,
    mz_closed_form,
    run_fabry_perot,
)
from nqisim.state import ABSENT_MASK, JointState, initial_state, make_layout
from nqisim.tolerances import RANK_TOL
from test_dsl import _random_source
from test_elements import random_state


def reference_complement_basis(psi):
    """Orthonormal basis of the complement of psi from the SVD of I - psi psi^dagger."""
    dim = psi.shape[0]
    q, _, _ = np.linalg.svd(np.eye(dim, dtype=complex) - np.outer(psi, psi.conj()))
    return q[:, : dim - 1]


def reference_witness(pair, atom_init, tol=RANK_TOL, absolute_cutoff=True):
    """Witness decision by least squares on q^dagger present, q a complement basis.

    Singular values up to the roundoff level of the present matrix count as
    zero; with ``absolute_cutoff=False``, only those small relative to the
    largest one (numpy's lstsq default).  Returns (found, residual,
    coefficient norm); |delta|^2 is 1 / norm^2.
    """
    present = pair.present.matrix()
    psi = pair.absent_probe_vector()
    q = reference_complement_basis(psi)
    restricted = q.conj().T @ present
    if absolute_cutoff:
        # The product's roundoff, plus the part of psi that q itself fails
        # to remove: a column of present along psi (a transparent level)
        # survives in restricted as |q^dagger psi| times its norm.
        leak = np.linalg.norm(q.conj().T @ psi)
        cutoff = (np.finfo(float).eps * max(present.shape) + leak) * np.linalg.norm(present)
        top = np.linalg.norm(restricted, 2)
        sol = np.linalg.pinv(restricted.T, rtol=cutoff / top if top > 0 else 0.0) @ atom_init
    else:
        sol = np.linalg.lstsq(restricted.T, atom_init, rcond=None)[0]
    residual = float(np.linalg.norm(restricted.T @ sol - atom_init))
    coeff_norm = float(np.linalg.norm(sol))
    return residual < tol and tol < coeff_norm < 1.0 / tol, residual, coeff_norm


def reference_grid_defect(pair, atom_init, n_angles=12, seed=0, amp_tol=1e-6):
    """Smallest grid defect, scanning the candidates one at a time."""
    present = pair.present.matrix()
    q = reference_complement_basis(pair.absent_probe_vector())
    dim = q.shape[1]
    eye = np.eye(dim, dtype=complex)
    candidates = list(eye)
    phases = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    weights = np.linspace(0.0, 1.0, n_angles + 1)[1:-1]
    for i, j in itertools.combinations(range(dim), 2):
        for w in weights:
            for ph in phases:
                candidates.append(np.sqrt(1 - w) * eye[i] + np.sqrt(w) * ph * eye[j])
    rng = np.random.default_rng(seed)
    for _ in range(200 * dim):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        candidates.append(z / np.linalg.norm(z))
    best = np.inf
    for c in candidates:
        atom_vec = (q @ c).conj() @ present
        norm = np.linalg.norm(atom_vec)
        if norm < amp_tol:
            continue
        defect = np.linalg.norm(atom_vec - np.vdot(atom_init, atom_vec) * atom_init) / norm
        best = min(best, float(defect))
    return best


def single_path_pair(elements, pol, atom):
    """Final states of elements on one path with a sink pair (4 photon modes)."""
    layout = make_layout(["a"], ["S+", "S-"], list(ATOM_LEVELS))
    pair = build_final_states(layout, elements, initial_state(layout, "a", pol, atom))
    return pair, atom.level_vector(layout)


# The three single-path instances of acceptance criterion 7.
CRITERION_7_CASES = {
    "one-pass-x": ([AtomInteraction("a")], "x", AtomSpec(0.6, 0.8)),
    "two-pass": (
        [AtomInteraction("a"), PolRotator("a", POL_FLIP), AtomInteraction("a")],
        "+",
        AtomSpec(0.6, 0.8),
    ),
    "pinned-minus": ([AtomInteraction("a")], "x", AtomSpec(0.0, 1.0)),
}


class TestFinalStatePair:
    def test_absent_probe_vector_is_a_product(self):
        layout, elements, _ = build_mz(3)
        atom = AtomSpec(0.6, 0.8)
        pair = build_final_states(layout, elements, initial_state(layout, "l", "+", atom))
        psi = pair.absent_probe_vector()
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        # All weight on the upper exit port without the atom.
        up = [layout.photon_index(("u", p)) for p in layout.polarizations]
        assert sum(abs(psi[i]) ** 2 for i in up) == pytest.approx(1.0)

    def test_absent_probe_vector_in_thin_memory(self):
        # A full SVD would allocate a 4000 x 4000 complex u (256 MB).
        layout = make_layout(["a"], [f"S{i}" for i in range(3998)], list(ATOM_LEVELS))
        probe = np.zeros(layout.n_photon_modes, dtype=complex)
        probe[[0, 3999]] = 0.6, 0.8j
        absent = JointState(layout, np.outer(probe, [0.6, 0.8, 0.0]).reshape(-1))
        pair = FinalStatePair(absent, absent)
        tracemalloc.start()
        try:
            psi = pair.absent_probe_vector()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert abs(np.vdot(psi, probe)) == pytest.approx(1.0, abs=1e-12)

    def test_layout_mismatch_rejected(self):
        layout, elements, _ = build_mz(2)
        other = make_layout(["a"], ["S+", "S-"], list(ATOM_LEVELS))
        bad = JointState(other, np.zeros(other.dim))
        with pytest.raises(ValueError, match="does not match"):
            build_final_states(layout, elements, bad)


class TestFindWitness:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(0, 2**31 - 1))
    def test_full_interaction_always_has_a_witness(self, n, seed):
        layout, elements, _ = build_mz(n)
        atom = haar_random_atoms(1, seed=seed)[0]
        pair = build_final_states(layout, elements, initial_state(layout, "l", "+", atom))
        atom_init = atom.level_vector(layout)
        result = find_witness(pair, atom_init)
        assert isinstance(result, Witness)
        # The witness detection probability is the protocol success rate.
        assert abs(result.delta) ** 2 == pytest.approx(mz_closed_form(n), abs=1e-9)

    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_chain_witness_detects_at_the_success_rate(self, n):
        # [DERIVED] |delta|^2 is the post-selected success probability,
        # [cos^2(pi/2N)]^N, to roundoff.
        layout, elements, _ = build_mz(n)
        for atom in haar_random_atoms(3, seed=n):
            pair = build_final_states(layout, elements, initial_state(layout, "l", "+", atom))
            result = find_witness(pair, atom.level_vector(layout))
            assert isinstance(result, Witness)
            assert abs(result.delta) ** 2 == pytest.approx(mz_closed_form(n), abs=1e-14)

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99, 0.999])
    def test_cavity_witness_detects_at_r_squared(self, r):
        # [DERIVED] the cavity reflects i r x (x) atom with the atom present
        # and transmits everything without it, so |delta|^2 = r^2.  The
        # final states are the runner's summed round trips.
        t = math.sqrt(1 - r * r)
        for atom in haar_random_atoms(3, seed=int(r * 1000)):
            absent = run_fabry_perot(r, t, r, t, AtomSpec(atom.alpha, atom.beta, present=False))
            present = run_fabry_perot(r, t, r, t, atom)
            pair = FinalStatePair(absent.final_state, present.final_state)
            result = find_witness(pair, atom.level_vector(pair.present.layout))
            assert isinstance(result, Witness)
            assert abs(result.delta) ** 2 == pytest.approx(r * r, abs=1e-14)
            assert abs(result.delta) ** 2 == pytest.approx(present.success_prob, abs=1e-14)

    @pytest.mark.parametrize("k", [100, 117, 118])
    def test_truncated_cavity_leftover_is_not_fitted(self, k):
        # [DERIVED] fp.nqi unrolled at K trips leaves r^(2K) of amplitude
        # inside with the atom absent (7e-10 to 2e-11 here) and none with
        # it present.  A singular-value cutoff at roundoff kept that
        # leftover and spent a coefficient of order 1 on it: |delta|^2
        # read 0.1293 instead of r^2.
        r = 0.9
        t = math.sqrt(1 - r * r)
        circuit = dsl.compile_circuit(
            dsl.parse(dsl.load_golden("fp")), {"T": t, "R": r, "TP": t, "RP": r, "K": k}
        )
        atom = AtomSpec(0.6, 0.8j)
        layout = circuit.layout
        initial = initial_state(layout, circuit.input_path, circuit.input_pol, atom)
        pair = build_final_states(layout, circuit.elements, initial)
        result = find_witness(pair, atom.level_vector(layout))
        assert isinstance(result, Witness)
        assert abs(result.delta) ** 2 == pytest.approx(r * r, abs=2e-10)

    def test_witness_properties(self):
        layout, elements, _ = build_mz(4)
        atom = AtomSpec(0.6, 0.8j)
        pair = build_final_states(layout, elements, initial_state(layout, "l", "+", atom))
        atom_init = atom.level_vector(layout)
        w = find_witness(pair, atom_init)
        assert isinstance(w, Witness)
        # Orthogonal to the atom-absent probe state.
        assert abs(np.vdot(pair.absent_probe_vector(), w.phi_p)) < 1e-10
        # Contraction against the present state is delta times the input.
        contraction = w.phi_p.conj() @ pair.present.matrix()
        assert np.allclose(contraction, w.delta * atom_init, atol=1e-10)

    def test_transparent_populated_level_blocks_witness(self):
        # If m+ never interacts, the alpha component rides the atom-absent
        # trajectory and no complement probe can recover it.
        layout, elements, _ = build_mz(6)
        atom = AtomSpec(0.6, 0.8)
        pair = build_final_states(
            layout, elements, initial_state(layout, "l", "+", atom), frozenset({"m+"})
        )
        result = find_witness(pair, atom.level_vector(layout))
        assert isinstance(result, Absence)
        assert result.residual >= 0.6 - 1e-9

    def test_unpopulated_transparent_level_is_harmless(self):
        layout, elements, _ = build_mz(6)
        atom = AtomSpec(0.0, 1.0)
        pair = build_final_states(
            layout, elements, initial_state(layout, "l", "+", atom), frozenset({"m+"})
        )
        result = find_witness(pair, atom.level_vector(layout))
        assert isinstance(result, Witness)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([frozenset(), frozenset({"m+"}), frozenset({"m-"})]),
        st.one_of(
            st.integers(0, 2**31 - 1).map(lambda seed: haar_random_atoms(1, seed=seed)[0]),
            st.sampled_from([AtomSpec(1.0, 0.0), AtomSpec(0.0, 1.0)]),
        ),
    )
    # Absences where the leak of the full-SVD basis q along psi once made
    # the reference fit roundoff (residuals 0.83 and 0.30 against 1.0).
    @example(1, frozenset({"m+"}), haar_random_atoms(1, seed=112768129)[0])
    @example(1, frozenset({"m+"}), haar_random_atoms(1, seed=880091737)[0])
    def test_decides_as_a_complement_basis_does(self, n, mask, atom):
        layout, elements, _ = build_mz(n)
        pair = build_final_states(
            layout, elements, initial_state(layout, "l", "+", atom), mask
        )
        atom_init = atom.level_vector(layout)
        found, residual, coeff_norm = reference_witness(pair, atom_init)
        result = find_witness(pair, atom_init)
        assert isinstance(result, Witness) == found
        # A relative cutoff alone fits roundoff in some absences, which
        # changes their residual but never the decision.
        assert reference_witness(pair, atom_init, absolute_cutoff=False)[0] == found
        if not found:
            assert result.residual == pytest.approx(residual, abs=1e-12)
            return
        assert abs(result.delta) ** 2 == pytest.approx(coeff_norm**-2, abs=1e-12)
        assert abs(np.vdot(pair.absent_probe_vector(), result.phi_p)) < 1e-12
        contraction = result.phi_p.conj() @ pair.present.matrix()
        assert np.allclose(contraction, result.delta * atom_init, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "mask,atom",
        [
            ({"m+"}, AtomSpec(1.0, 0.0)),
            ({"m-"}, AtomSpec(0.0, 1.0)),
            ({"m+", "m-"}, AtomSpec(0.6, 0.8)),
        ],
    )
    def test_fully_transparent_atom_leaves_all_of_it(self, n, mask, atom):
        # Every populated level rides the atom-absent trajectory: the
        # projected matrix is roundoff, and fitting it must not report a
        # small residual.
        layout, elements, _ = build_mz(n)
        pair = build_final_states(
            layout, elements, initial_state(layout, "l", "+", atom), frozenset(mask)
        )
        result = find_witness(pair, atom.level_vector(layout))
        assert isinstance(result, Absence)
        assert result.residual == pytest.approx(1.0, abs=1e-12)

    def test_find_witness_in_thin_memory(self):
        # A complement basis would allocate I - psi psi^dagger and the u of
        # its SVD, each a 4000 x 4000 complex matrix (256 MB).
        layout = make_layout(["a"], [f"S{i}" for i in range(3998)], list(ATOM_LEVELS))
        n_modes = layout.n_photon_modes
        atom = np.array([0.6, 0.8, 0.0])
        probe = np.zeros(n_modes, dtype=complex)
        probe[[0, 3999]] = 0.6, 0.8j
        hit = np.zeros(n_modes, dtype=complex)
        hit[1] = 1.0
        absent = JointState(layout, np.outer(probe, atom).reshape(-1))
        present = JointState(layout, np.outer(0.6 * probe + 0.8 * hit, atom).reshape(-1))
        pair = FinalStatePair(absent, present)
        tracemalloc.start()
        try:
            result = find_witness(pair, atom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert isinstance(result, Witness)
        assert abs(result.delta) ** 2 == pytest.approx(0.64, abs=1e-12)
        assert abs(np.vdot(hit, result.phi_p)) == pytest.approx(1.0, abs=1e-12)


class TestWitnessInputs:
    SEARCHES = pytest.mark.parametrize("search", [find_witness, grid_witness_search])

    @SEARCHES
    @pytest.mark.parametrize(
        "atom_init", [[0, 0, 0], [math.nan, 1, 0], [math.inf, 0, 0]]
    )
    def test_zero_or_non_finite_atom_rejected(self, search, atom_init):
        pair, _ = single_path_pair(*CRITERION_7_CASES["one-pass-x"])
        with pytest.raises(ValueError, match="atom_init must be finite and nonzero"):
            search(pair, np.array(atom_init, dtype=complex))

    @SEARCHES
    def test_wrong_length_atom_rejected(self, search):
        pair, _ = single_path_pair(*CRITERION_7_CASES["one-pass-x"])
        with pytest.raises(ValueError, match=r"atom_init has shape \(2,\), expected \(3,\)"):
            search(pair, [0.6, 0.8])

    def test_nan_present_state_rejected(self):
        pair, atom_init = single_path_pair(*CRITERION_7_CASES["one-pass-x"])
        nan_present = JointState(pair.present.layout, np.full(pair.present.layout.dim, np.nan))
        bad = FinalStatePair(pair.absent, nan_present)
        with pytest.raises(ValueError, match="atom-present final state is zero or not finite"):
            find_witness(bad, atom_init)


class TestGridOracle:
    @pytest.mark.parametrize("case", sorted(CRITERION_7_CASES))
    def test_matches_the_candidate_loop(self, case):
        pair, atom_init = single_path_pair(*CRITERION_7_CASES[case])
        best, vec = grid_witness_search(pair, atom_init)
        assert best == pytest.approx(reference_grid_defect(pair, atom_init), abs=1e-12)
        atom_vec = vec.conj() @ pair.present.matrix()
        overlap = np.vdot(atom_init, atom_vec)
        defect = np.linalg.norm(atom_vec - overlap * atom_init) / np.linalg.norm(atom_vec)
        assert defect == pytest.approx(best, abs=1e-12)

    def test_large_complement_rejected(self):
        # Two paths and a sink pair: six photon modes, complement dimension 5.
        layout = make_layout(["a", "b"], ["S+", "S-"], list(ATOM_LEVELS))
        atom = AtomSpec(0.6, 0.8)
        pair = build_final_states(
            layout, [AtomInteraction("a")], initial_state(layout, "a", "x", atom)
        )
        with pytest.raises(ValueError, match="dimension <= 3, got 5"):
            grid_witness_search(pair, atom.level_vector(layout))

    def test_agrees_on_direct_interaction(self):
        # Single path, complement dimension 3: one pass of an x photon
        # leaves an entangled remainder with no witness.
        layout = make_layout(["a"], ["S+", "S-"], list(ATOM_LEVELS))
        atom = AtomSpec(0.6, 0.8)
        elements = [AtomInteraction("a")]
        pair = build_final_states(
            layout, elements, initial_state(layout, "a", "x", atom)
        )
        atom_init = atom.level_vector(layout)
        lstsq_result = find_witness(pair, atom_init)
        grid_best, _ = grid_witness_search(pair, atom_init)
        assert pair.probe_dim - 1 <= 3
        assert isinstance(lstsq_result, Absence)
        assert grid_best > 1e-2

    def test_agrees_on_two_pass_absorption(self):
        layout = make_layout(["a"], ["S+", "S-"], list(ATOM_LEVELS))
        atom = AtomSpec(0.6, 0.8)
        interaction = AtomInteraction("a")
        elements = [interaction, PolRotator("a", POL_FLIP), interaction]
        pair = build_final_states(
            layout, elements, initial_state(layout, "a", "+", atom)
        )
        atom_init = atom.level_vector(layout)
        assert isinstance(find_witness(pair, atom_init), Absence)
        grid_best, _ = grid_witness_search(pair, atom_init)
        assert grid_best > 1e-2

    def test_grid_confirms_witness_when_one_exists(self):
        # With the atom pinned to m-, the minus component of an x photon
        # scatters and the plus component survives: the surviving branch
        # is itself a witness, and the grid scan finds it.
        layout = make_layout(["a"], ["S+", "S-"], list(ATOM_LEVELS))
        atom = AtomSpec(0.0, 1.0)
        pair = build_final_states(
            layout,
            [AtomInteraction("a")],
            initial_state(layout, "a", "x", atom),
        )
        atom_init = atom.level_vector(layout)
        w = find_witness(pair, atom_init)
        assert isinstance(w, Witness)
        grid_best, grid_vec = grid_witness_search(pair, atom_init)
        assert grid_best < 1e-6


class TestScan:
    def test_rows_cover_masks_and_samples(self):
        layout, elements, _ = build_mz(4)
        samples = haar_random_atoms(3, seed=2)
        rows = transparency_nogo_scan(
            layout,
            elements,
            functools.partial(initial_state, layout, "l", "+"),
            [frozenset(), frozenset({"m+"})],
            samples,
        )
        assert len(rows) == 6
        empty = [r for r in rows if not r.mask]
        masked = [r for r in rows if r.mask == frozenset({"m+"})]
        assert all(r.witness_found for r in empty)
        assert all(
            r.delta_sq == pytest.approx(mz_closed_form(4), abs=1e-9) for r in empty
        )
        for r in masked:
            assert not r.witness_found
            assert r.residual >= min(abs(r.alpha), abs(r.beta)) / 2

    def test_sample_mask_adds_to_scan_mask(self):
        # An atom whose m+ level never interacts has no witness, whatever
        # the scan mask says.
        layout, elements, _ = build_mz(6)
        atom = AtomSpec(0.6, 0.8, transparency_mask={"m+"})
        factory = functools.partial(initial_state, layout, "l", "+")
        (row,) = transparency_nogo_scan(layout, elements, factory, [frozenset()], [atom])
        assert not row.witness_found
        assert row.residual >= 0.6 - 1e-9

    def test_absent_sample_gets_absence(self):
        # An absent atom is transparent at m+ and m-, and a probe cannot
        # tell that from no atom: nothing of the atom is reachable.
        layout, elements, _ = build_mz(4)
        factory = functools.partial(initial_state, layout, "l", "+")
        absent = AtomSpec(0.6, 0.8, present=False)
        (row,) = transparency_nogo_scan(layout, elements, factory, [frozenset()], [absent])
        assert not row.witness_found and row.delta_sq is None
        assert row.residual == pytest.approx(1.0, abs=1e-12)
        pair = build_final_states(layout, elements, factory(absent), absent.transparency_mask)
        assert isinstance(find_witness(pair, absent.level_vector(layout)), Absence)

    def test_unknown_mask_levels_rejected(self):
        # A misspelt level would leave the atom unmasked and report a witness.
        layout, elements, _ = build_mz(4)
        factory = functools.partial(initial_state, layout, "l", "+")
        masks, samples = [frozenset({"M+"})], haar_random_atoms(1, 1)
        with pytest.raises(ValueError, match=re.escape("unknown atom levels in mask: ['M+']")):
            transparency_nogo_scan(layout, elements, factory, masks, samples)

    def test_unknown_mask_levels_rejected_without_samples(self):
        # Every mask is checked before the atom loop, so an unknown level is
        # reported even when no sample would reach it.
        layout, elements, _ = build_mz(2)
        factory = functools.partial(initial_state, layout, "l", "+")
        with pytest.raises(ValueError, match=re.escape("unknown atom levels in mask: ['bogus']")):
            transparency_nogo_scan(layout, elements, factory, [frozenset({"bogus"})], [])

    def test_empty_mask_list_rejected(self):
        layout, elements, _ = build_mz(2)
        factory = functools.partial(initial_state, layout, "l", "+")
        with pytest.raises(ValueError, match="at least one mask"):
            transparency_nogo_scan(layout, elements, factory, [], haar_random_atoms(1, 1))

    def test_empty_sample_list_rejected(self):
        layout, elements, _ = build_mz(2)
        factory = functools.partial(initial_state, layout, "l", "+")
        with pytest.raises(ValueError, match="at least one sample is required"):
            transparency_nogo_scan(layout, elements, factory, [frozenset()], [])

    def test_initial_state_of_another_layout_rejected(self):
        layout, elements, _ = build_mz(2)
        other = make_layout(["l", "u"], ["S+", "S-"], list(ATOM_LEVELS))
        factory = functools.partial(initial_state, other, "l", "+")
        with pytest.raises(ValueError, match="initial state does not match the layout"):
            transparency_nogo_scan(layout, elements, factory, [frozenset()], haar_random_atoms(1, 1))

    @pytest.mark.parametrize("level", ATOM_LEVELS)
    def test_sink_amplitude_rejected(self, level):
        # The scan decides on the transfer's compressed sink rows, which
        # hold only what the paths' inputs absorb: a photon that starts in
        # a sink is outside its contract, though build_final_states takes it.
        layout, elements, _ = build_mz(2)

        def factory(atom):
            state = initial_state(layout, "l", "+", atom)
            mat = state.matrix().copy()
            mat[layout.photon_index("S+"), layout.level_index(level)] = 1e-3
            return JointState(layout, mat.reshape(-1))

        with pytest.raises(ValueError, match="the photon must enter on a path"):
            transparency_nogo_scan(layout, elements, factory, [frozenset()], haar_random_atoms(1, 1))

    @pytest.mark.parametrize("mask", [frozenset(), frozenset({"m+"}), ABSENT_MASK])
    def test_layout_without_sinks(self, mask):
        # No sink rows: the transfer absorbs into an empty block, and a
        # mirror leaves the photon on the atom-absent trajectory.
        layout = make_layout(["a"], [], ATOM_LEVELS)
        factory = functools.partial(initial_state, layout, "a", "+")
        rows = transparency_nogo_scan(layout, (Mirror("a"),), factory, [mask], haar_random_atoms(2, 1))
        for row in rows:
            assert not row.witness_found and row.delta_sq is None
            assert row.residual == pytest.approx(1.0, abs=1e-12)


TRANSFER_MASKS = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), frozenset({"g"}), ABSENT_MASK)


def assert_direct_runs(layout, elements, state, mask):
    """``build_final_states`` agrees with two direct ``run_sequence`` calls
    to within 1e-15 times the norm of ``state``."""
    pair = build_final_states(layout, elements, state, mask)
    tol = 1e-15 * np.linalg.norm(state.amplitudes)
    for got, run_mask in ((pair.absent, ABSENT_MASK), (pair.present, mask)):
        want = run_sequence(layout, elements, state, mask_override=run_mask)
        assert np.linalg.norm(got.amplitudes - want.amplitudes) <= tol, run_mask


def counting_runs(monkeypatch) -> list:
    """The mask of each of ``nogo``'s propagations, starting from an empty
    transfer cache."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["mask"])
        return propagate(*args, **kwargs)

    monkeypatch.setattr(nogo, "propagate", counted)
    nogo._transfer.cache_clear()
    return calls


class TestTransfer:
    """Final states are contractions of one transfer per network and mask."""

    def test_matches_direct_runs_on_fuzzed_circuits(self):
        bindings = {"N": 7, "K": 30, "T": 0.6, "R": 0.8, "TP": 0.28, "RP": 0.96}
        circuits = [
            dsl.compile_circuit(dsl.parse(dsl.load_golden(name)), bindings)
            for name in dsl.golden_names()
        ]
        rng = random.Random(20260823)  # criterion 9's fuzzed sources
        for _ in range(100):
            try:
                circuits.append(dsl.compile_circuit(dsl.parse(_random_source(rng))))
            except dsl.CompileError:
                continue
        assert len(circuits) > 50
        for index, circuit in enumerate(circuits):
            # Every row and level populated, g and the sinks included.
            state = random_state(circuit.layout, index)
            for mask in TRANSFER_MASKS:
                assert_direct_runs(circuit.layout, circuit.elements, state, mask)

    @pytest.mark.parametrize(
        "pairs",
        [
            [("S+", "S-"), ("S+", "S-"), ("S+", "S-")],
            [("S+", "S-"), ("S-", "S+"), ("T+", "S-")],
            [("S+", "T-"), ("T-", "S+"), ("S+", "S+")],
        ],
        ids=["one-pair", "plus-is-minus", "crossed"],
    )
    @pytest.mark.parametrize("as_tuple", [False, True], ids=["list", "tuple"])
    def test_shared_sinks_stay_apart(self, pairs, as_tuple):
        # An S+ row that is also an S- row takes the m+ and the m- inputs;
        # each must reach it once.
        layout = make_layout(["a", "b"], ["S+", "S-", "T+", "T-"], list(ATOM_LEVELS))
        (p1, m1), (p2, m2), (p3, m3) = pairs
        elements = [
            BeamSplitter(0.6, 0.8, "a", "b"),
            AtomInteraction("a", sink_plus=p1, sink_minus=m1),
            PolRotator("a", POL_FLIP),
            PhaseShift("b", 0.7),
            AtomInteraction("b", sink_plus=p2, sink_minus=m2),
            BeamSplitter(0.8, 0.6, "a", "b"),
            AtomInteraction("a", frozenset({"m-"}), sink_plus=p3, sink_minus=m3),
        ]
        if as_tuple:
            elements = tuple(elements)
        for seed, mask in enumerate(TRANSFER_MASKS):
            assert_direct_runs(layout, elements, random_state(layout, seed), mask)

    def test_scan_propagates_once_per_network_and_mask(self, monkeypatch):
        calls = counting_runs(monkeypatch)
        layout, elements, _ = build_mz(8)
        factory = functools.partial(initial_state, layout, "l", "+")
        masks, atoms = [frozenset(), frozenset({"m+"})], haar_random_atoms(10, seed=5)
        first = transparency_nogo_scan(layout, elements, factory, masks, atoms)
        # One propagation per scan mask: the absent state is read from the
        # g map of each, so no absent transfer is built or kept.
        assert calls == masks
        assert nogo._transfer.cache_info().currsize == len(masks)
        calls.clear()
        assert transparency_nogo_scan(layout, elements, factory, masks, atoms) == first
        assert calls == []
        # Transfers are kept by value: an equal list is the same network.
        network = list(elements)
        assert transparency_nogo_scan(layout, network, factory, masks, atoms) == first
        assert calls == []
        # A list changed between calls is another network: it propagates again.
        network.insert(0, BeamSplitter(0.6, 0.8, "u", "l"))
        changed = transparency_nogo_scan(layout, network, factory, masks, atoms)
        assert calls == masks
        assert changed != first

    def test_cache_is_bounded_and_never_stale(self, monkeypatch):
        # Each tuple is dropped by the loop, so a freed address is soon
        # reused; the transfers are keyed by value, so no phase is served
        # for another.
        calls = counting_runs(monkeypatch)
        layout = make_layout(["a"], ["S+", "S-"], list(ATOM_LEVELS))
        state = random_state(layout, 7)
        for k in range(24):
            elements = (PhaseShift("a", 0.1 * k), AtomInteraction("a"))
            calls.clear()
            assert_direct_runs(layout, elements, state, frozenset())
            assert calls == [frozenset()]
            assert nogo._transfer.cache_info().currsize <= 8

    def test_kept_transfer_serves_its_own_network_alone(self, monkeypatch):
        # Networks that differ in one field, or only in their layout, are
        # each propagated once and then served from their own transfer.
        calls = counting_runs(monkeypatch)
        ab = make_layout(["a", "b"], ["S+", "S-", "T+", "T-"], list(ATOM_LEVELS))
        ba = make_layout(["b", "a"], ["S+", "S-", "T+", "T-"], list(ATOM_LEVELS))
        split = BeamSplitter(0.6, 0.8, "a", "b")
        hit = AtomInteraction("a")
        mutable = [split, PhaseShift("a", 1.0), hit]
        networks = [
            (ab, (split, hit)),
            (ba, (split, hit)),
            (ab, (BeamSplitter(0.8, 0.6, "a", "b"), hit)),
            (ab, (split, AtomInteraction("a", sink_plus="S-", sink_minus="S+"))),
            (ab, (split, AtomInteraction("a", frozenset({"m-"})))),
            (ab, (split, PolRotator("a", POL_FLIP), hit)),
            (ab, (Repeat((split, PhaseShift("b", 0.3)), 2), hit)),
            (ab, mutable),
        ]
        for sweep in range(2):
            for index, (layout, network) in enumerate(networks):
                calls.clear()
                assert_direct_runs(layout, network, random_state(layout, index), frozenset())
                assert calls == ([] if sweep else [frozenset()]), (sweep, index)
        mutable.append(Mirror("b"))
        calls.clear()
        assert_direct_runs(ab, mutable, random_state(ab, 9), frozenset())
        assert calls == [frozenset()]


def golden_mz_and_fuzzed_circuits(stages, draws):
    """Every golden, ``mz`` at each of ``stages`` and the circuits that
    compile among criterion 9's first ``draws`` fuzzed sources."""
    bindings = {"N": 7, "K": 30, "T": 0.6, "R": 0.8, "TP": 0.28, "RP": 0.96}
    circuits = [
        dsl.compile_circuit(dsl.parse(dsl.load_golden(name)), bindings)
        for name in dsl.golden_names()
    ]
    circuits += [mz_circuit(n) for n in stages]
    rng = random.Random(20260823)
    for _ in range(draws):
        try:
            circuits.append(dsl.compile_circuit(dsl.parse(_random_source(rng))))
        except dsl.CompileError:
            continue
    return circuits


def scan_and_dense_rows(circuit, masks, atoms):
    """The scan's rows and, per row, ``find_witness`` of the dense pair."""
    layout, elements = circuit.layout, circuit.elements
    factory = functools.partial(initial_state, layout, circuit.input_path, circuit.input_pol)
    rows = transparency_nogo_scan(layout, elements, factory, masks, atoms)
    dense = [
        find_witness(build_final_states(layout, elements, factory(atom), mask), atom.level_vector(layout))
        for mask in masks
        for atom in atoms
    ]
    return rows, dense


class TestCompactScan:
    """The scan decides each atom on the transfer's 2P propagating rows and
    one sink row holding the norm of what the sinks absorb, as
    ``find_witness`` does on the dense pair."""

    MASKS = [frozenset(), frozenset({"m+"}), frozenset({"m-"}), frozenset({"g"}), ABSENT_MASK]

    def test_rows_equal_the_dense_decision(self):
        atoms = haar_random_atoms(4, seed=11)
        cases = witnesses = 0
        for circuit in golden_mz_and_fuzzed_circuits((1, 2, 64, 150, 2000), 300):
            rows, dense = scan_and_dense_rows(circuit, self.MASKS, atoms)
            for row, want in zip(rows, dense, strict=True):
                found = isinstance(want, Witness)
                assert row.witness_found == found
                assert abs(row.residual - want.residual) <= 1e-15
                if found:
                    assert abs(row.delta_sq - abs(want.delta) ** 2) <= 1e-14
                cases += 1
                witnesses += found
        assert cases > 2500 and 0 < witnesses < cases

    def test_program_scans_as_its_unrolled_elements(self):
        # A compiled program keeps each repeat as one node, which doubles
        # where the unrolled elements fold stage by stage: the same
        # decisions, to rounding.
        atoms = haar_random_atoms(3, seed=13)
        cases = witnesses = 0
        for circuit in golden_mz_and_fuzzed_circuits((1, 2, 3, 64, 150, 2000), 100):
            layout = circuit.layout
            factory = functools.partial(initial_state, layout, circuit.input_path, circuit.input_pol)
            got = transparency_nogo_scan(layout, circuit.program, factory, self.MASKS, atoms)
            want = transparency_nogo_scan(layout, circuit.elements, factory, self.MASKS, atoms)
            for row, ref in zip(got, want, strict=True):
                assert row.witness_found == ref.witness_found
                assert abs(row.residual - ref.residual) <= 1e-15
                if ref.witness_found:
                    assert abs(row.delta_sq - ref.delta_sq) <= 1e-14
                cases += 1
                witnesses += ref.witness_found
        assert cases > 800 and 0 < witnesses < cases

    def test_compressed_sink_rows_fit_a_g_component(self):
        # The sink rows hold amplitude at g alone, and the scan's atom
        # vectors have none there, so only their norm reaches its rows.  An
        # atom vector with a g component is fitted by the sink rows
        # themselves: the compressed rows must match the dense ones.
        deltas = []
        for circuit in golden_mz_and_fuzzed_circuits((1, 2, 3, 8, 64, 150), 100):
            layout, elements = circuit.layout, circuit.elements
            g = layout.level_index("g")
            for atom in haar_random_atoms(3, seed=12):
                initial = initial_state(layout, circuit.input_path, circuit.input_pol, atom)
                atom_init = atom.level_vector(layout)
                atom_init[g] = 0.5j
                atom_init /= np.linalg.norm(atom_init)
                for mask in self.MASKS:
                    transfer = nogo._transfer(layout, elements, mask)
                    got = nogo._compact_witness(layout, transfer, initial, atom_init)
                    want = find_witness(build_final_states(layout, elements, initial, mask), atom_init)
                    assert type(got) is type(want)
                    # A witness's residual is roundoff times its
                    # coefficient norm 1/|delta|.
                    scale = 1.0 / abs(want.delta) if isinstance(want, Witness) else 1.0
                    assert abs(got.residual - want.residual) <= 1e-15 * scale
                    if isinstance(want, Witness):
                        assert abs(abs(got.delta) ** 2 - abs(want.delta) ** 2) <= 1e-14
                        deltas.append(abs(want.delta))
        assert len(deltas) > 30 and min(deltas) < 0.5

    def test_scan_builds_no_dense_state(self, monkeypatch):
        layout, elements, _ = build_mz(64)
        factory = functools.partial(initial_state, layout, "l", "+")
        masks, atoms = [frozenset(), frozenset({"m+"})], haar_random_atoms(3, seed=4)
        want = transparency_nogo_scan(layout, elements, factory, masks, atoms)

        def dense(*args, **kwargs):
            raise AssertionError("the scan built a dense final state")

        monkeypatch.setattr(nogo, "JointState", dense)
        monkeypatch.setattr(nogo, "FinalStatePair", dense)
        assert transparency_nogo_scan(layout, elements, factory, masks, atoms) == want

    def test_transfer_is_looked_up_once_per_mask(self, monkeypatch):
        lookups = []
        transfer = nogo._transfer

        def counted(layout, elements, mask):
            lookups.append(mask)
            return transfer(layout, elements, mask)

        monkeypatch.setattr(nogo, "_transfer", counted)
        layout, elements, _ = build_mz(8)
        factory = functools.partial(initial_state, layout, "l", "+")
        atoms = haar_random_atoms(5, seed=6) + [AtomSpec(0.6, 0.8, transparency_mask={"m+"})]
        transparency_nogo_scan(layout, elements, factory, [frozenset(), frozenset({"m-"})], atoms)
        # The last sample's own mask, {m+}, adds to each scan mask.
        assert lookups == [frozenset(), frozenset({"m+"}), frozenset({"m-"}), frozenset({"m+", "m-"})]

    @pytest.mark.parametrize(
        "mask,width", [(frozenset(), 2), (frozenset({"m+"}), 1), (frozenset({"m-", "g"}), 1), (ABSENT_MASK, 0)]
    )
    def test_transfer_absorbs_from_interacting_levels_only(self, mask, width):
        layout, elements, _ = build_mz(8)
        n = 2 * len(layout.paths)
        prop, absorbed, columns = nogo._transfer(layout, elements, mask)
        assert absorbed.shape == (len(layout.sinks), width * n)
        assert len(columns) == width
        assert not prop.flags.writeable and not absorbed.flags.writeable
