"""Witness existence: least-squares decision versus the brute-force grid."""

import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nqisim import dsl
from nqisim.elements import AtomInteraction, PolRotator, POL_FLIP
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
    mz_closed_form,
    run_fabry_perot,
)
from nqisim.state import JointState, initial_state, make_layout
from nqisim.tolerances import RANK_TOL


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

    def test_empty_mask_list_rejected(self):
        layout, elements, _ = build_mz(2)
        factory = functools.partial(initial_state, layout, "l", "+")
        with pytest.raises(ValueError, match="at least one mask"):
            transparency_nogo_scan(layout, elements, factory, [], haar_random_atoms(1, 1))
