"""Witness existence: least-squares decision versus the brute-force grid."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from nqisim.state import JointState, initial_state, make_layout


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
        pair = FinalStatePair(absent, absent, layout.n_photon_modes, layout.n_levels)
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


class TestGridOracle:
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

    def test_empty_mask_list_rejected(self):
        layout, elements, _ = build_mz(2)
        factory = functools.partial(initial_state, layout, "l", "+")
        with pytest.raises(ValueError, match="at least one mask"):
            transparency_nogo_scan(layout, elements, factory, [], haar_random_atoms(1, 1))
