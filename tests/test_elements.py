"""Element conventions and norm preservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nqisim.elements import (
    AtomInteraction,
    BeamSplitter,
    Mirror,
    PhaseShift,
    PolRotator,
    POL_FLIP,
    Relabel,
    run_sequence,
    sink_pair_labels,
)
from nqisim.state import ABSENT_MASK, AtomSpec, JointState, initial_state, make_layout

LEVELS = ["m+", "m-", "g"]


def layout2():
    return make_layout(["a", "b"], ["S+", "S-"], LEVELS)


def state_of(layout, *terms):
    """The state with amplitude ``coeff`` on each ``(coeff, mode, level)``."""
    amps = np.zeros(layout.dim, dtype=complex)
    for coeff, mode, level in terms:
        amps[layout.index(mode, level)] += coeff
    return JointState(layout, amps)


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return JointState(layout, z / np.linalg.norm(z))


class TestBeamSplitter:
    def test_validation(self):
        for t, r in ((0.9, 0.9), (np.nan, 0.8), (0.6, np.nan), (np.nan, np.nan)):
            with pytest.raises(ValueError, match="not unitary"):
                BeamSplitter(t, r, "a", "b")
        with pytest.raises(ValueError, match="non-negative"):
            BeamSplitter(-0.6, 0.8, "a", "b")
        with pytest.raises(ValueError, match="distinct"):
            BeamSplitter(1.0, 0.0, "a", "a")

    def test_convention(self):
        # [TRIVIAL] transmission crosses paths with t, reflection stays with i r
        layout = layout2()
        state = state_of(layout, (1.0, ("a", "+"), "g"))
        out = run_sequence(layout, [BeamSplitter(0.6, 0.8, "a", "b")], state)
        assert out.amplitude(("a", "+"), "g") == pytest.approx(0.8j)
        assert out.amplitude(("b", "+"), "g") == pytest.approx(0.6)

    def test_full_reflection_is_not_identity(self):
        # r = 1 phases both paths by i; nothing crosses
        layout = layout2()
        state = state_of(layout, (1.0, ("a", "-"), "m+"))
        out = run_sequence(layout, [BeamSplitter(0.0, 1.0, "a", "b")], state)
        assert out.amplitude(("a", "-"), "m+") == pytest.approx(1j)
        assert out.amplitude(("b", "-"), "m+") == 0.0

    def test_two_balanced_splitters_route_to_one_port(self):
        # [DERIVED] B^2 = i X on the path space: (i r I + t X)^2 with
        # t = r = 1/sqrt(2) gives i X, so a double pass swaps the paths.
        layout = layout2()
        s = 1 / np.sqrt(2)
        bs = BeamSplitter(s, s, "a", "b")
        state = state_of(layout, (1.0, ("a", "+"), "g"))
        out = run_sequence(layout, [bs, bs], state)
        assert out.amplitude(("b", "+"), "g") == pytest.approx(1j)
        assert abs(out.amplitude(("a", "+"), "g")) < 1e-15

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=np.pi / 2),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_norm_preserved(self, theta, seed):
        layout = layout2()
        state = random_state(layout, seed)
        bs = BeamSplitter(np.sin(theta), np.cos(theta), "a", "b")
        assert run_sequence(layout, [bs], state).norm2 == pytest.approx(state.norm2, abs=1e-12)


class TestMirrorAndPhase:
    def test_mirror_phase(self):
        layout = layout2()
        state = state_of(layout, (1.0, ("a", "+"), "m+"))
        out = run_sequence(layout, [Mirror("a")], state)
        assert out.amplitude(("a", "+"), "m+") == 1j

    def test_two_mirrors_give_minus_one(self):
        layout = layout2()
        state = state_of(layout, (1.0, ("a", "+"), "m+"))
        out = run_sequence(layout, [Mirror("a"), Mirror("a")], state)
        assert out.amplitude(("a", "+"), "m+") == pytest.approx(-1.0)

    def test_phase_shift(self):
        layout = layout2()
        state = state_of(layout, (1.0, ("b", "-"), "g"))
        out = run_sequence(layout, [PhaseShift("b", np.pi)], state)
        assert out.amplitude(("b", "-"), "g") == pytest.approx(-1.0)

    def test_non_finite_phase_rejected(self):
        for phi in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="phase is not finite"):
                PhaseShift("a", phi)

    def test_sinks_untouched(self):
        layout = layout2()
        state = state_of(layout, (1.0, "S+", "g"))
        out = run_sequence(layout, [Mirror("a"), PhaseShift("a", 0.7)], state)
        assert out.amplitude("S+", "g") == 1.0


class TestPolRotator:
    def test_flip(self):
        layout = layout2()
        state = state_of(layout, (1.0, ("a", "+"), "m-"))
        out = run_sequence(layout, [PolRotator("a", POL_FLIP)], state)
        assert out.amplitude(("a", "-"), "m-") == 1.0
        assert out.amplitude(("a", "+"), "m-") == 0.0

    def test_non_unitary_rejected(self):
        for u in ([[1.0, 1.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="not unitary"):
                PolRotator("a", np.array(u))
        with pytest.raises(ValueError, match="2x2"):
            PolRotator("a", np.eye(3))

    def test_matrix_is_a_read_only_copy(self):
        # Compiled circuits share a rotator across repeat copies, and every
        # ``rot flip`` starts from the module constant.
        flip = PolRotator("a", POL_FLIP)
        assert flip.u is not POL_FLIP
        with pytest.raises(ValueError, match="read-only"):
            flip.u[0, 0] = 5.0
        assert np.array_equal(POL_FLIP, [[0, 1], [1, 0]])
        assert flip == PolRotator("a", POL_FLIP)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-np.pi, max_value=np.pi), st.integers(0, 2**32 - 1))
    def test_norm_preserved(self, angle, seed):
        layout = layout2()
        u = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        state = random_state(layout, seed)
        out = run_sequence(layout, [PolRotator("a", u)], state)
        assert out.norm2 == pytest.approx(state.norm2, abs=1e-12)


class TestAtomInteraction:
    def test_absorption_moves_to_sinks(self):
        layout = layout2()
        state = state_of(layout, (0.6, ("a", "+"), "m+"), (0.8, ("a", "-"), "m-"))
        out = run_sequence(layout, [AtomInteraction("a")], state)
        assert out.amplitude("S+", "g") == pytest.approx(0.6)
        assert out.amplitude("S-", "g") == pytest.approx(0.8)
        assert out.amplitude(("a", "+"), "m+") == 0.0
        assert out.amplitude(("a", "-"), "m-") == 0.0

    def test_mismatched_polarization_passes(self):
        layout = layout2()
        state = state_of(layout, (0.6, ("a", "+"), "m-"), (0.8, ("a", "-"), "m+"))
        out = run_sequence(layout, [AtomInteraction("a")], state)
        assert out.amplitudes.tolist() == state.amplitudes.tolist()

    def test_transparency_mask(self):
        layout = layout2()
        state = state_of(layout, (1.0, ("a", "+"), "m+"))
        out = run_sequence(layout, [AtomInteraction("a", transparency_mask={"m+"})], state)
        assert out.amplitude(("a", "+"), "m+") == 1.0
        assert out.amplitude("S+", "g") == 0.0

    def test_isometry_preserves_norm(self):
        # Isometric on states with empty sinks (absorption fills them).
        layout = layout2()
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
        mat = amps.reshape(layout.n_photon_modes, layout.n_levels)
        mat[layout.photon_index("S+")] = 0.0
        mat[layout.photon_index("S-")] = 0.0
        state = JointState(layout, amps / np.linalg.norm(amps))
        out = run_sequence(layout, [AtomInteraction("a")], state)
        assert out.norm2 == pytest.approx(state.norm2, abs=1e-12)

    def test_other_path_untouched(self):
        layout = layout2()
        state = state_of(layout, (1.0, ("b", "+"), "m+"))
        out = run_sequence(layout, [AtomInteraction("a")], state)
        assert out.amplitude(("b", "+"), "m+") == 1.0

    def test_missing_sink_raises(self):
        layout = make_layout(["a"], [], LEVELS)
        state = state_of(layout, (1.0, ("a", "+"), "m+"))
        with pytest.raises(ValueError, match="sink"):
            run_sequence(layout, [AtomInteraction("a")], state)

    def test_both_levels_masked_is_the_optical_evolution(self):
        # An absent atom is the atom masked at m+ and m-: its interactions
        # are skipped, so they need no sinks in the layout.
        layout = make_layout(["a", "b"], [], LEVELS)
        state = random_state(layout, 8)
        optics = [BeamSplitter(0.6, 0.8, "a", "b"), Mirror("b"), PolRotator("a", POL_FLIP)]
        with_atom = optics[:1] + [AtomInteraction("a")] + optics[1:] + [AtomInteraction("b")]
        out = run_sequence(layout, with_atom, state, mask_override=ABSENT_MASK)
        assert np.array_equal(out.amplitudes, run_sequence(layout, optics, state).amplitudes)


class TestUnknownPath:
    def test_every_block_reader_names_the_path(self):
        layout = layout2()
        with pytest.raises(ValueError, match="path 'q' is not in the layout"):
            initial_state(layout, "q", "+", AtomSpec())
        state = initial_state(layout, "a", "+", AtomSpec())
        for element in (
            BeamSplitter(0.6, 0.8, "a", "q"),
            Mirror("q"),
            PhaseShift("q", 0.5),
            PolRotator("q", POL_FLIP),
            AtomInteraction("q"),
            Relabel("q", "a"),
            Relabel("a", "q"),
        ):
            with pytest.raises(ValueError, match="path 'q' is not in the layout"):
                run_sequence(layout, [element], state)


class TestRelabel:
    def test_moves_and_merges(self):
        layout = layout2()
        state = state_of(layout, (0.6, ("a", "+"), "g"), (0.8, ("b", "+"), "g"))
        out = run_sequence(layout, [Relabel("a", "b")], state)
        assert out.amplitude(("b", "+"), "g") == pytest.approx(1.4)
        assert out.amplitude(("a", "+"), "g") == 0.0

    def test_onto_itself_rejected(self):
        # Adding a block into itself and clearing the source would delete it.
        with pytest.raises(ValueError, match="distinct"):
            Relabel("a", "a")


class TestSinkPairLabels:
    def test_sequence(self):
        assert sink_pair_labels(0) == ("S+", "S-")
        assert sink_pair_labels(1) == ("S+#2", "S-#2")
        assert sink_pair_labels(2) == ("S+#3", "S-#3")
        assert sink_pair_labels(0, "P", "M") == ("P", "M")
        assert sink_pair_labels(3, "P", "M") == ("P#4", "M#4")
