"""Element conventions and norm preservation."""

import cmath
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nqisim import dsl, elements
from nqisim.elements import (
    AtomInteraction,
    BeamSplitter,
    Mirror,
    PhaseShift,
    PolRotator,
    POL_FLIP,
    Relabel,
    propagate,
    run_sequence,
    sink_pair_labels,
)
from nqisim.state import ABSENT_MASK, AtomSpec, JointState, initial_state, make_layout
from test_dsl import _random_source

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

    def test_quarter_turns_are_exact(self):
        # A multiple of the float pi/2 is that many exact quarter turns;
        # cmath.exp(1j * math.pi) is -1 + 1.22e-16i.
        layout = layout2()
        state = state_of(layout, (1.0, ("b", "-"), "g"))
        turns = [
            (0.0, 1), (math.pi / 2, 1j), (math.pi, -1), (3 * math.pi / 2, -1j),
            (-math.pi / 2, -1j), (-math.pi, -1), (10 * math.pi, 1), (-7 * math.pi / 2, 1j),
        ]
        for phi, factor in turns:
            out = run_sequence(layout, [PhaseShift("b", phi)], state)
            assert out.amplitude(("b", "-"), "g") == factor, phi
        for phi in (math.pi / 3, math.nextafter(math.pi, 4.0), 2.5):
            out = run_sequence(layout, [PhaseShift("b", phi)], state)
            assert out.amplitude(("b", "-"), "g") == cmath.exp(1j * phi), phi

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

    # Entry (i, j) of u^dag u - I set off by ``scale`` times NORM_TOL: the
    # two diagonal entries through a column's norm, the off-diagonal one
    # through a column's overlap with the other.
    OFF_UNITARY = {
        (0, 0): lambda d: [[math.sqrt(1 + d), 0], [0, 1]],
        (1, 1): lambda d: [[1, 0], [0, math.sqrt(1 + d)]],
        (0, 1): lambda d: [[1, d], [0, 1]],
    }

    @pytest.mark.parametrize("entry", sorted(OFF_UNITARY))
    def test_unitarity_is_checked_at_the_tolerance(self, entry):
        u = self.OFF_UNITARY[entry]
        PolRotator("a", u(0.99 * elements.NORM_TOL))
        with pytest.raises(ValueError, match="not unitary"):
            PolRotator("a", u(1.01 * elements.NORM_TOL))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_entries_are_refused(self, bad, cell):
        # A NaN in any entry, not only the first the check reads.
        for base in (np.eye(2), POL_FLIP):
            u = np.array(base, dtype=complex)
            u[cell] = bad
            with pytest.raises(ValueError, match="not unitary"):
                PolRotator("a", u)

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

    def test_shared_sink_pair_adds(self):
        # Hand-built sequences may reuse one sink pair: the second
        # absorption adds to the first instead of replacing it.
        layout = layout2()
        state = state_of(layout, (0.6, ("a", "+"), "m+"), (0.8, ("a", "-"), "m+"))
        hit = AtomInteraction("a")
        out = run_sequence(layout, [hit, PolRotator("a", POL_FLIP), hit], state)
        assert out.amplitude("S+", "g") == pytest.approx(1.4)

    def test_missing_sink_raises(self):
        layout = make_layout(["a"], [], LEVELS)
        state = state_of(layout, (1.0, ("a", "+"), "m+"))
        with pytest.raises(ValueError, match="sink"):
            run_sequence(layout, [AtomInteraction("a")], state)

    def test_state_of_another_layout_rejected(self):
        # Read against layout b, the amplitudes of path a would be
        # relabelled as path b.
        state = state_of(make_layout(["a"], [], LEVELS), (1.0, ("a", "+"), "m+"))
        with pytest.raises(ValueError, match="initial state does not match the layout"):
            run_sequence(make_layout(["b"], [], LEVELS), [Mirror("b")], state)

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


MASKS = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)


def one_at_a_time(layout, sequence, state, mask):
    """The element-by-element reference: one ``run_sequence`` per element."""
    for el in sequence:
        state = run_sequence(layout, [el], state, mask_override=mask)
    return state


class TestRunMaps:
    """``run_sequence`` applies each optical run between two interactions as
    one map; folding single elements must give the same state."""

    def test_agrees_with_one_element_at_a_time(self):
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
            # Every row populated, sinks included, so the sink adds show too.
            state = random_state(circuit.layout, index)
            for mask in MASKS:
                got = run_sequence(circuit.layout, circuit.elements, state, mask_override=mask)
                want = one_at_a_time(circuit.layout, circuit.elements, state, mask)
                dev = np.max(np.abs(got.amplitudes - want.amplitudes))
                assert dev <= 1e-14, (index, mask, dev)

    def test_fresh_elements_from_a_generator(self):
        # Each splitter is built, used and dropped by the generator, so a
        # map kept by the id of a freed element would be applied to the next
        # splitter allocated at the same address.
        layout = make_layout(["a", "b"], ["S+", "S-"], LEVELS)

        def fresh(seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                theta = rng.uniform(0.0, math.pi / 2)
                yield BeamSplitter(math.sin(theta), math.cos(theta), "a", "b")
                yield PhaseShift("b", rng.uniform(-math.pi, math.pi))
                yield AtomInteraction("a")

        state = random_state(layout, 11)
        for mask in MASKS:
            got = run_sequence(layout, fresh(3), state, mask_override=mask)
            want = one_at_a_time(layout, list(fresh(3)), state, mask)
            assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-14, mask

    def test_repeat_copies_share_their_maps(self, monkeypatch):
        # mz.nqi's program is one repeat, whose body is propagated once and
        # splits into two runs, [bs] and the six optics between a stage's
        # interactions: 7 kernel calls at any N.
        calls = []
        for kind, kernel in list(elements._KERNELS.items()):

            def counted(*args, kernel=kernel):
                calls.append(args[2])
                kernel(*args)

            monkeypatch.setitem(elements._KERNELS, kind, counted)
        circuit = dsl.compile_circuit(dsl.parse(dsl.load_golden("mz")), {"N": 64})
        state = initial_state(circuit.layout, circuit.input_path, circuit.input_pol, AtomSpec())
        for mask in MASKS:
            calls.clear()
            run_sequence(circuit.layout, circuit.program, state, mask_override=mask)
            assert len(calls) <= 7, mask


def shared_sink_sequences():
    """Hand-built sequences whose interactions share sink rows: one pair
    for all, an S+ row that is another's S-, and crossed pairs."""
    layout = make_layout(["a", "b"], ["S+", "S-", "T+", "T-"], LEVELS)
    for (p1, m1), (p2, m2), (p3, m3) in (
        [("S+", "S-"), ("S+", "S-"), ("S+", "S-")],
        [("S+", "S-"), ("S-", "S+"), ("T+", "S-")],
        [("S+", "T-"), ("T-", "S+"), ("S+", "S+")],
    ):
        yield layout, (
            BeamSplitter(0.6, 0.8, "a", "b"),
            AtomInteraction("a", sink_plus=p1, sink_minus=m1),
            PolRotator("a", POL_FLIP),
            PhaseShift("b", 0.7),
            AtomInteraction("b", sink_plus=p2, sink_minus=m2),
            BeamSplitter(0.8, 0.6, "a", "b"),
            AtomInteraction("a", frozenset({"m-"}), sink_plus=p3, sink_minus=m3),
        )


class TestPropagate:
    """``propagate`` of a block carries each input column on its own."""

    def test_block_is_its_columns(self):
        bindings = {"N": 7, "K": 30, "T": 0.6, "R": 0.8, "TP": 0.28, "RP": 0.96}
        networks = [
            (circuit.layout, circuit.elements)
            for circuit in (
                dsl.compile_circuit(dsl.parse(dsl.load_golden(name)), bindings)
                for name in dsl.golden_names()
            )
        ]
        rng = random.Random(20260823)  # criterion 9's fuzzed sources
        for _ in range(100):
            try:
                circuit = dsl.compile_circuit(dsl.parse(_random_source(rng)))
            except dsl.CompileError:
                continue
            networks.append((circuit.layout, circuit.elements))
        networks += list(shared_sink_sequences())
        assert len(networks) > 50
        for index, (layout, sequence) in enumerate(networks):
            shape = (2 * len(layout.paths), layout.n_levels, 3)
            draw = np.random.default_rng(index).standard_normal((2,) + shape)
            block = draw[0] + 1j * draw[1]
            for mask in MASKS:
                prop, absorbed = propagate(layout, sequence, block, mask=mask)
                assert prop.shape == shape
                assert absorbed.shape == (len(layout.sinks), 2, 3)
                for j in range(3):
                    one_prop, one_absorbed = propagate(layout, sequence, block[..., j:j + 1], mask=mask)
                    tol = 1e-15 * np.linalg.norm(block[..., j])
                    assert np.linalg.norm(prop[..., j] - one_prop[..., 0]) <= tol, (index, mask, j)
                    assert np.linalg.norm(absorbed[..., j] - one_absorbed[..., 0]) <= tol, (index, mask, j)

    def test_repeat_copies_scatter_into_the_next_pairs(self):
        # Copy c of a body scatters 2c rows past the pair its interaction
        # names: two copies need a second pair in the layout.
        body = (Mirror("a"), AtomInteraction("a"))
        block = np.ones((4, 3, 1), dtype=complex)
        with pytest.raises(ValueError, match="scatter past the sinks"):
            propagate(layout2(), [elements.Repeat(body, 2)], block, mask=frozenset())
        layout = make_layout(["a", "b"], ["S+", "S-", "S+#2", "S-#2"], LEVELS)
        written_out = list(body) + [Mirror("a"), AtomInteraction("a", sink_plus="S+#2", sink_minus="S-#2")]
        for mask in MASKS:
            got = propagate(layout, [elements.Repeat(body, 2)], block, mask=mask)
            want = propagate(layout, written_out, block, mask=mask)
            for part, want_part in zip(got, want):
                assert np.max(np.abs(part - want_part)) <= 1e-15, mask
        with pytest.raises(ValueError, match="positive count"):
            elements.Repeat(body, 0)

    def test_repeat_hash_is_kept_by_value(self):
        # The hash is taken once per repeat; equality still compares the
        # body, and a pickled copy takes its own hash.
        body = (BeamSplitter(0.6, 0.8, "a", "b"), PolRotator("a", POL_FLIP), AtomInteraction("a"))
        repeat = elements.Repeat(body, 3)
        again = elements.Repeat(tuple(body), 3)
        assert repeat == again and hash(repeat) == hash(again) == hash(repeat)
        assert repeat != elements.Repeat(body, 4) and repeat != elements.Repeat(body[:2], 3)
        copy = pickle.loads(pickle.dumps(repeat))
        assert copy == repeat and {copy: "found"}[repeat] == "found"
        assert "_hash" not in repeat.__getstate__()

    def test_input_block_is_not_changed(self):
        layout = layout2()
        block = np.ones((4, 3, 2), dtype=complex)
        prop, absorbed = propagate(layout, [AtomInteraction("a"), Mirror("b")], block, mask=frozenset())
        assert np.array_equal(block, np.ones((4, 3, 2)))
        assert np.array_equal(absorbed[0, 0], [1, 1]) and np.array_equal(absorbed[1, 1], [1, 1])
        assert not prop[0, 0].any() and not prop[1, 1].any()

    @pytest.mark.parametrize("shape", [(4, 3), (2, 3, 1), (4, 2, 1)])
    def test_block_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="photon block has shape"):
            propagate(layout2(), [Mirror("a")], np.zeros(shape, dtype=complex), mask=frozenset())
