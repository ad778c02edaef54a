"""Protocol runners against closed forms and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nqisim import dsl, protocols
from nqisim.protocols import (
    AtomSpec,
    ConservationError,
    POL_STATES,
    assemble_outcome,
    build_mz,
    haar_random_atoms,
    mz_closed_form,
    run_direct,
    run_fabry_perot,
    run_mz_chain,
    run_two_pass,
)
from nqisim.elements import run_sequence
from nqisim.state import JointState


def atoms_strategy():
    return st.tuples(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=-math.pi, max_value=math.pi),
    ).map(
        lambda wp: AtomSpec(math.sqrt(wp[0]), math.sqrt(1 - wp[0]) * np.exp(1j * wp[1]))
    )


class TestAtomSpec:
    def test_normalization_enforced(self):
        for alpha, beta in ((1.0, 1.0), (math.nan, 0.8), (0.6, math.nan)):
            with pytest.raises(ValueError, match="not normalized"):
                AtomSpec(alpha, beta)

    def test_absent_atom_skips_check(self):
        AtomSpec(0.0, 0.0, present=False)

    def test_haar_samples_are_normalized_and_reproducible(self):
        a = haar_random_atoms(10, seed=4)
        b = haar_random_atoms(10, seed=4)
        assert [(s.alpha, s.beta) for s in a] == [(s.alpha, s.beta) for s in b]
        for s in a:
            assert abs(s.alpha) ** 2 + abs(s.beta) ** 2 == pytest.approx(1.0)


class TestDirect:
    def test_x_polarization_amplitudes(self):
        # [PINNED] the four surviving amplitudes after one pass of an x
        # photon: the cross-polarized components stay, the co-polarized
        # components scatter into the sinks with the atom dropped to g.
        alpha, beta = 0.6, 0.8
        final = run_direct("x", AtomSpec(alpha, beta))
        s = 1 / math.sqrt(2)
        assert final.amplitude(("a", "-"), "m+") == pytest.approx(alpha * s)
        assert final.amplitude(("a", "+"), "m-") == pytest.approx(-beta * s)
        assert final.amplitude("S+", "g") == pytest.approx(-alpha * s)
        assert final.amplitude("S-", "g") == pytest.approx(beta * s)

    def test_all_other_amplitudes_vanish(self):
        final = run_direct("x", AtomSpec(0.6, 0.8))
        layout = final.layout
        nonzero = {
            (("a", "-"), "m+"),
            (("a", "+"), "m-"),
            ("S+", "g"),
            ("S-", "g"),
        }
        for mode in layout.photon_modes:
            for level in layout.atom_levels:
                if (mode, level) not in nonzero:
                    assert final.amplitude(mode, level) == 0.0

    def test_absent_atom_is_identity(self):
        atom = AtomSpec(0.6, 0.8, present=False)
        final = run_direct("x", atom)
        pol = POL_STATES["x"]
        for i, p in enumerate(final.layout.polarizations):
            assert final.amplitude(("a", p), "m+") == pytest.approx(pol[i] * 0.6)
            assert final.amplitude(("a", p), "m-") == pytest.approx(pol[i] * 0.8)
        assert final.amplitude("S+", "g") == 0.0

    def test_plus_photon_on_minus_atom_passes(self):
        final = run_direct("+", AtomSpec(0.0, 1.0))
        assert final.amplitude(("a", "+"), "m-") == pytest.approx(1.0)

    def test_unknown_polarization_named(self):
        with pytest.raises(ValueError, match="unknown polarization: 'z'"):
            run_direct("z", AtomSpec())


class TestTwoPass:
    @settings(max_examples=25, deadline=None)
    @given(atoms_strategy())
    def test_certain_absorption(self, atom):
        out = run_two_pass(atom)
        assert out.absorbed_prob == pytest.approx(1.0, abs=1e-12)
        assert out.details["first_pass_absorbed"] == pytest.approx(abs(atom.alpha) ** 2)
        assert out.details["second_pass_absorbed"] == pytest.approx(abs(atom.beta) ** 2)

    def test_one_propagation_with_a_sink_pair_per_pass(self, monkeypatch):
        # A fresh circuit, so that no earlier test has propagated it.
        circuit = dsl.compile_circuit(dsl.parse(dsl.load_golden("twopass")))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_sequence(*args, **kwargs)

        monkeypatch.setattr(dsl, "run_sequence", counted)
        out = dsl.run_compiled(circuit, AtomSpec(0.6, 0.8))
        assert len(calls) == 1
        final = out.final_state
        assert final.layout.sinks == ("S+", "S-", "S+#2", "S-#2")
        assert abs(final.amplitude("S+", "g")) == pytest.approx(0.6, abs=1e-12)
        assert abs(final.amplitude("S-#2", "g")) == pytest.approx(0.8, abs=1e-12)

        # Another atom is served from the same propagation ...
        other = dsl.run_compiled(circuit, AtomSpec(0.8, -0.6j))
        assert len(calls) == 1
        assert abs(other.final_state.amplitude("S+", "g")) == pytest.approx(0.8, abs=1e-12)
        assert abs(other.final_state.amplitude("S-#2", "g")) == pytest.approx(0.6, abs=1e-12)
        # ... and a new transparency mask propagates once more.
        masked = dsl.run_compiled(circuit, AtomSpec(0.6, 0.8, transparency_mask={"m+"}))
        assert len(calls) == 2
        assert masked.final_state.amplitude("S+", "g") == 0.0
        assert masked.absorbed_prob == pytest.approx(0.64, abs=1e-12)

    def test_absent_atom_never_absorbs(self):
        out = run_two_pass(AtomSpec(present=False))
        assert out.absorbed_prob == 0.0
        assert out.failure_prob == pytest.approx(1.0)


class TestMzChain:
    def test_closed_form_values(self):
        # [TRIVIAL] spot values of [cos^2(pi/2N)]^N
        assert mz_closed_form(2) == pytest.approx(0.25)
        assert mz_closed_form(3) == pytest.approx(0.421875)
        assert mz_closed_form(1000) > 0.9975

    def test_closed_form_rejects_bad_n(self):
        with pytest.raises(ValueError):
            mz_closed_form(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21])
    def test_success_matches_closed_form(self, n):
        # [DERIVED] oracle: each stage keeps the surviving lower-path
        # amplitude with factor i r (the upper-path component is fully
        # absorbed by the two opposite-polarization passes), so the
        # success probability is r^(2N).
        out = run_mz_chain(n, AtomSpec(0.6, 0.8j))
        r = math.cos(math.pi / (2 * n))
        assert out.success_prob == pytest.approx(r ** (2 * n), abs=1e-12)
        assert out.success_prob == pytest.approx(mz_closed_form(n), abs=1e-12)
        assert out.failure_prob == pytest.approx(0.0, abs=1e-12)
        assert out.absorbed_prob == pytest.approx(1 - r ** (2 * n), abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=12), atoms_strategy())
    def test_success_branch_keeps_the_superposition(self, n, atom):
        out = run_mz_chain(n, atom)
        assert out.success_fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_no_atom_exits_upper_port(self, n):
        # Without the atom the chain walks the photon across: it leaves
        # through the upper port with certainty, polarization flipped an
        # odd number of times per stage.
        out = run_mz_chain(n, AtomSpec(present=False))
        assert out.failure_prob == pytest.approx(1.0, abs=1e-12)
        assert out.success_prob == pytest.approx(0.0, abs=1e-12)
        assert out.exit_polarization == ("-" if n % 2 else "+")

    def test_transparency_mask_leaks_probability(self):
        out = run_mz_chain(4, AtomSpec(0.6, 0.8, transparency_mask=frozenset({"m+", "m-"})))
        # Fully transparent atom behaves like no atom at all.
        assert out.failure_prob == pytest.approx(1.0, abs=1e-12)


class TestFabryPerot:
    def test_atom_present_coefficients(self):
        # [PINNED] reflected branch i r |x>(alpha, beta); transmitted
        # branch t t' beta on |y> (x) |m->.
        r = 0.9
        t = math.sqrt(1 - r * r)
        alpha, beta = 0.6, 0.8
        out = run_fabry_perot(r, t, r, t, AtomSpec(alpha, beta))
        assert out.success_prob == pytest.approx(r * r, abs=1e-12)
        assert out.success_fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.exit_polarization == "x"
        final = out.final_state
        xpol = POL_STATES["x"]
        for i, pol in enumerate(final.layout.polarizations):
            assert final.amplitude(("refl", pol), "m+") == pytest.approx(
                1j * r * xpol[i] * alpha, abs=1e-12
            )
            assert final.amplitude(("refl", pol), "m-") == pytest.approx(
                1j * r * xpol[i] * beta, abs=1e-12
            )
        ypol = POL_STATES["y"]
        for i, pol in enumerate(final.layout.polarizations):
            assert final.amplitude(("trans", pol), "m-") == pytest.approx(
                t * t * beta * ypol[i], abs=1e-10
            )
            assert final.amplitude(("trans", pol), "m+") == pytest.approx(0.0, abs=1e-12)
        assert out.details["round_trips"] == 1

    @pytest.mark.parametrize("r", [0.3, 0.7, 0.95])
    def test_no_atom_full_transmission(self, r):
        # [DERIVED] oracle: geometric series t t' sum (r r')^k = 1 for a
        # symmetric lossless cavity on resonance.
        t = math.sqrt(1 - r * r)
        out = run_fabry_perot(r, t, r, t, AtomSpec(present=False), eps=1e-22)
        assert out.details["transmitted"] == pytest.approx(1.0, abs=1e-9)
        assert out.details["reflected"] == pytest.approx(0.0, abs=1e-9)
        assert out.exit_polarization == "y"

    def test_no_atom_asymmetric_matches_series(self):
        # [DERIVED] trans = t t'/(1 - r r'), refl = (r - r')/(1 - r r')
        # in magnitude, from summing the round-trip geometric series.
        r, rp = 0.8, 0.5
        t, tp = math.sqrt(1 - r * r), math.sqrt(1 - rp * rp)
        out = run_fabry_perot(r, t, rp, tp, AtomSpec(present=False), eps=1e-26)
        trans = (t * tp / (1 - r * rp)) ** 2
        refl = ((r - rp) / (1 - r * rp)) ** 2
        assert out.details["transmitted"] == pytest.approx(trans, abs=1e-10)
        assert out.details["reflected"] == pytest.approx(refl, abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(atoms_strategy(), st.floats(min_value=0.3, max_value=0.95))
    def test_nondistortion_over_samples(self, atom, r):
        t = math.sqrt(1 - r * r)
        out = run_fabry_perot(r, t, r, t, atom, eps=1e-20)
        assert out.success_prob == pytest.approx(r * r, abs=1e-10)
        assert out.success_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_bad_mirror_rejected(self):
        with pytest.raises(ValueError, match="mirror is not unitary"):
            run_fabry_perot(0.9, 0.9, 0.9, 0.435889894354, AtomSpec())
        with pytest.raises(ValueError, match="entry mirror is not unitary"):
            run_fabry_perot(math.nan, 0.0, 0.9, 0.435889894354, AtomSpec())
        with pytest.raises(ValueError, match="far mirror is not unitary"):
            run_fabry_perot(0.9, 0.435889894354, 0.9, math.nan, AtomSpec())

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_eps_must_be_positive_and_finite(self, eps):
        # eps = 0 would run a million round trips before giving up;
        # eps = nan would stop after none.
        t = math.sqrt(1 - 0.9 * 0.9)
        with pytest.raises(ValueError, match="eps must be positive"):
            run_fabry_perot(0.9, t, 0.9, t, AtomSpec(), eps=eps)


class TestOutcomeAssembly:
    def test_conservation_error_raised(self):
        out = run_mz_chain(2, AtomSpec(0.6, 0.8))
        with pytest.raises(ConservationError, match="sum to"):
            assemble_outcome(
                out.final_state, {"success": np.array([0])}, np.array([0.6, 0.8, 0.0])
            )

    @pytest.mark.parametrize("prob_tol", [math.nan, -1.0, math.inf])
    def test_prob_tol_must_be_finite_and_non_negative(self, prob_tol):
        out = run_mz_chain(2, AtomSpec(0.6, 0.8))
        with pytest.raises(ValueError, match="prob_tol must be finite and non-negative"):
            assemble_outcome(
                out.final_state, build_mz(2)[2], np.array([0.6, 0.8, 0.0]), prob_tol=prob_tol
            )

    def test_nan_amplitude_fails_conservation(self):
        out = run_mz_chain(2, AtomSpec(0.6, 0.8))
        amps = out.final_state.amplitudes.copy()
        amps[0] = complex(math.nan, 0.0)
        final = JointState(out.final_state.layout, amps)
        with pytest.raises(ConservationError, match="sum to nan"):
            assemble_outcome(final, build_mz(2)[2], np.array([0.6, 0.8, 0.0]))

    def test_scan_helper(self):
        for atom in haar_random_atoms(3, seed=9):
            out = run_mz_chain(4, atom)
            assert out.success_prob == pytest.approx(mz_closed_form(4), abs=1e-12)
            assert out.success_fidelity == pytest.approx(1.0, abs=1e-12)


class TestConservationEverywhere:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=20), atoms_strategy())
    def test_mz_branches_sum_to_one(self, n, atom):
        out = run_mz_chain(n, atom)
        total = out.success_prob + out.failure_prob + out.absorbed_prob
        assert total == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(atoms_strategy(), st.floats(min_value=0.2, max_value=0.9))
    def test_fp_branches_sum_to_one(self, atom, r):
        t = math.sqrt(1 - r * r)
        out = run_fabry_perot(r, t, r, t, atom, eps=1e-20)
        total = out.success_prob + out.failure_prob + out.absorbed_prob
        assert total == pytest.approx(1.0, abs=1e-10)
