"""Protocol runners against closed forms and independent oracles."""

import dataclasses
import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nqisim import dsl, elements, protocols
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
from nqisim.elements import propagate, sink_pair_labels
from nqisim.state import ABSENT_MASK, ATOM_LEVELS, JointState
from nqisim.tolerances import PROB_TOL


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

    def test_absent_atom_is_normalized_too(self):
        # An absent atom's amplitudes still scale the final state, so they
        # are normalized like any other.
        with pytest.raises(ValueError, match="not normalized"):
            AtomSpec(0.0, 0.0, present=False)
        AtomSpec(0.6, 0.8, present=False)

    @pytest.mark.parametrize("mask", [ABSENT_MASK, set(ATOM_LEVELS)])
    def test_masked_at_both_levels_is_absent(self, mask):
        assert not AtomSpec(transparency_mask=mask).present
        assert AtomSpec(transparency_mask={"m+"}).present

    def test_absent_atom_is_transparent_at_both_levels(self):
        assert AtomSpec(present=False).transparency_mask == ABSENT_MASK == {"m+", "m-"}
        assert AtomSpec(present=False, transparency_mask={"g"}).transparency_mask == set(
            ATOM_LEVELS
        )

    @pytest.mark.parametrize("mask, names", [("m+", "['+', 'm']"), ({"m_plus"}, "['m_plus']")])
    def test_unknown_transparency_levels_rejected(self, mask, names):
        # A bare string is read as its characters, and a misspelt level
        # would leave the atom unmasked.
        message = f"unknown atom levels in transparency mask: {names}"
        with pytest.raises(ValueError, match=re.escape(message)):
            AtomSpec(0.6, 0.8, transparency_mask=mask)

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
            return propagate(*args, **kwargs)

        monkeypatch.setattr(dsl, "propagate", counted)
        out = dsl.run_compiled(circuit, AtomSpec(0.6, 0.8))
        assert len(calls) == 1
        # Another atom is served from the same propagation ...
        other = dsl.run_compiled(circuit, AtomSpec(0.8, -0.6j))
        assert len(calls) == 1
        # ... and a new transparency mask propagates once more.
        masked = dsl.run_compiled(circuit, AtomSpec(0.6, 0.8, transparency_mask={"m+"}))
        assert len(calls) == 2
        assert masked.absorbed_prob == pytest.approx(0.64, abs=1e-12)

        # The record keeps no response: each dense final state propagates
        # once more when it is first read.
        final = out.final_state
        assert len(calls) == 3
        assert final.layout.sinks == ("S+", "S-", "S+#2", "S-#2")
        assert abs(final.amplitude("S+", "g")) == pytest.approx(0.6, abs=1e-12)
        assert abs(final.amplitude("S-#2", "g")) == pytest.approx(0.8, abs=1e-12)
        assert abs(other.final_state.amplitude("S+", "g")) == pytest.approx(0.8, abs=1e-12)
        assert abs(other.final_state.amplitude("S-#2", "g")) == pytest.approx(0.6, abs=1e-12)
        assert masked.final_state.amplitude("S+", "g") == 0.0
        assert len(calls) == 5

    def test_warm_run_reads_absorption_from_kept_weights(self, monkeypatch):
        # Each pass's absorption is |alpha|^2 P + |beta|^2 M from the kept
        # response's rows of its sink pair: the dense amplitudes give the
        # same to 1e-15, and a warm run forms none of them.
        atoms = [AtomSpec(0.6, 0.8), AtomSpec(0.8, -0.6j, transparency_mask={"m-"})]
        atoms += haar_random_atoms(5, seed=21)
        circuit = protocols._circuit("twopass")
        for atom in atoms:
            out = run_two_pass(atom)
            for event, key in enumerate(("first_pass_absorbed", "second_pass_absorbed")):
                rows = [circuit.layout.photon_index(sink) for sink in sink_pair_labels(event)]
                dense = float(np.sum(np.abs(circuit.amplitudes(atom)[rows]) ** 2))
                assert abs(out.details[key] - dense) <= 1e-15

        calls = []
        amplitudes = dsl.CompiledCircuit.amplitudes

        def counted(self, *args, **kwargs):
            calls.append(args)
            return amplitudes(self, *args, **kwargs)

        monkeypatch.setattr(dsl.CompiledCircuit, "amplitudes", counted)
        for atom in atoms:
            run_two_pass(atom)
        assert calls == []

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

    @pytest.mark.parametrize(
        "n, reference",
        [
            (64, 0.96217684610333328054),
            (1000, 0.99753563941957021122),
            (10**5, 0.99997532629339716783),
            (10**7, 0.99999975325992041310),
            (10**9, 0.99999999753259890277),
        ],
    )
    def test_closed_form_against_40_digit_references(self, n, reference):
        # [PINNED] [cos^2(pi/2N)]^N at 40 digits (mpmath), rounded to 20.
        # Powering the rounded cos(pi/2N) is off by 2.5e-9 at N = 10^9.
        assert mz_closed_form(n) == pytest.approx(reference, rel=0, abs=1e-15)

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

    def test_warm_run_takes_no_svd(self, monkeypatch):
        # The scored branch factors in closed form from its two level
        # columns; once the responses are kept, nothing takes an SVD.
        masks = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)
        atoms = haar_random_atoms(4, seed=21)
        for n, mask in itertools.product((1, 8, 64), masks):
            run_mz_chain(n, AtomSpec(transparency_mask=mask))

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        labels = set()
        for n, mask, atom in itertools.product((1, 8, 64), masks, atoms):
            out = run_mz_chain(n, AtomSpec(atom.alpha, atom.beta, transparency_mask=mask))
            labels.add(out.exit_polarization)
        assert labels == {"+", "-", "none"}


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
        r, t = 0.9, 0.435889894354
        for mirrors, name in (
            ((-r, t, r, t), "entry"),
            ((r, -t, r, t), "entry"),
            ((r, t, -r, t), "far"),
            ((r, t, r, -t), "far"),
        ):
            with pytest.raises(ValueError, match=f"^{name} mirror amplitudes must be non-negative$"):
                run_fabry_perot(*mirrors, AtomSpec())

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_eps_must_be_positive_and_finite(self, eps):
        # No carried probability ever falls below eps = 0; every one
        # fails to fall below eps = nan.
        t = math.sqrt(1 - 0.9 * 0.9)
        with pytest.raises(ValueError, match="eps must be positive"):
            run_fabry_perot(0.9, t, 0.9, t, AtomSpec(), eps=eps)

    @pytest.mark.parametrize(
        "r,trips", [(0.3, 11), (0.7, 36), (0.9, 117), (0.95, 237), (0.99, 1164), (0.999, 11106)]
    )
    def test_empty_cavity_round_trips(self, r, trips):
        # [PINNED] the trip-by-trip runner's counts at eps = 1e-22.
        t = math.sqrt(1 - r * r)
        out = run_fabry_perot(r, t, r, t, AtomSpec(present=False), eps=1e-22)
        assert out.details["round_trips"] == trips

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.2, max_value=0.99),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["absent", "unmasked", "m+", "m-"]),
    )
    @example(0.99, 1, "absent")
    @example(0.99, 2, "unmasked")
    @example(0.99, 3, "m+")
    @example(0.99, 4, "m-")
    def test_solve_matches_unrolled_circuit(self, r, seed, kind):
        # [DERIVED] oracle: fp.nqi unrolled at K = round_trips, one fresh
        # sink pair per atom pass, propagated element by element.  It
        # stops with less than eps inside, so its exits miss an amplitude
        # tail of order sqrt(eps) / (1 - r r').  At eps = 1e-22 that tail
        # moves its transmission by 1.4e-10 at r = 0.99; 1e-24 keeps it
        # within the 1e-10 probability check.
        eps = 1e-24
        truncation = 8.0 * math.sqrt(eps) / (1.0 - r * r)
        atom = haar_random_atoms(1, seed=seed)[0]
        if kind == "absent":
            atom = dataclasses.replace(atom, present=False)
        elif kind != "unmasked":
            atom = dataclasses.replace(atom, transparency_mask=frozenset({kind}))
        t = math.sqrt(1 - r * r)
        out = run_fabry_perot(r, t, r, t, atom, eps=eps)
        circuit = dsl.compile_circuit(
            dsl.parse(dsl.load_golden("fp")),
            {"T": t, "R": r, "TP": t, "RP": r, "K": out.details["round_trips"]},
        )
        ref = dsl.run_compiled(circuit, atom, prob_tol=truncation)

        layout, ref_layout = out.final_state.layout, ref.final_state.layout
        exits = [(p, pol) for p in ("refl", "trans") for pol in layout.polarizations]
        # The solve's sinks are the first trip's pairs of the unrolled circuit.
        for mode in exits + list(layout.sinks):
            got = out.final_state.matrix()[layout.photon_index(mode)]
            want = ref.final_state.matrix()[ref_layout.photon_index(mode)]
            np.testing.assert_allclose(got, want, rtol=0, atol=truncation)
        # Every later trip scatters nothing, so summing the trips into one
        # sink pair per interaction merges nothing that fresh pairs keep apart.
        later = [ref_layout.photon_index(s) for s in ref_layout.sinks[len(layout.sinks) :]]
        assert np.max(np.abs(ref.final_state.matrix()[later]), initial=0.0) <= 1e-12
        for name in ("success_prob", "failure_prob", "absorbed_prob"):
            assert getattr(out, name) == pytest.approx(getattr(ref, name), abs=1e-10)

    @pytest.mark.parametrize("r", [0.9, 0.95])
    @pytest.mark.parametrize("eps", [1e-12, 1e-22])
    @pytest.mark.parametrize(
        "atom",
        [AtomSpec(present=False), AtomSpec(0.6, 0.8, transparency_mask={"m+"})],
        ids=["absent", "m+"],
    )
    def test_compiled_at_round_trips_misses_a_sqrt_eps_tail(self, r, eps, atom):
        # [DERIVED] fp.nqi at K = round_trips leaves less than eps inside,
        # but the exits add coherently: the amplitude tail they miss moves
        # each probability by more than eps, and by at most
        # sqrt(eps) / (1 - r r') (3.4e-6 of 5.3e-6 at r = 0.9, eps = 1e-12).
        t = math.sqrt(1 - r * r)
        bound = math.sqrt(eps) / (1 - r * r)
        ref = run_fabry_perot(r, t, r, t, atom, eps=eps)
        circuit = dsl.compile_circuit(
            dsl.parse(dsl.load_golden("fp")),
            {"T": t, "R": r, "TP": t, "RP": r, "K": ref.details["round_trips"]},
        )
        out = dsl.run_compiled(circuit, atom, prob_tol=bound)
        miss = max(abs(out.success_prob - ref.success_prob), abs(out.failure_prob - ref.failure_prob))
        assert eps < miss <= bound

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=1e-30, max_value=1e-2),
    )
    def test_round_trips_match_a_trip_loop(self, seed, radius, eps):
        # [DERIVED] reference: apply the trip maps one trip at a time.
        rng = np.random.default_rng(seed)
        maps = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        maps *= radius / np.linalg.norm(maps, ord=2, axis=(1, 2))[:, None, None]
        starts = rng.standard_normal((2, 4, 1)) + 1j * rng.standard_normal((2, 4, 1))
        starts /= np.linalg.norm(starts)
        trips, vectors = 0, starts
        while np.vdot(vectors, vectors).real >= eps:
            trips, vectors = trips + 1, maps @ vectors
        carried = protocols._carried(maps, starts[..., 0])
        assert protocols._fp_round_trips(carried, (1.0, 1.0), eps) == trips

    def test_kept_powers_give_the_round_trips_of_fresh_ones(self):
        # [DERIVED] reference: the bracket and bisection on powers T^(2^j)
        # squared afresh for each atom.  Each mask keeps its powers across
        # atoms and eps values, and the products are the same ones.
        def fresh(maps, starts, eps):
            def emptied(vectors):
                return float(np.vdot(vectors, vectors).real) < eps

            if emptied(starts):
                return 0
            powers = [maps]
            while not emptied(powers[-1] @ starts):
                powers.append(powers[-1] @ powers[-1])
            trips, vectors = 0, starts
            for j in reversed(range(len(powers) - 1)):
                trial = powers[j] @ vectors
                if not emptied(trial):
                    trips, vectors = trips + 2**j, trial
            return trips + 1

        protocols._cavity.cache_clear()
        masks = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)
        atoms = haar_random_atoms(3, seed=23)
        kept = set()
        grid = itertools.product((1e-12, 1e-22, 1e-16), (0.3, 0.9, 0.99, 0.999), masks, atoms)
        for eps, r, mask, atom in grid:
            t = math.sqrt(1 - r * r)
            spec = AtomSpec(atom.alpha, atom.beta, transparency_mask=mask)
            out = run_fabry_perot(r, t, r, t, spec, eps=eps)
            _, trips = protocols._cavity(T=t, R=r, TP=t, RP=r).summed(mask)
            # Each level's trip map and its column scaled by alpha or beta,
            # on the two carried rows (fwd's polarizations).
            levels = [(entry, level) for entry in trips for level in entry.levels]
            maps = np.array([entry.powers[0] for entry, _ in levels], dtype=complex)
            scale = (spec.alpha, spec.beta)
            starts = np.array([[scale[level] * z for z in entry.column] for entry, level in levels])
            maps, starts = maps.reshape(-1, 2, 2), starts.reshape(-1, 2, 1)
            assert out.details["round_trips"] == 1 + fresh(maps, starts, eps), (eps, r, spec)
            kept.update(len(entry.powers) for entry in trips)
        assert max(kept) > 10

    @staticmethod
    def _fresh_round_trips(trips, atom, eps):
        """The search on entries built afresh from T, v and |v|^2: no kept
        power beyond T and no kept node."""
        fresh = [protocols._Carried(list(e.levels), e.column, e.powers[:1], e.norm) for e in trips]
        return protocols._fp_round_trips(fresh, (abs(atom.alpha) ** 2, abs(atom.beta) ** 2), eps)

    def test_kept_nodes_give_the_round_trips_of_a_fresh_search(self):
        # [DERIVED] reference: the same search on fresh entries.  Atoms and
        # eps values interleave on one cavity per r, so each search meets
        # nodes that searches at other weights and eps kept; at r = 0.99999
        # the {m+} entry fills up and drops its nodes.
        protocols._cavity.cache_clear()
        masks = (frozenset({"m+"}), ABSENT_MASK)
        atoms = haar_random_atoms(300, seed=41)
        for r in (0.99, 0.999, 0.99999):
            t = math.sqrt(1 - r * r)
            cavity = protocols._cavity(T=t, R=r, TP=t, RP=r)
            sizes, drops = {}, 0
            for atom, eps, mask in itertools.product(atoms, (1e-12, 1e-16, 1e-22), masks):
                spec = AtomSpec(atom.alpha, atom.beta, transparency_mask=mask)
                out = run_fabry_perot(r, t, r, t, spec, eps=eps)
                _, trips = cavity.summed(mask)
                assert out.details["round_trips"] == 1 + self._fresh_round_trips(trips, spec, eps), (r, eps, spec)
                for entry in trips:
                    size = len(entry.nodes)
                    assert size <= protocols._FP_MAX_NODES
                    drops += size < sizes.get(id(entry), 0)
                    sizes[id(entry)] = size
            assert (drops > 0) == (r == 0.99999), r

    def test_a_search_keeps_its_path_through_a_drop(self, monkeypatch):
        # [DERIVED] reference: the same search on fresh entries.  With room
        # for one node, every node a search keeps drops the one before it,
        # which may be the column the search goes on from: the search
        # computes that column again from the same products.
        monkeypatch.setattr(protocols, "_FP_MAX_NODES", 1)
        protocols._cavity.cache_clear()
        r = 0.999
        t = math.sqrt(1 - r * r)
        cavity = protocols._cavity(T=t, R=r, TP=t, RP=r)
        for atom, eps in itertools.product(haar_random_atoms(10, seed=43), (1e-12, 1e-22)):
            spec = AtomSpec(atom.alpha, atom.beta, transparency_mask=frozenset({"m+"}))
            out = run_fabry_perot(r, t, r, t, spec, eps=eps)
            _, (entry,) = cavity.summed(spec.transparency_mask)
            assert len(entry.nodes) == 1
            assert out.details["round_trips"] == 1 + self._fresh_round_trips([entry], spec, eps)

    def test_a_repeated_search_computes_no_column(self, monkeypatch):
        # The search keeps the nodes it reads, so the same weights and eps
        # again, which the absent atom brings on every run, read kept nodes
        # alone.
        calls = []
        apply = protocols._apply

        def counted(*args):
            calls.append(args)
            return apply(*args)

        protocols._cavity.cache_clear()
        monkeypatch.setattr(protocols, "_apply", counted)
        r = 0.999
        t = math.sqrt(1 - r * r)
        for atom in (AtomSpec(present=False), AtomSpec(0.6, 0.8j, transparency_mask={"m+"})):
            first = run_fabry_perot(r, t, r, t, atom, eps=1e-16)
            assert calls
            calls.clear()
            again = run_fabry_perot(r, t, r, t, atom, eps=1e-16)
            assert calls == []
            assert again.details["round_trips"] == first.details["round_trips"]

    @pytest.mark.parametrize("fill", [1.0, math.nan])
    def test_a_cavity_that_never_empties_is_refused(self, fill):
        # T = I keeps the photon inside for ever, and NaN never falls
        # below eps: the search stops at T^(2^64) instead of squaring on.
        maps = np.where(np.eye(4), fill, 0.0)[None].astype(complex)
        starts = np.full((1, 4), 0.5, dtype=complex)
        with pytest.raises(ConservationError, match="does not empty"):
            protocols._fp_round_trips(protocols._carried(maps, starts), (1.0,), 1e-22)

    def test_warm_run_reads_no_amplitudes(self, monkeypatch):
        # A warm run's exits are its branch probabilities, from the kept
        # branch weights, and its round trips come from the kept carried
        # nodes; only the dense final state reads the amplitudes.
        calls = []
        amplitudes = dsl.CompiledCircuit.amplitudes

        def counted(self, *args, **kwargs):
            calls.append(args)
            return amplitudes(self, *args, **kwargs)

        r = 0.99
        t = math.sqrt(1 - r * r)
        masks = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)
        for mask in masks:
            run_fabry_perot(r, t, r, t, AtomSpec(0.6, 0.8j, transparency_mask=mask))
        monkeypatch.setattr(dsl.CompiledCircuit, "amplitudes", counted)
        for mask, atom in itertools.product(masks, haar_random_atoms(3, seed=4)):
            spec = AtomSpec(atom.alpha, atom.beta, transparency_mask=mask)
            out = run_fabry_perot(r, t, r, t, spec, eps=1e-16)
        assert calls == []
        assert out.final_state.layout.paths == ("in", "fwd", "tport", "refl", "trans")
        assert len(calls) == 1

    @pytest.mark.parametrize("r", [0.3, 0.99, 0.999])
    def test_exits_are_the_squared_amplitudes_of_their_ports(self, r):
        # [DERIVED] reference: the squared amplitudes of each exit's rows,
        # alpha- and beta-scaled, against the run's success and failure
        # probabilities, which the exits are.
        t = math.sqrt(1 - r * r)
        cavity = protocols._cavity(T=t, R=r, TP=t, RP=r)
        masks = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)
        for mask, atom in itertools.product(masks, haar_random_atoms(3, seed=31)):
            spec = AtomSpec(atom.alpha, atom.beta, transparency_mask=mask)
            out = run_fabry_perot(r, t, r, t, spec)
            for key, path in (("reflected", "refl"), ("transmitted", "trans")):
                amps = cavity.amplitudes(spec)[cavity.layout.path_block[path]]
                want = float(np.sum(np.abs(amps) ** 2))
                assert abs(out.details[key] - want) <= 1e-15, (key, spec)

    def test_equal_levels_share_one_carried_column(self):
        # An absent atom's two levels see the same trip map and are left
        # the same column; a present atom absorbs the beam on its first
        # trip at either level and leaves none inside.
        r = 0.9
        t = math.sqrt(1 - r * r)
        cavity = protocols._cavity(T=t, R=r, TP=t, RP=r)
        for mask in (ABSENT_MASK, frozenset(), frozenset({"m+"})):
            run_fabry_perot(r, t, r, t, AtomSpec(0.6, 0.8, transparency_mask=mask))
        assert [entry.levels for entry in cavity.summed(ABSENT_MASK)[1]] == [[0, 1]]
        assert cavity.summed(frozenset())[1] == ()
        assert [entry.levels for entry in cavity.summed(frozenset({"m+"}))[1]] == [[0]]

    @pytest.mark.parametrize(
        "atom", [AtomSpec(present=False), AtomSpec(0.6, 0.8, transparency_mask={"m+"})]
    )
    def test_high_finesse_conserves_without_iterating(self, atom):
        # Trip by trip, r = 0.99999 takes 995,923 round trips.
        r = 0.99999
        t = math.sqrt(1 - r * r)
        start = time.perf_counter()
        out = run_fabry_perot(r, t, r, t, atom, eps=1e-22)
        assert time.perf_counter() - start < 1.0
        total = out.success_prob + out.failure_prob + out.absorbed_prob
        assert total == pytest.approx(1.0, abs=PROB_TOL)
        if not atom.present:
            assert out.details["round_trips"] == 995_923

    @pytest.mark.parametrize(
        "atom", [AtomSpec(present=False), AtomSpec(0.6, 0.8, transparency_mask={"m+"})]
    )
    def test_float_mirrors_beyond_the_tolerance_are_refused(self, atom):
        # Two unequal mirrors, r = 1 - 1e-8 and r' = 1 - 1e-10, are each
        # unitary only to rounding, which the cavity amplifies by
        # 1 / (1 - r r') = 9.9e7: the branch sum is about 1e-9 short of 1.
        r, r_prime = 1 - 1e-8, 1 - 1e-10
        t, t_prime = math.sqrt(1 - r * r), math.sqrt(1 - r_prime * r_prime)
        start = time.perf_counter()
        amplified = r"sum to 0\.99999999\d*, expected 1; .* amplified by 1/\(1 - r r'\) = 9\.9e\+07"
        with pytest.raises(ConservationError, match=amplified):
            run_fabry_perot(r, t, r_prime, t_prime, atom, eps=1e-22)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("x", [4, 5, 6, 7, 8])
    def test_symmetric_high_finesse_conserves(self, x):
        # The trip's only inexact elements are its two equal mirrors, whose
        # rounding the series leaves near eps: its half turn, phase fwd pi,
        # is an exact -1, and the 45-degree turns of the polarization sit
        # outside the trips, where nothing amplifies them.
        r = 1 - 10.0**-x
        t = math.sqrt(1 - r * r)
        atoms = [
            AtomSpec(present=False),
            AtomSpec(0.6, 0.8j, transparency_mask={"m+"}),
            AtomSpec(0.6, 0.8j, transparency_mask={"m-"}),
            AtomSpec(0.6, 0.8j),
        ]
        for atom in atoms:
            out = run_fabry_perot(r, t, r, t, atom, eps=1e-22)
            total = out.success_prob + out.failure_prob + out.absorbed_prob
            assert abs(total - 1.0) <= 1e-14
            if not atom.present:
                assert abs(out.details["transmitted"] - 1.0) <= 1e-12


    @pytest.mark.parametrize("x", [9, 12, 14, 15])
    def test_empty_symmetric_cavity_transmits_everything(self, x):
        # With phase fwd pi at exp(i math.pi) = -1 + 1.22e-16i every trip
        # would be detuned, and (1.22e-16 / (1 - r^2))^2 of the photon
        # reflected: 3.7e-3 at x = 15.  The exact half turn leaves rounding.
        r = 1 - 10.0**-x
        t = math.sqrt(1 - r * r)
        out = run_fabry_perot(r, t, r, t, AtomSpec(present=False), eps=1e-22)
        assert abs(out.details["transmitted"] - 1.0) <= 1e-15

    @pytest.mark.parametrize(
        "atom",
        [AtomSpec(present=False), AtomSpec(0.6, 0.8, transparency_mask=frozenset({"m+"})), AtomSpec(0.6, 0.8)],
    )
    def test_closed_cavity_reflects_everything(self, atom):
        # A closed entry mirror lets nothing in: the first trip leaves no
        # light inside, where I - T_l is singular for a level that passes.
        out = run_fabry_perot(1.0, 0.0, 1.0, 0.0, atom)
        assert out.details["reflected"] == pytest.approx(1.0, abs=1e-15)
        assert out.details["transmitted"] == 0.0
        assert out.details["round_trips"] == 1
        assert out.exit_polarization == "x"

    def test_compiled_once_per_mirror_binding(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return dsl.compile_circuit(*args)

        protocols._cavity.cache_clear()
        monkeypatch.setattr(protocols, "compile_circuit", counted)
        r = 0.3
        t = math.sqrt(1 - r * r)
        for atom in (AtomSpec(present=False), AtomSpec(0.6, 0.8), AtomSpec(0.8, 0.6j)):
            run_fabry_perot(r, t, r, t, atom)
        assert len(calls) == 1

    def test_propagations_do_not_grow_with_the_atoms(self, monkeypatch):
        # One mirror binding and one mask: the summed response serves every
        # atom, so the trip is propagated once, as one block of the input
        # and the carried rows (fwd, two polarizations), and never again.
        # That one propagation builds the trip's 3 maps from 10 elements.
        calls, kernels = [], []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return propagate(*args, **kwargs)

        for kind, kernel in list(elements._KERNELS.items()):

            def counted_kernel(*args, kernel=kernel):
                kernels.append(args[2])
                kernel(*args)

            monkeypatch.setitem(elements._KERNELS, kind, counted_kernel)
        protocols._cavity.cache_clear()
        monkeypatch.setattr(dsl, "propagate", counted)
        r = 0.9
        t = math.sqrt(1 - r * r)
        counts = []
        for atom in haar_random_atoms(6, seed=12):
            run_fabry_perot(r, t, r, t, atom)
            counts.append((len(calls), len(kernels)))
        assert counts == [(1, 10)] * 6
        run_fabry_perot(r, t, r, t, AtomSpec(0.6, 0.8, transparency_mask={"m+"}))
        assert (len(calls), len(kernels)) == (2, 20)


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
