"""Acceptance gate: nine criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass; any assertion failure marks the corresponding criterion as
failed.
"""

import math
import random
import time

import pytest

from nqisim import dsl
from nqisim.elements import AtomInteraction, PolRotator, POL_FLIP
from nqisim.nogo import (
    Absence,
    Witness,
    build_final_states,
    find_witness,
    grid_witness_search,
    transparency_nogo_scan,
)
from nqisim.protocols import (
    ATOM_LEVELS,
    AtomSpec,
    POL_STATES,
    build_mz,
    haar_random_atoms,
    mz_closed_form,
    run_direct,
    run_fabry_perot,
    run_mz_chain,
    run_two_pass,
)
from nqisim.state import initial_state, make_layout

from test_dsl import _random_source


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def check_conserved(out):
    total = out.success_prob + out.failure_prob + out.absorbed_prob
    assert abs(total - 1.0) <= 1e-10, f"branch sum {total}"


def test_criterion_1_closed_form_equivalence():
    atoms = haar_random_atoms(20, seed=101)
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 65):
        expected = mz_closed_form(n)
        for atom in atoms:
            out = run_mz_chain(n, atom)
            check_conserved(out)
            worst = max(worst, abs(out.success_prob - expected))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, f"chain matches closed form for N=1..64, 20 atoms "
              f"(max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_asymptotic_efficiency():
    start = time.perf_counter()
    expected = mz_closed_form(1000)
    assert expected > 0.9975
    out = run_mz_chain(1000, AtomSpec(0.6, 0.8j))
    check_conserved(out)
    dev = abs(out.success_prob - expected)
    elapsed = time.perf_counter() - start
    assert dev <= 1e-10
    assert elapsed < 2.0
    report(2, f"N=1000 success {out.success_prob:.6f} > 0.9975 "
              f"(dev {dev:.2e}, {elapsed:.2f}s)")


def test_criterion_3_nondistortion():
    atoms = haar_random_atoms(20, seed=202)
    worst = 0.0
    for n in range(2, 17):
        for atom in atoms:
            out = run_mz_chain(n, atom)
            check_conserved(out)
            worst = max(worst, abs(out.success_fidelity - 1.0))
    for r in (0.5, 0.9, 0.99):
        t = math.sqrt(1 - r * r)
        for atom in atoms:
            out = run_fabry_perot(r, t, r, t, atom, eps=1e-22)
            check_conserved(out)
            worst = max(worst, abs(out.success_fidelity - 1.0))
    assert worst <= 1e-10
    report(3, f"success-branch fidelity 1 on chain N=2..16 and cavity "
              f"r=0.5/0.9/0.99, 20 atoms (max dev {worst:.2e})")


def test_criterion_4_direct_amplitudes():
    alpha, beta = 0.6, 0.8j
    final = run_direct("x", AtomSpec(alpha, beta))
    s = 1 / math.sqrt(2)
    expected = {
        (("a", "-"), "m+"): alpha * s,
        (("a", "+"), "m-"): -beta * s,
        ("S+", "g"): -alpha * s,
        ("S-", "g"): beta * s,
    }
    worst = 0.0
    for mode in final.layout.photon_modes:
        for level in final.layout.atom_levels:
            want = expected.get((mode, level), 0.0)
            worst = max(worst, abs(final.amplitude(mode, level) - want))
    assert worst <= 1e-12
    report(4, f"single-pass amplitudes exact (max dev {worst:.2e})")


def test_criterion_5_cavity_coefficients():
    r = 0.9
    t = math.sqrt(1 - r * r)
    alpha, beta = 0.6, 0.8
    out = run_fabry_perot(r, t, r, t, AtomSpec(alpha, beta), eps=1e-22)
    check_conserved(out)
    final = out.final_state
    worst = 0.0
    xpol, ypol = POL_STATES["x"], POL_STATES["y"]
    for i, pol in enumerate(final.layout.polarizations):
        for level, amp in (("m+", alpha), ("m-", beta)):
            want = 1j * r * xpol[i] * amp
            worst = max(worst, abs(final.amplitude(("refl", pol), level) - want))
        want = t * t * beta * ypol[i]
        worst = max(worst, abs(final.amplitude(("trans", pol), "m-") - want))
        worst = max(worst, abs(final.amplitude(("trans", pol), "m+")))
    assert worst <= 1e-10

    worst_trans = 0.0
    for rr in (0.3, 0.7, 0.95):
        tt = math.sqrt(1 - rr * rr)
        empty = run_fabry_perot(rr, tt, rr, tt, AtomSpec(present=False), eps=1e-22)
        check_conserved(empty)
        worst_trans = max(worst_trans, abs(empty.details["transmitted"] - 1.0))
    assert worst_trans <= 1e-9
    report(5, f"cavity coefficients i*r and t*t'*beta exact (dev {worst:.2e}); "
              f"empty-cavity transmission 1 (dev {worst_trans:.2e})")


def test_criterion_6_two_pass_opacity():
    worst = 0.0
    for atom in haar_random_atoms(20, seed=303):
        out = run_two_pass(atom)
        check_conserved(out)
        worst = max(worst, abs(out.absorbed_prob - 1.0))
    assert worst <= 1e-12
    report(6, f"two-pass absorption certain for 20 atoms (max dev {worst:.2e})")


def test_criterion_7_nogo_scan():
    layout, elements, _ = build_mz(8)
    samples = haar_random_atoms(10, seed=404)
    assert all(abs(a.alpha) > 1e-3 and abs(a.beta) > 1e-3 for a in samples)
    rows = transparency_nogo_scan(
        layout,
        elements,
        lambda atom: initial_state(layout, "l", "+", atom),
        [frozenset(), frozenset({"m+"})],
        samples,
    )
    empty = [row for row in rows if not row.mask]
    masked = [row for row in rows if row.mask == frozenset({"m+"})]
    assert len(empty) == len(masked) == 10
    assert all(row.witness_found for row in empty)
    for row in masked:
        assert not row.witness_found
        assert row.residual >= min(abs(row.alpha), abs(row.beta)) / 2

    # Grid oracle agreement on complement dimension <= 3: single-path
    # instances, one without a witness and one with.
    small = make_layout(["a"], ["S+", "S-"], list(ATOM_LEVELS))

    interaction = AtomInteraction("a")
    agreements = 0
    cases = [
        ([interaction], "x", AtomSpec(0.6, 0.8)),
        ([interaction, PolRotator("a", POL_FLIP), interaction], "+", AtomSpec(0.6, 0.8)),
        ([interaction], "x", AtomSpec(0.0, 1.0)),
    ]
    for elems, pol, atom in cases:
        pair = build_final_states(small, elems, initial_state(small, "a", pol, atom))
        assert pair.probe_dim - 1 <= 3
        atom_init = atom.level_vector(small)
        decided = find_witness(pair, atom_init)
        grid_best, _ = grid_witness_search(pair, atom_init)
        if isinstance(decided, Witness):
            assert grid_best < 1e-6
        else:
            assert grid_best > 1e-2
        agreements += 1
    report(7, f"witnesses for the empty mask, certified absence for {{m+}} "
              f"(10 samples); grid oracle agrees on {agreements} small instances")


def test_criterion_8_conservation():
    worst = 0.0
    runs = 0
    for n in (1, 3, 8, 21):
        for atom in haar_random_atoms(5, seed=n):
            out = run_mz_chain(n, atom)
            total = out.success_prob + out.failure_prob + out.absorbed_prob
            worst = max(worst, abs(total - 1.0))
            runs += 1
    for r in (0.4, 0.9):
        t = math.sqrt(1 - r * r)
        for atom in haar_random_atoms(3, seed=77) + [AtomSpec(present=False)]:
            out = run_fabry_perot(r, t, r, t, atom, eps=1e-22)
            total = out.success_prob + out.failure_prob + out.absorbed_prob
            worst = max(worst, abs(total - 1.0))
            runs += 1
    for atom in haar_random_atoms(5, seed=88):
        out = run_two_pass(atom)
        total = out.success_prob + out.failure_prob + out.absorbed_prob
        worst = max(worst, abs(total - 1.0))
        runs += 1
    assert worst <= 1e-10
    report(8, f"branch probabilities sum to 1 in {runs} runs (max dev {worst:.2e})")


def test_criterion_9_dsl_fidelity():
    mz_ast = dsl.parse(dsl.load_golden("mz"))
    atoms = haar_random_atoms(20, seed=505)
    worst = 0.0
    for n in range(1, 65):
        circuit = dsl.compile_circuit(mz_ast, {"N": n})
        expected = mz_closed_form(n)
        for atom in atoms:
            out = dsl.run_compiled(circuit, atom)
            worst = max(worst, abs(out.success_prob - expected))
    assert worst <= 1e-10

    fp_ast = dsl.parse(dsl.load_golden("fp"))
    atom = AtomSpec(0.6, 0.8)
    r = 0.9
    t = math.sqrt(1 - r * r)
    ref = run_fabry_perot(r, t, r, t, atom, eps=1e-22)
    circuit = dsl.compile_circuit(
        fp_ast, {"T": t, "R": r, "TP": t, "RP": r, "K": ref.details["round_trips"]}
    )
    out = dsl.run_compiled(circuit, atom, prob_tol=1e-9)
    assert abs(out.success_prob - ref.success_prob) <= 1e-10
    assert abs(out.failure_prob - ref.failure_prob) <= 1e-10
    worst_fp = 0.0
    for rr in (0.3, 0.7, 0.95):
        tt = math.sqrt(1 - rr * rr)
        empty = AtomSpec(present=False)
        ref = run_fabry_perot(rr, tt, rr, tt, empty, eps=1e-22)
        circuit = dsl.compile_circuit(
            fp_ast,
            {"T": tt, "R": rr, "TP": tt, "RP": rr, "K": ref.details["round_trips"]},
        )
        out = dsl.run_compiled(circuit, empty, prob_tol=1e-9)
        worst_fp = max(worst_fp, abs(out.failure_prob - ref.failure_prob))
    assert worst_fp <= 1e-10

    goldens = [dsl.load_golden(name) for name in ("mz", "fp", "direct")]
    rng = random.Random(20260823)
    fuzzed = [_random_source(rng) for _ in range(100)]
    for src in goldens + fuzzed:
        ast = dsl.parse(src)
        again = dsl.parse(dsl.print_circuit(ast))
        assert again == ast
    report(9, f"compiled circuits match library runners (chain dev {worst:.2e}, "
              f"cavity dev {worst_fp:.2e}); round-trip holds on 3 goldens + 100 fuzzed sources")
