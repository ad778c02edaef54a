"""Basis layout, joint states, branching, and product factoring."""

import math
import pickle
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nqisim.state import (
    POL_STATES,
    AtomSpec,
    SinkLog,
    _branch_factors,
    _exit_label,
    _rank_one,
    fidelity,
    initial_state,
    make_layout,
    partition_branches,
    product_factors,
    sink_pair_labels,
    JointState,
)
from nqisim.tolerances import RANK_TOL

LEVELS = ["m+", "m-", "g"]


def small_layout():
    return make_layout(["l", "u"], ["S+", "S-"], LEVELS)


def state_of(layout, *terms):
    """The state with amplitude ``coeff`` on each ``(coeff, mode, level)``."""
    amps = np.zeros(layout.dim, dtype=complex)
    for coeff, mode, level in terms:
        amps[layout.index(mode, level)] += coeff
    return JointState(layout, amps)


def random_state(layout, rng):
    z = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return JointState(layout, z / np.linalg.norm(z))


class TestLayout:
    def test_index_convention(self):
        # [TRIVIAL] index = photon_index * n_levels + level_index, sinks last
        layout = small_layout()
        assert layout.photon_modes == (
            ("l", "+"), ("l", "-"), ("u", "+"), ("u", "-"), "S+", "S-",
        )
        assert layout.n_photon_modes == 6
        assert layout.n_levels == 3
        assert layout.dim == 18
        assert layout.index(("u", "-"), "g") == 3 * 3 + 2
        assert layout.index("S+", "m+") == 4 * 3 + 0

    def test_path_block_is_two_adjacent_rows(self):
        # Path i owns photon rows 2i (+) and 2i + 1 (-).
        layout = small_layout()
        assert layout.path_block == {"l": slice(0, 2), "u": slice(2, 4)}
        for path, block in layout.path_block.items():
            rows = [layout.photon_index((path, pol)) for pol in layout.polarizations]
            assert rows == list(range(block.start, block.stop))

    def test_unknown_labels_raise(self):
        layout = small_layout()
        with pytest.raises(ValueError, match="unknown photon mode"):
            layout.photon_index(("x", "+"))
        with pytest.raises(ValueError, match="unknown atom level"):
            layout.level_index("e")

    def test_unknown_sink_indexes_nothing(self):
        # Sinks given as labels are indexed once; a miss adds nothing.
        layout = make_layout(["l", "u"], [f"S{i}" for i in range(8000)], LEVELS)
        assert layout.photon_index("S2") == 6
        indexed = len(layout._photon_index)
        with pytest.raises(ValueError, match="unknown photon mode: 'S#bogus'"):
            layout.photon_index("S#bogus")
        assert len(layout._photon_index) == indexed
        assert layout.photon_index("S7999") == 8003

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate path label: 'l'"):
            make_layout(["l", "l"], [], LEVELS)
        with pytest.raises(ValueError, match="duplicate sink"):
            make_layout(["l"], ["S", "S"], LEVELS)

    @pytest.mark.parametrize("levels", [["g", "m+", "m-"], ["m+", "m-", "g", "e"], ["m+", "m-"]])
    def test_atom_levels_are_fixed(self, levels):
        # m+, m- and g are columns 0, 1 and 2 of every layout.
        with pytest.raises(ValueError, match="atom levels must be"):
            make_layout(["l"], [], levels)
        layout = make_layout(["l"], [])
        assert layout == make_layout(["l"], [], LEVELS)
        assert [layout.level_index(level) for level in LEVELS] == [0, 1, 2]

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            make_layout([], ["S"], LEVELS)
        with pytest.raises(ValueError):
            make_layout(["l"], [], [])

    def test_equal_layouts_hash_equal(self):
        # The hash is taken once per layout; equality still compares labels.
        sinks = [f"S{i}" for i in range(8000)]
        layout = make_layout(["l", "u"], sinks, LEVELS)
        again = make_layout(["l", "u"], list(sinks), LEVELS)
        assert layout == again and layout is not again
        assert hash(layout) == hash(again) == hash(layout)
        assert {layout: "found"}[again] == "found"
        assert layout != make_layout(["l", "u"], sinks[:-1] + ["T"], LEVELS)
        copy = pickle.loads(pickle.dumps(layout))
        assert copy == layout and {copy: "found"}[layout] == "found"
        assert "_hash" not in layout.__getstate__()


def written_out(pairs, bases=("S+", "S-")):
    """The labels of ``pairs`` interactions, one ``sink_pair_labels`` each."""
    return [label for k in range(pairs) for label in sink_pair_labels(k, *bases)]


class TestSinkLog:
    # A compiled program's sinks: two base labels and a number of pairs,
    # each label named on demand and found by arithmetic.
    MALFORMED = [
        "S+#1", "S+#0", "S+#02", "S+#1_0", "S+#+3", "S+# 3", "S+#", "S+#3 ",
        "S+#\u0663",  # an Arabic-Indic 3, which int() reads as 3
        "S-#1", "S-#02", "S+#8", "S-#8", "S+#2#2", "T+", "S", "s+", "",
    ]

    @pytest.mark.parametrize("pairs", [1, 2, 7, 2000])
    def test_labels_are_the_naming_rule_written_out(self, pairs):
        log = SinkLog("S+", "S-", pairs)
        labels = written_out(pairs)
        assert len(log) == len(labels) == 2 * pairs
        assert list(log) == labels
        assert [log[i] for i in range(-len(labels), len(labels))] == labels + labels
        for cut in (slice(None), slice(None, None, 2), slice(1, 7), slice(None, None, -3)):
            assert log[cut] == tuple(labels[cut])
        assert log == tuple(labels) and tuple(labels) == log
        assert log != tuple(labels[:-1]) and log != tuple(labels[:-1] + ["T"])
        assert hash(log) == hash(tuple(labels))
        with pytest.raises(IndexError):
            log[2 * pairs]

    @pytest.mark.parametrize("pairs", [1, 2, 7, 2000])
    def test_photon_index_of_every_label_is_its_row(self, pairs):
        log = SinkLog("S+", "S-", pairs)
        layout = make_layout(["l", "u"], log, LEVELS)
        assert layout.sinks is log and layout.n_photon_modes == 4 + 2 * pairs
        for row, label in enumerate(written_out(pairs)):
            assert label in log and log.index(label) == row
            assert layout.photon_index(label) == 4 + row
        assert layout.photon_index(("u", "-")) == 3
        assert layout.photon_modes[4:] == tuple(log)

    def test_index_honours_its_bounds(self):
        log = SinkLog("S+", "S-", 7)
        assert log.index("S-#3", 5) == 5
        with pytest.raises(ValueError):
            log.index("S-#3", 6)
        with pytest.raises(ValueError):
            log.index("S-#3", 0, 5)
        assert log.index("S-#3", -9, -8) == 5

    @pytest.mark.parametrize("label", MALFORMED)
    def test_only_the_labels_it_names_are_known(self, label):
        log = SinkLog("S+", "S-", 7)
        layout = make_layout(["l", "u"], log, LEVELS)
        assert label not in log
        with pytest.raises(ValueError, match="unknown photon mode"):
            layout.photon_index(label)

    def test_colliding_bases_are_refused(self):
        # A base may hold '#': S and S#2 both name S#2 once there are two
        # pairs, and never with one.
        for bases in (("S", "S#2"), ("S#2", "S")):
            with pytest.raises(ValueError, match="duplicate sink label: 'S#2'"):
                SinkLog(*bases, 2)
            assert list(SinkLog(*bases, 1)) == list(bases)
        with pytest.raises(ValueError, match="duplicate sink label: 'S'"):
            SinkLog("S", "S", 1)
        with pytest.raises(ValueError, match="at least one pair"):
            SinkLog("S+", "S-", 0)
        log = SinkLog("S", "S#3", 2)
        assert list(log) == ["S", "S#3", "S#2", "S#3#2"]
        assert [log.index(label) for label in log] == [0, 1, 2, 3]

    def test_pickled_log_equals_the_written_out_layout(self):
        log = SinkLog("S+", "S-", 2000)
        layout = make_layout(["l", "u"], log, LEVELS)
        explicit = make_layout(["l", "u"], written_out(2000), LEVELS)
        assert isinstance(explicit.sinks, tuple)
        assert layout == explicit and explicit == layout
        assert hash(layout) == hash(explicit)
        assert {explicit: "found"}[layout] == {layout: "found"}[explicit] == "found"
        assert layout != make_layout(["l", "u"], SinkLog("S+", "S-", 1999), LEVELS)
        assert layout != make_layout(["l", "u"], SinkLog("P", "M", 2000), LEVELS)
        copy = pickle.loads(pickle.dumps(layout))
        assert isinstance(copy.sinks, SinkLog) and copy.sinks is not log
        assert copy == layout == explicit and hash(copy) == hash(explicit)


class TestStates:
    def test_matrix_is_a_view(self):
        layout = small_layout()
        state = state_of(layout, (1.0, "S+", "g"))
        mat = state.matrix()
        assert mat.shape == (6, 3)
        assert mat[layout.photon_index("S+"), layout.level_index("g")] == 1.0


class TestFidelity:
    def test_identical_states(self):
        v = np.array([0.6, 0.8j])
        assert fidelity(v, v) == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        v = np.array([0.6, 0.8j])
        assert fidelity(v, np.exp(1.3j) * v) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity(np.array([1.0, 0]), np.array([0, 1.0])) == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            fidelity(np.array([2.0, 0]), np.array([1.0, 0]))
        with pytest.raises(ValueError, match="argument b is not normalized"):
            fidelity(np.array([1.0, 0]), np.array([np.nan, 0]))


class TestInitialState:
    def test_unknown_polarization_rejected(self):
        with pytest.raises(ValueError, match="unknown polarization: 'z'"):
            initial_state(small_layout(), "l", "z", AtomSpec())


class TestPartition:
    def test_probabilities_add_up(self):
        layout = small_layout()
        rng = np.random.default_rng(11)
        state = random_state(layout, rng)
        rows = {
            "absorbed": np.array([4, 5]),
            "failure": np.array([2, 3]),
            "success": np.array([0, 1]),
        }
        branches = partition_branches(state, rows)
        assert [b.label for b in branches] == ["absorbed", "failure", "success"]
        assert sum(b.probability for b in branches) == pytest.approx(state.norm2)

    def test_branches_are_disjoint(self):
        layout = small_layout()
        state = random_state(layout, np.random.default_rng(12))
        branches = partition_branches(state, {"a": np.array([4, 5]), "b": np.arange(4)})
        overlap = np.vdot(branches[0].state.amplitudes, branches[1].state.amplitudes)
        assert abs(overlap) == 0.0


class TestProductFactors:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_product_states_factor(self, seed):
        # [DERIVED] photon (x) atom product states are rank one; the factors
        # reassemble the state up to the norm.
        layout = small_layout()
        rng = np.random.default_rng(seed)
        photon = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        atom = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mat = np.outer(photon, atom)
        state = JointState(layout, mat.reshape(-1))
        p, a = product_factors(state)
        rebuilt = np.sqrt(state.norm2) * np.outer(p, a)
        phase = np.vdot(rebuilt.reshape(-1), state.amplitudes)
        phase /= abs(phase)
        assert np.allclose(phase * rebuilt, mat, atol=1e-10)

    def test_entangled_state_raises(self):
        layout = small_layout()
        state = state_of(layout, (1.0, ("l", "+"), "m+"), (1.0, ("u", "+"), "m-"))
        with pytest.raises(ValueError, match="not a photon-atom product"):
            product_factors(state)

    def test_zero_state_raises(self):
        layout = small_layout()
        state = JointState(layout, np.zeros(layout.dim))
        with pytest.raises(ValueError, match="zero state"):
            product_factors(state)

    def test_large_product_factors_in_thin_memory(self):
        # A full SVD would allocate a 4000 x 4000 complex u (256 MB).
        layout = make_layout(["a"], [f"S{i}" for i in range(3998)], ["m+", "m-", "g"])
        assert layout.n_photon_modes == 4000
        rng = np.random.default_rng(3)
        photon = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        photon /= np.linalg.norm(photon)
        atom = np.array([0.6, 0.8j, 0.0])
        state = JointState(layout, np.outer(photon, atom).reshape(-1))
        tracemalloc.start()
        try:
            p, a = product_factors(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert abs(np.vdot(p, photon)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(a, atom)) == pytest.approx(1.0, abs=1e-12)


def structured_block(rng):
    """A random branch block as a compiled run scores it: a layout, the
    branch's photon rows (some whole paths, then maybe every sink row) and
    the block, m+ and m- on the path rows and g on the sink rows.

    The path part has singular values ``scale`` times 1 and ``second``: a
    photon times an atom that may be one level or nearly so, plus an
    orthogonal product at 0.5 or 2 times RANK_TOL or far above it.  The
    sink column is empty, below or above RANK_TOL, or leading; no two
    singular values tie.
    """
    n_paths, n_sinks = int(rng.integers(1, 5)), int(rng.choice([0, 2, 6]))
    layout = make_layout([f"p{i}" for i in range(n_paths)], [f"S{i}" for i in range(n_sinks)], LEVELS)
    chosen = sorted(rng.choice(n_paths, size=int(rng.integers(1, n_paths + 1)), replace=False))
    rows = [r for i in chosen for r in (2 * i, 2 * i + 1)]
    n = len(rows)
    if n_sinks and rng.random() < 0.5:
        rows += list(range(2 * n_paths, 2 * n_paths + n_sinks))

    def unit(size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z / np.linalg.norm(z)

    photon = unit(n)
    if rng.random() < 0.6:  # confined to one path, often in a named polarization
        k = int(rng.integers(len(chosen)))
        labels = list(POL_STATES) + ["random"]
        pol = labels[int(rng.integers(len(labels)))]
        photon = np.zeros(n, dtype=complex)
        photon[2 * k : 2 * k + 2] = unit(2) if pol == "random" else POL_STATES[pol] * unit(1)
    small = float(rng.choice([rng.uniform(0.1, 1.0), 1e-6, 1e-12, 0.0]))
    phases = unit(2)
    phases /= np.abs(phases)
    atom = np.array([small, math.sqrt(1 - small * small)])[:: int(rng.choice([1, -1]))] * phases
    other_atom = np.array([-atom[1].conjugate(), atom[0].conjugate()])
    other = unit(n)
    other -= np.vdot(photon, other) * photon
    other /= np.linalg.norm(other)
    second = float(rng.choice([0.0, 0.5 * RANK_TOL, 2 * RANK_TOL, 0.3]))
    scale = float(rng.choice([1.0, 1.0, 0.5 * RANK_TOL, 0.0]))
    amps = np.zeros((len(rows), 3), dtype=complex)
    amps[:n, :2] = scale * (np.outer(photon, atom) + second * np.outer(other, other_atom))
    if len(rows) > n:
        amps[n:, 2] = float(rng.choice([0.0, 0.3 * RANK_TOL, 2 * RANK_TOL, 1.0])) * unit(len(rows) - n)
    return layout, np.array(rows), amps


def _error_kind(run):
    try:
        run()
    except ValueError as exc:
        return str(exc).split(" (")[0]
    return None


def _factor_deviation(photon, atom, want_photon, want_atom, paths):
    """The largest deviation of the atom factor and of the photon factor's
    ``paths`` rows from the reference factors, up to a global phase."""
    phase = np.vdot(want_atom, atom)
    phase /= abs(phase)
    dev = np.abs(photon - want_photon / phase)[paths]
    return max(np.max(np.abs(atom - phase * want_atom)), np.max(dev, initial=0.0))


def _exact_rank_one(amps):
    """The leading singular vectors of ``amps`` from a 50-digit SVD, each
    entry rounded once to a complex double."""
    with mpmath.workdps(50):
        u, _, v = mpmath.svd_c(mpmath.matrix(amps.tolist()))
        photon = [complex(u[i, 0]) for i in range(u.rows)]
        atom = [complex(v[0, j]) for j in range(v.cols)]
    return np.array(photon), np.array(atom)


class TestBranchFactors:
    def test_agrees_with_the_svd(self):
        # [DERIVED] oracle: the leading singular vectors of the whole block.
        rng = np.random.default_rng(2027)
        outcomes, labels = {}, set()
        for _ in range(2000):
            layout, rows, amps = structured_block(rng)
            kind = _error_kind(lambda: _rank_one(amps))
            assert _error_kind(lambda: _branch_factors(layout, rows, amps)) == kind, amps
            outcomes[kind] = outcomes.get(kind, 0) + 1
            if kind is not None:
                continue
            photon, atom = _branch_factors(layout, rows, amps)
            # The photon factor comes as (photon row, amplitude) pairs on the
            # non-zero path rows alone; the sink rows name no exit.
            paths = rows < 2 * len(layout.paths)
            got = dict(zip(rows.tolist(), [0j] * len(rows)))
            got.update(photon)
            got = np.array(list(got.values()))
            want_photon, want_atom = _rank_one(amps)
            if _factor_deviation(got, atom, want_photon, want_atom, paths) > 1e-15:
                # numpy's SVD rounds too, by more than 1e-15 on some BLAS
                # kernels (OPENBLAS_CORETYPE=Prescott): there the closed form
                # is judged against the exact factors instead.
                want_photon, want_atom = _exact_rank_one(amps)
            assert _factor_deviation(got, atom, want_photon, want_atom, paths) <= 1e-15, amps
            label = _exit_label(photon)
            assert label == _exit_label(list(zip(rows[paths].tolist(), want_photon[paths]))), amps
            labels.add(label)
        assert set(outcomes) == {None, "state is not a photon-atom product", "cannot factor the zero state"}
        assert labels == {"+", "-", "x", "y", "mixed", "none"}

    @pytest.mark.parametrize(
        "row, level, where",
        [(0, 2, "photon row 0 has amplitude at level 'g'"), (4, 0, "photon row 4 has amplitude at level 'm+'"),
         (5, 1, "photon row 5 has amplitude at level 'm-'")],
    )
    def test_amplitude_off_its_levels_is_rejected(self, row, level, where):
        # Path rows hold m+ and m-, sink rows g.
        layout = small_layout()
        amps = np.zeros((6, 3), dtype=complex)
        amps[0, :2] = 0.6, 0.8
        amps[row, level] += 1e-300
        with pytest.raises(ValueError, match=re.escape(where)):
            _branch_factors(layout, np.arange(6), amps)
