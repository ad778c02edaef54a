"""Command line interface: output formats, determinism, exit codes."""

import json
import math
from pathlib import Path

import pytest

from nqisim import cli
from nqisim.cli import format_complex, main, parse_complex

PINNED = Path(__file__).parent / "pinned"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.6", 0.6),
            ("0.6+0.8i", 0.6 + 0.8j),
            ("-0.5i", -0.5j),
            ("1-1i", 1 - 1j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_round_trip(self):
        for z in (0.6 + 0.8j, -1.25j, 3.0, -0.5 - 0.5j):
            assert parse_complex(format_complex(z)) == pytest.approx(z)

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("zebra")


class TestMzSweep:
    def test_csv_header_and_values(self, capsys):
        code, out, err = run_cli(capsys, "mz-sweep", "--min", "2", "--max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n_stages,closed_form,")
        assert lines[1].startswith("2,0.25,")
        assert lines[2].startswith("3,0.421875,")

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = ("mz-sweep", "--min", "4", "--max", "5", "--atoms", "3", "--seed", "11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert first.splitlines()[0] == "# seed=11"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "mz-sweep", "--min", "2", "--max", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["success_prob"] == "0.25"
        assert doc["rows"][0]["fidelity"] == "1"

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "mz-sweep", "--min", "5", "--max", "2")
        assert code == 2
        assert "min <= max" in err

    def test_nan_amplitude_rejected(self, capsys):
        code, out, err = run_cli(capsys, "mz-sweep", "--min", "2", "--max", "2", "--alpha", "nan")
        assert code == 2
        assert out == ""
        assert "not normalized" in err

    def test_samples_and_no_atom_rejected(self, capsys):
        # --atoms draws present atoms; it used to override --no-atom silently.
        code, out, err = run_cli(capsys, "mz-sweep", "--max", "2", "--atoms", "2", "--no-atom")
        assert code == 2
        assert out == ""
        assert "cannot be combined with --no-atom" in err

    @pytest.mark.parametrize("amplitudes", [("--alpha", "1", "--beta", "0"), ("--beta", "0.6")])
    def test_samples_and_amplitudes_rejected(self, capsys, amplitudes):
        # --atoms draws random atoms; it used to drop the amplitudes silently.
        code, out, err = run_cli(capsys, "mz-sweep", "--max", "2", "--atoms", "1", *amplitudes)
        assert code == 2
        assert out == ""
        assert "cannot be combined with --alpha or --beta" in err

    def test_empty_chain_prints_exact_zeros(self, capsys):
        # Exact zeros print as 0 whatever residue the summation order leaves.
        code, out, _ = run_cli(capsys, "mz-sweep", "--min", "1", "--max", "3", "--no-atom")
        assert code == 0
        assert out.splitlines() == [
            "n_stages,closed_form,alpha,beta,success_prob,failure_prob,absorbed_prob,"
            "fidelity,exit_polarization",
            "1,0,,,0,1,0,,-",
            "2,0.25,,,0,1,0,,+",
            "3,0.421875,,,0,1,0,,-",
        ]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "mz-sweep", "--min", "2", "--max", "2", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n_stages,")

    def test_unwritable_output_file(self, capsys, tmp_path, monkeypatch):
        # Exit 1 is kept for conservation failures: a bad path is a usage
        # error, reported before any chain is run.
        calls = []
        monkeypatch.setattr(cli, "run_mz_chain", lambda *args: calls.append(args))
        target = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(capsys, "mz-sweep", "--min", "2", "--max", "2", "-o", str(target))
        assert code == 2
        assert out == ""
        assert calls == []
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    # Seeded sweeps print the same bytes whatever order the library sums
    # the branch probabilities in.
    def test_pinned_criterion_one_grid(self, capsys):
        argv = ("mz-sweep", "--min", "1", "--max", "64", "--atoms", "3", "--seed", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (PINNED / "mz-sweep-min1-max64-atoms3-seed3.csv").read_text()

    def test_pinned_long_chain(self, capsys):
        argv = ("mz-sweep", "--min", "2000", "--max", "2000", "--atoms", "3", "--seed", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            "# seed=3",
            "n_stages,closed_form,alpha,beta,success_prob,failure_prob,absorbed_prob,"
            "fidelity,exit_polarization",
            "2000,0.998767060019,0.610006183976+0.12496471778i,-0.763857546797-0.169699508022i,"
            "0.998767060019,0,0.00123293998115,1,+",
            "2000,0.998767060019,-0.216148281674-0.964580169307i,-0.102951572327-0.110751934812i,"
            "0.998767060019,0,0.00123293998115,1,+",
            "2000,0.998767060019,-0.250117502452+0.0652708394456i,0.960619253852-0.101939205483i,"
            "0.998767060019,0,0.00123293998115,1,+",
        ]


class TestFp:
    def test_symmetric_cavity_with_atom(self, capsys):
        code, out, _ = run_cli(
            capsys, "fp", "--r", "0.9", "--alpha", "0.6", "--beta", "0.8"
        )
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert float(row["success_prob"]) == pytest.approx(0.81, abs=1e-10)
        assert float(row["fidelity"]) == pytest.approx(1.0, abs=1e-10)
        assert row["exit_polarization"] == "x"
        assert row["round_trips"] == "1"

    def test_no_atom_transmission(self, capsys):
        code, out, _ = run_cli(capsys, "fp", "--r", "0.7", "--no-atom", "--eps", "1e-22")
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert float(row["transmitted"]) == pytest.approx(1.0, abs=1e-9)
        assert row["alpha"] == ""

    def test_empty_high_finesse_cavity_pinned(self, capsys):
        # An empty cavity reflects nothing: reflected and success print 0.
        code, out, _ = run_cli(capsys, "fp", "--r", "0.99", "--no-atom")
        assert code == 0
        assert out.splitlines() == [
            "r,t,r_prime,t_prime,round_trips,reflected,transmitted,alpha,beta,"
            "success_prob,failure_prob,absorbed_prob,fidelity,exit_polarization",
            "0.99,0.141067359797,0.99,0.141067359797,591,0,1,,,0,1,0,,y",
        ]

    def test_default_eps_leaves_nothing_inside(self, capsys):
        # eps sets only the round-trip count: at the default 1e-12 the
        # cavity still empties completely into the transmitted port.
        code, out, _ = run_cli(capsys, "fp", "--r", "0.9", "--no-atom")
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert row["transmitted"] == "1"
        assert row["exit_polarization"] == "y"
        assert row["round_trips"] == "63"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--r", "nan"), "mirror is not unitary"),
            (("--r", "0.9", "--eps", "0"), "eps must be positive"),
            (("--r", "0.9", "--eps", "nan"), "eps must be positive"),
            (("--r", "-0.5"), "entry mirror amplitudes must be non-negative"),
            (("--r", "0.9", "--r-prime", "-0.9"), "far mirror amplitudes must be non-negative"),
        ],
    )
    def test_bad_numbers_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "fp", *argv)
        assert code == 2
        assert out == ""
        assert message in err


class TestDirect:
    def test_amplitude_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "direct", "--alpha", "0.6", "--beta", "0.8"
        )
        assert code == 0
        rows = dict(
            (tuple(line.split(",")[:2]), line.split(",")[2])
            for line in out.strip().splitlines()[1:]
        )
        s = 1 / math.sqrt(2)
        assert parse_complex(rows[("a:+", "m-")]) == pytest.approx(-0.8 * s)
        assert parse_complex(rows[("a:-", "m+")]) == pytest.approx(0.6 * s)
        assert parse_complex(rows[("S+", "g")]) == pytest.approx(-0.6 * s)
        assert parse_complex(rows[("S-", "g")]) == pytest.approx(0.8 * s)

    def test_bad_polarization(self, capsys):
        code, _, err = run_cli(capsys, "direct", "--pol", "q")
        assert code == 2
        assert "unknown polarization" in err

    @pytest.mark.parametrize(
        "argv,same_as",
        [
            # Squaring 1e200 overflows and squaring 3e-170 underflows; the
            # norm must do neither.
            (("--alpha", "1e200", "--beta", "1e200"), ()),
            (("--alpha", "3e-170", "--beta", "4e-170"), ("--alpha", "0.6", "--beta", "0.8")),
        ],
    )
    def test_extreme_amplitudes_normalize(self, capsys, argv, same_as):
        code, out, err = run_cli(capsys, "direct", *argv)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "direct", *same_as)[1]


class TestNogoCheck:
    def test_masks_and_seed_header(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "nogo-check", "--stages", "4", "--mask", "none", "--mask", "m+",
            "--atoms", "2", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# seed=7"
        body = [line.split(",") for line in lines[2:]]
        empty_rows = [r for r in body if r[0] == "none"]
        masked_rows = [r for r in body if r[0] == "m+"]
        assert all(r[3] == "yes" for r in empty_rows)
        assert all(r[3] == "no" for r in masked_rows)

    EIGHT_STAGES = [
        "# seed=0",
        "mask,alpha,beta,witness,residual,delta_sq",
        "none,0.186516876395+0.95004710319i,-0.195973460027+0.155616064417i,yes,0,0.733133440547",
        "none,-0.308494933051+0.750980785493i,0.20824457743+0.545429126535i,yes,0,0.733133440547",
        "none,-0.446268676989-0.395245051896i,-0.802457994119+0.0262065748454i,yes,0,0.733133440547",
        "none,-0.846605715283-0.453669405233i,-0.0796678801683-0.266638073943i,yes,0,0.733133440547",
        "none,-0.423379621294+0.320207816669i,-0.246050216233+0.810972219937i,yes,0,0.733133440547",
        "none,-0.082121356152-0.424995774997i,0.873039464713+0.224581315234i,yes,0,0.733133440547",
        "none,0.605352488414-0.498167100443i,0.0629910975999-0.617584023782i,yes,0,0.733133440547",
        "none,-0.398235992702-0.878399856475i,0.191576744562-0.181989387613i,yes,0,0.733133440547",
        "none,-0.227409808931+0.30658242735i,0.7724514581+0.507553680828i,yes,0,0.733133440547",
        "none,-0.36050871202+0.432269226057i,-0.0714665027956+0.823449648576i,yes,0,0.733133440547",
        "m+,0.186516876395+0.95004710319i,-0.195973460027+0.155616064417i,no,0.968182856417,",
        "m+,-0.308494933051+0.750980785493i,0.20824457743+0.545429126535i,no,0.811875152901,",
        "m+,-0.446268676989-0.395245051896i,-0.802457994119+0.0262065748454i,no,0.596132856928,",
        "m+,-0.846605715283-0.453669405233i,-0.0796678801683-0.266638073943i,no,0.96049839479,",
        "m+,-0.423379621294+0.320207816669i,-0.246050216233+0.810972219937i,no,0.530832694531,",
        "m+,-0.082121356152-0.424995774997i,0.873039464713+0.224581315234i,no,0.432857165704,",
        "m+,0.605352488414-0.498167100443i,0.0629910975999-0.617584023782i,no,0.783978376737,",
        "m+,-0.398235992702-0.878399856475i,0.191576744562-0.181989387613i,no,0.964457471193,",
        "m+,-0.227409808931+0.30658242735i,0.7724514581+0.507553680828i,no,0.38171718059,",
        "m+,-0.36050871202+0.432269226057i,-0.0714665027956+0.823449648576i,no,0.56287051374,",
    ]

    def test_pinned_output_at_eight_stages(self, capsys):
        code, out, _ = run_cli(
            capsys, "nogo-check", "--stages", "8", "--mask", "none", "--mask", "m+"
        )
        assert code == 0
        # A witness row's residual is roundoff, below the printed resolution.
        assert out.strip().splitlines() == self.EIGHT_STAGES

    def test_pinned_output_at_the_benchmark_size(self, capsys):
        # The witness scan's chain, 150 stages, at every mask kind: each
        # decision, residual and |delta|^2 byte for byte.
        argv = ["nogo-check", "--stages", "150", "--atoms", "10", "--seed", "0"]
        for mask in ("none", "m+", "m-", "m+,m-", "g"):
            argv += ["--mask", mask]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (PINNED / "nogo-check-stages150-masks5-atoms10-seed0.csv").read_text()

    def test_mask_levels_joined_by_a_space(self, capsys):
        # Level names hold '+' and '-', so '+' would make m+,m- read "m++m-".
        code, out, _ = run_cli(
            capsys, "nogo-check", "--stages", "2", "--mask", "m+,m-", "--mask", "m-,g",
            "--atoms", "1",
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[2:]] == ["m+ m-", "g m-"]

    def test_unknown_level_rejected(self, capsys):
        code, _, err = run_cli(capsys, "nogo-check", "--mask", "bogus")
        assert code == 2
        assert "unknown atom levels" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("nogo-check", "--atoms", "0"),
        ("nogo-check", "--atoms", "-3"),
        ("nogo-check", "--mask", "m*", "--atoms", "0"),
        ("mz-sweep", "--max", "2", "--atoms", "0"),
        ("mz-sweep", "--max", "2", "--atoms", "-1"),
    ],
)
def test_fewer_than_one_atom_sample_rejected(capsys, argv):
    # An empty sample prints an empty table and checks nothing.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--atoms must be at least 1" in err


class TestRun:
    def test_bundled_circuit_with_binding(self, capsys):
        code, out, _ = run_cli(capsys, "run", "mz", "--bind", "N=4")
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert float(row["success_prob"]) == pytest.approx(0.530790042945, abs=1e-10)

    def test_bundled_twopass(self, capsys):
        code, out, _ = run_cli(capsys, "run", "twopass", "--alpha", "0.6", "--beta", "0.8")
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert float(row["absorbed_prob"]) == pytest.approx(1.0, abs=1e-12)

    def test_print_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "run", "mz", "--print")
        assert code == 0
        assert out.startswith("paths l u\n")
        assert "repeat N {" in out

    def test_file_circuit(self, capsys, tmp_path):
        circuit = tmp_path / "tiny.nqi"
        circuit.write_text(
            "paths a\nsinks S+ S-\natom-levels m+ m- g\ninput a +\n"
            "atom a\nclassify a=failure sinks=absorbed\n"
        )
        code, out, _ = run_cli(
            capsys, "run", str(circuit), "--alpha", "0.6", "--beta", "0.8"
        )
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert float(row["absorbed_prob"]) == pytest.approx(0.36, abs=1e-12)

    def test_missing_circuit_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "nope.nqi")
        assert code == 2
        assert "no such circuit" in err

    def test_directory_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {tmp_path}: ")

    def test_non_utf8_file_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.nqi"
        bad.write_bytes(b"paths a\n\xff\n")
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: ")
        assert "can't decode byte 0xff" in err

    def test_missing_binding(self, capsys):
        code, _, err = run_cli(capsys, "run", "mz")
        assert code == 2
        assert "unbound parameter: N" in err

    def test_malformed_binding(self, capsys):
        code, _, err = run_cli(capsys, "run", "mz", "--bind", "N")
        assert code == 2
        assert "malformed binding" in err

    def test_binding_of_pi_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "run", "mz", "--bind", "N=3", "--bind", "pi=0")
        assert code == 2
        assert "cannot bind built-in pi" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_repeat_count(self, capsys, value):
        code, _, err = run_cli(capsys, "run", "mz", "--bind", f"N={value}")
        assert code == 2
        assert "positive integer" in err

    def test_non_finite_element_parameter_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.nqi"
        bad.write_text(
            "paths a\nsinks S+ S-\natom-levels m+ m- g\ninput a x\n"
            "phase a sin(1e400)\nclassify a=failure sinks=absorbed\n"
        )
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert out == ""
        assert "line 5: sin(inf) is undefined" in err

    def test_print_overflowing_literal(self, capsys, tmp_path):
        # The canonical form keeps the overflow, so compiling it still fails
        # at the line.
        bad = tmp_path / "bad.nqi"
        bad.write_text(
            "paths a\nsinks S+ S-\natom-levels m+ m- g\ninput a x\n"
            "phase a 1e400\nclassify a=failure sinks=absorbed\n"
        )
        code, out, _ = run_cli(capsys, "run", str(bad), "--print")
        assert code == 0
        assert "phase a 1e400\n" in out
        bad.write_text(out)
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert "line 5: phase is not finite: inf" in err

    def test_relabel_onto_itself_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.nqi"
        bad.write_text(
            "paths a\nsinks S+ S-\natom-levels m+ m- g\ninput a x\n"
            "relabel a -> a\nclassify a=failure sinks=absorbed\n"
        )
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert out == ""
        assert "line 5: relabel needs two distinct paths" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.nqi"
        bad.write_text("paths a\nwhat now\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert "unknown keyword" in err

    def test_unknown_branch_label_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.nqi"
        bad.write_text(
            "paths a\nsinks S+ S-\natom-levels m+ m- g\ninput a x\n"
            "atom a\nclassify a=win sinks=absorbed\n"
        )
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert "line 6" in err
        assert "unknown branch label: win" in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_prob_tol_exit_code(self, capsys, value):
        code, _, err = run_cli(capsys, "run", "direct", "--prob-tol", value)
        assert code == 2
        assert "prob_tol must be finite and non-negative" in err

    def test_conservation_failure_exit_code(self, capsys, monkeypatch):
        import nqisim.cli as cli
        from nqisim.protocols import ConservationError

        def boom(*args, **kwargs):
            raise ConservationError("branch probabilities sum to 0.5, expected 1")

        monkeypatch.setattr(cli, "run_mz_chain", boom)
        code, _, err = run_cli(capsys, "mz-sweep", "--min", "2", "--max", "2")
        assert code == 1
        assert "sum to" in err
