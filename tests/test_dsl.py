"""Circuit language: parser, canonical printer, compiler, golden circuits."""

import dataclasses
import gc
import itertools
import math
import random
import string
import tracemalloc
import weakref

import numpy as np
import pytest

from nqisim import dsl, elements, protocols, state
from nqisim.dsl import (
    CompileError,
    ParseError,
    compile_circuit,
    load_golden,
    parse,
    parse_expr,
    print_circuit,
    run_compiled,
)
from nqisim.elements import (
    POL_FLIP,
    AtomInteraction,
    BeamSplitter,
    Mirror,
    PolRotator,
    Relabel,
    propagate,
    run_sequence,
)
from nqisim.state import (
    ABSENT_MASK,
    POL_STATES,
    ConservationError,
    JointState,
    _exit_label,
    _rank_one,
    assemble_outcome,
    initial_state,
    make_layout,
)
from nqisim.tolerances import PROB_TOL
from nqisim.protocols import (
    AtomSpec,
    build_mz,
    haar_random_atoms,
    mz_closed_form,
    run_fabry_perot,
    run_mz_chain,
)

MINIMAL = """\
paths a
sinks S+ S-
atom-levels m+ m- g
input a x
atom a
classify a=failure sinks=absorbed
"""


class TestExpressions:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2.0),
            ("1+2*3", 7.0),
            ("(1+2)*3", 9.0),
            ("-4/2", -2.0),
            ("sin(pi/2)", 1.0),
            ("cos(0)", 1.0),
            ("2-3-4", -5.0),
            ("1e-3", 0.001),
        ],
    )
    def test_arithmetic(self, text, expected):
        expr = parse_expr(text)
        assert dsl.eval_expr(expr, {}, 1) == pytest.approx(expected)

    def test_parameters(self):
        expr = parse_expr("sin(pi/(2*N))")
        assert dsl.eval_expr(expr, {"N": 2}, 1) == pytest.approx(math.sin(math.pi / 4))

    def test_unbound_parameter_named(self):
        with pytest.raises(CompileError, match="unbound parameter: Q"):
            dsl.eval_expr(parse_expr("Q+1"), {}, 7)

    def test_bad_tokens_located(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1 + $", line=3, col_offset=10)
        assert exc.value.line == 3
        assert exc.value.column == 15

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse_expr("(1+2")

    def test_print_reparses_to_same_tree(self):
        for text in ["1+2*3", "-(a+b)/c", "sin(pi/(2*N))-cos(x)*2"]:
            expr = parse_expr(text)
            assert parse_expr(dsl.print_expr(expr)) == expr

    @pytest.mark.parametrize(
        "text", ["7", "2.5e-3", "9e999", "-h", "-1", "pi", "-pi", "N_2", "sin", "-cos", "2N", "- h", " h"]
    )
    def test_a_lone_token_parses_as_the_full_grammar_does(self, text):
        # parse_expr reads a lone number or name, negated or not, without
        # tokenizing it; the tree, or the located error, is the grammar's.
        def outcome(parse):
            try:
                return parse()
            except ParseError as exc:
                return exc.line, exc.column, exc.message, exc.token

        want = outcome(lambda: dsl._ExprParser(text, 4, 9).parse())
        assert outcome(lambda: parse_expr(text, 4, 9)) == want


class TestParser:
    def test_minimal_circuit(self):
        ast = parse(MINIMAL)
        assert ast.paths == ("a",)
        assert ast.sinks == ("S+", "S-")
        assert ast.input_path == "a"
        assert ast.input_pol == "x"
        assert ast.classifier == (("a", "failure"), ("sinks", "absorbed"))

    def test_comments_and_blank_lines_ignored(self):
        src = MINIMAL.replace("atom a", "# comment\n\natom a  # trailing")
        assert parse(src) == parse(MINIMAL)

    def test_undeclared_path_is_located(self):
        src = MINIMAL.replace("atom a", "atom b")
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert "undeclared path: b" in exc.value.message
        assert exc.value.line == 5
        lines = src.splitlines()
        assert 1 <= exc.value.line <= len(lines)
        assert 1 <= exc.value.column <= len(lines[exc.value.line - 1]) + 1

    def test_empty_source(self):
        with pytest.raises(ParseError, match="no declarations"):
            parse("")

    def test_missing_classify(self):
        src = "\n".join(MINIMAL.splitlines()[:-1]) + "\n"
        with pytest.raises(ParseError, match="missing classify"):
            parse(src)

    def test_missing_sinks(self):
        src = MINIMAL.replace("sinks S+ S-\n", "")
        with pytest.raises(ParseError, match="missing sinks statement"):
            parse(src)

    def test_duplicate_sinks(self):
        src = MINIMAL.replace("sinks S+ S-", "sinks S+ S-\nsinks T+ T-")
        with pytest.raises(ParseError, match="duplicate sinks statement") as exc:
            parse(src)
        assert exc.value.line == 3
        assert exc.value.token == "sinks"

    def test_missing_input(self):
        src = MINIMAL.replace("input a x\n", "")
        with pytest.raises(ParseError, match="missing input"):
            parse(src)

    def test_classify_must_cover_paths(self):
        src = MINIMAL.replace("paths a", "paths a b").replace(
            "classify a=failure sinks=absorbed", "classify a=failure sinks=absorbed"
        )
        with pytest.raises(ParseError, match="classify misses paths: b"):
            parse(src)

    def test_classify_requires_sinks(self):
        src = MINIMAL.replace("classify a=failure sinks=absorbed", "classify a=failure")
        with pytest.raises(ParseError, match="must assign sinks"):
            parse(src)

    def test_unclosed_repeat(self):
        src = MINIMAL + "repeat 2 {\natom a\n"
        with pytest.raises(ParseError, match="unclosed repeat"):
            parse(src)

    def test_unbalanced_close(self):
        src = MINIMAL.replace("atom a", "}")
        with pytest.raises(ParseError, match="unbalanced"):
            parse(src)

    def test_duplicate_labels(self):
        src = MINIMAL.replace("paths a", "paths a a")
        with pytest.raises(ParseError, match="duplicate label: a"):
            parse(src)

    @pytest.mark.parametrize("name", ["pi", "sin", "cos"])
    def test_let_of_a_builtin_is_located(self, name):
        # A let of pi would be ignored by every expression that reads pi.
        src = MINIMAL.replace("atom a", f"let {name} = 0\nphase a pi\natom a")
        with pytest.raises(ParseError, match=f"cannot redefine built-in {name}") as exc:
            parse(src)
        assert (exc.value.line, exc.value.column, exc.value.token) == (5, 5, name)

    def test_declarations_not_allowed_in_repeat(self):
        src = MINIMAL.replace("atom a", "repeat 2 {\npaths b\n}")
        with pytest.raises(ParseError, match="not allowed inside repeat"):
            parse(src)

    def test_unknown_keyword_located(self):
        src = MINIMAL.replace("atom a", "detector a")
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.token == "detector"
        assert exc.value.line == 5

    def test_malformed_bs(self):
        src = MINIMAL.replace("atom a", "bs a t=1")
        with pytest.raises(ParseError, match="malformed bs"):
            parse(src)

    def test_bad_polarization(self):
        src = MINIMAL.replace("input a x", "input a z")
        with pytest.raises(ParseError, match="unknown polarization: z"):
            parse(src)

    def test_unknown_branch_label(self):
        src = MINIMAL.replace("a=failure", "a=win")
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.message == (
            "unknown branch label: win (expected success, failure, absorbed)"
        )
        assert exc.value.line == 6
        assert exc.value.token == "a=win"
        assert exc.value.column == len("classify ") + 1

    @pytest.mark.parametrize(
        "statement,line,column,message",
        [
            # The second ``a``, not the one inside ``classify``.
            ("classify a=failure a=success b=failure p=failure sinks=absorbed", 6, 20,
             "duplicate classify port: a"),
            # The path, not the ``r`` inside ``mirror``.
            ("mirror r", 5, 8, "undeclared path: r"),
            # The third ``p``: expression offsets count from the raw line.
            ("phase p p p", 5, 11, "trailing tokens in expression"),
            # At the end of an expression: one past its last character.
            ("phase a (1", 5, 11, "unbalanced parentheses"),
            ("phase a 1 +", 5, 12, "expected a number, name, or parenthesized expression"),
            ("phase a sin", 5, 12, "sin needs an argument in parentheses"),
            # Indentation counts: bodies of bundled repeats are indented.
            ("repeat 2 {\n    bs a b t=0.6 r=0.8$\n}", 6, 23,
             "unexpected character in expression: '$'"),
            ("input a x", 5, 1, "duplicate input statement"),
            # The second binding's name, not its ``let``.
            ("let x = 1\nlet x = 2", 6, 5, "duplicate let binding: x"),
            ("atom a\nclassify a=failure b=failure p=failure sinks=absorbed", 7, 1,
             "duplicate classify statement"),
            # The ``)`` that closes matrix( early.
            ("rot a matrix(1, 0), 0, 1)", 5, 18, "unbalanced parentheses in matrix(...)"),
            ("paths", 5, 1, "empty path declaration"),
            ("atom-levels", 5, 1, "atom-levels must read m+ m- g"),
        ],
    )
    def test_errors_are_located_at_the_token(self, statement, line, column, message):
        src = MINIMAL.replace("paths a", "paths a b p").replace(
            "classify a=failure", "classify a=failure b=failure p=failure"
        )
        if statement.startswith("classify"):
            src = "\n".join(src.splitlines()[:-1] + [statement]) + "\n"
        else:
            src = src.replace("atom a", statement)
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)

    def test_atom_levels_must_name_the_atom_roles(self):
        # Every layout holds m+, m- and g in columns 0, 1 and 2, so the line
        # reads exactly that: no other level, order or subset.
        for levels in ("up down g", "m- m+ g", "m+ m- g e", "m+ m-"):
            src = MINIMAL.replace("atom-levels m+ m- g", f"atom-levels {levels}")
            with pytest.raises(ParseError, match="atom-levels must read m\\+ m- g") as exc:
                parse(src)
            assert (exc.value.line, exc.value.column, exc.value.token) == (3, 1, "atom-levels")

    def test_missing_atom_levels_statement(self):
        src = MINIMAL.replace("atom-levels m+ m- g\n", "")
        with pytest.raises(ParseError, match="line 1, column 1: missing atom-levels statement"):
            parse(src)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("paths a", "paths a#b", "line 1, column 7: invalid path label: a#b"),
            ("sinks S+ S-", "sinks S S#2", "line 2, column 9: invalid sink label: S#2"),
        ],
    )
    def test_hash_inside_a_word_is_not_a_comment(self, old, new, message):
        # A comment opens at the start of a line or after a blank, and no
        # label holds a ``#``: the file is refused, not read in part.
        with pytest.raises(ParseError) as exc:
            parse(MINIMAL.replace(old, new))
        assert str(exc.value) == message


class TestCompiler:
    def test_compiled_mz_matches_library_builder(self):
        # [DERIVED] independent oracle: the chain written out by hand,
        # element by element, with a fresh sink pair per atom pass.
        def stage(n, first, second):
            t, r = math.sin(math.pi / (2 * n)), math.cos(math.pi / (2 * n))
            return [
                BeamSplitter(t, r, "u", "l"),
                AtomInteraction("u", sink_plus=f"S+{first}", sink_minus=f"S-{first}"),
                Mirror("u"),
                Mirror("u"),
                Mirror("l"),
                Mirror("l"),
                PolRotator("u", POL_FLIP),
                PolRotator("l", POL_FLIP),
                AtomInteraction("u", sink_plus=f"S+{second}", sink_minus=f"S-{second}"),
            ]

        by_hand = {
            1: (["S+", "S-", "S+#2", "S-#2"], stage(1, "", "#2")),
            2: (
                ["S+", "S-", "S+#2", "S-#2", "S+#3", "S-#3", "S+#4", "S-#4"],
                stage(2, "", "#2") + stage(2, "#3", "#4"),
            ),
        }
        ast = parse(load_golden("mz"))
        for n, (sinks, elements) in by_hand.items():
            layout = make_layout(["l", "u"], sinks, ["m+", "m-", "g"])
            circuit = compile_circuit(ast, {"N": n})
            assert circuit.layout == layout
            assert list(circuit.elements) == elements
            built_layout, built, _ = build_mz(n)
            assert built_layout == layout
            assert built == circuit.program

    def test_branches_from_classify(self):
        # A port's label takes its path block; sinks= takes the sink tail.
        bindings = {"N": 3, "K": 2, "T": 0.6, "R": 0.8, "TP": 0.6, "RP": 0.8}
        expected = {
            "direct": {"failure": [0, 1], "absorbed": [2, 3]},
            "twopass": {"failure": [0, 1], "absorbed": [2, 3, 4, 5]},
            "mz": {"success": [0, 1], "failure": [2, 3], "absorbed": list(range(4, 16))},
            "fp": {
                "success": [6, 7],
                "failure": [0, 1, 2, 3, 4, 5, 8, 9],
                "absorbed": list(range(10, 18)),
            },
        }
        assert sorted(expected) == dsl.golden_names()
        for name, rows in expected.items():
            circuit = compile_circuit(parse(load_golden(name)), bindings)
            got = {label: r.tolist() for label, r in circuit.branches.items()}
            assert got == rows, name
            assert circuit.layout.n_photon_modes == max(map(max, rows.values())) + 1

    def test_fresh_sink_pairs_per_atom_statement(self):
        src = MINIMAL.replace("atom a", "repeat 3 {\natom a\n}")
        circuit = compile_circuit(parse(src))
        atoms = [el for el in circuit.elements if isinstance(el, AtomInteraction)]
        assert [a.sink_plus for a in atoms] == ["S+", "S+#2", "S+#3"]
        assert len(set(circuit.layout.sinks)) == 6

    def test_sinks_are_an_event_log(self):
        # One pair per interaction, from the declared bases; a circuit with
        # no interaction keeps the declared pair.
        circuit = compile_circuit(parse(load_golden("mz")), {"N": 1000})
        assert circuit.layout.sinks == state.SinkLog("S+", "S-", 2000)
        assert isinstance(circuit.layout.sinks, state.SinkLog)
        empty = compile_circuit(parse(MINIMAL.replace("atom a", "mirror a")))
        assert empty.layout.sinks == ("S+", "S-")

    def test_colliding_sink_bases_are_refused(self):
        # Labels may hold '#': bases S and S#2 name S#2 twice from the
        # second interaction on.
        ast = dataclasses.replace(parse(MINIMAL.replace("atom a", "atom a\natom a")), sinks=("S", "S#2"))
        with pytest.raises(ValueError, match="duplicate sink label: 'S#2'"):
            compile_circuit(ast)
        ast = dataclasses.replace(parse(MINIMAL), sinks=("S", "S#2"))
        assert list(compile_circuit(ast).layout.sinks) == ["S", "S#2"]

    def test_long_chain_compiles_in_its_program(self):
        # mz at N = 10^5 names 400,000 sink labels; compiled, it keeps the
        # program and the sinks branch's rows (3.2 MB), not the labels, and
        # hashing its layout writes no label out to keep.
        ast = parse(load_golden("mz"))
        tracemalloc.start()
        try:
            circuit = compile_circuit(ast, {"N": 10**5})
            hash(circuit.layout)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(circuit.layout.sinks) == 400_000
        assert kept < 4_000_000

    def test_missing_binding_names_parameter(self):
        ast = parse(load_golden("mz"))
        with pytest.raises(CompileError, match="unbound parameter: N"):
            compile_circuit(ast)

    @pytest.mark.parametrize("name", ["pi", "sin", "cos"])
    def test_binding_of_a_builtin_is_refused(self, name):
        ast = parse(load_golden("mz"))
        with pytest.raises(ValueError, match=f"cannot bind built-in {name}"):
            compile_circuit(ast, {"N": 3, name: 0.0})

    def test_non_unitary_bs_cites_line(self):
        src = (
            MINIMAL.replace("paths a", "paths a a2")
            .replace("atom a", "bs a a2 t=T r=0.9")
            .replace("classify a=failure", "classify a=failure a2=failure")
        )
        with pytest.raises(CompileError, match="not unitary") as exc:
            compile_circuit(parse(src), {"T": 0.9})
        assert exc.value.line == 5

    def test_repeat_count_must_be_positive_integer(self):
        src = MINIMAL.replace("atom a", "repeat K {\natom a\n}")
        ast = parse(src)
        with pytest.raises(CompileError, match="positive integer"):
            compile_circuit(ast, {"K": 2.5})
        with pytest.raises(CompileError, match="positive integer"):
            compile_circuit(ast, {"K": 0})
        for count in (math.nan, math.inf):
            with pytest.raises(CompileError, match="positive integer") as exc:
                compile_circuit(ast, {"K": count})
            assert exc.value.line == 5

    def test_unrolled_size_is_bounded(self):
        # pi/sin(pi) is an integral float near 2.6e16: it must fail cleanly,
        # not unroll until memory runs out.  The check also sees the product
        # of nested counts and a body that emits nothing.
        nested = "repeat 1000 {\nrepeat 1000 {\nrepeat 2 {\natom a\n}\n}\n}"
        for body, line in (("repeat pi/sin(pi) {\nmirror a\n}", 5), (nested, 5)):
            ast = parse(MINIMAL.replace("atom a", body))
            with pytest.raises(CompileError, match="more than 1000000 elements") as exc:
                compile_circuit(ast)
            assert exc.value.line == line
        empty = parse(MINIMAL.replace("atom a", "repeat pi/sin(pi) {\n}\natom a"))
        assert len(compile_circuit(empty).elements) == 1
        # An empty body compiles to nothing even past the index range.
        beyond = parse(MINIMAL.replace("atom a", "repeat 100000000000000000000 {\n}\nmirror a"))
        assert compile_circuit(beyond).elements == (Mirror("a"),)
        # The bound holds for the whole program: siblings that fit alone
        # fail together, on the repeat that crosses it.
        siblings = "repeat 500001 {\nmirror a\n}\nrepeat 500000 {\nmirror a\n}"
        with pytest.raises(CompileError, match="more than 1000000 elements") as exc:
            compile_circuit(parse(MINIMAL.replace("atom a", siblings)))
        assert exc.value.line == 8

    def test_repeat_body_compiles_once(self, monkeypatch):
        # A body has no loop index: its expressions are evaluated once
        # whatever the count, and the copies share their elements.
        ast = parse(load_golden("mz"))
        calls = []

        def counted(*args):
            calls.append(args)
            return eval_expr(*args)

        eval_expr = dsl.eval_expr
        monkeypatch.setattr(dsl, "eval_expr", counted)
        counts = []
        for n in (2, 64):
            calls.clear()
            circuit = compile_circuit(ast, {"N": n})
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        stage = len(circuit.elements) // 64
        assert isinstance(circuit.elements[0], BeamSplitter)
        assert circuit.elements[stage] is circuit.elements[0]

    def test_repeats_compile_as_written_out(self):
        # Tiling a compiled body must equal compiling every iteration: the
        # same elements, layout, exit rows and sink pairs in program order.
        def written_out(ast, bindings):
            env = dict(bindings)
            for let in ast.lets:
                env[let.name] = dsl.eval_expr(let.expr, env, let.line)

            def expand(stmts):
                out = []
                for stmt in stmts:
                    if isinstance(stmt, dsl.RepeatStmt):
                        count = round(dsl.eval_expr(stmt.count_expr, env, stmt.line))
                        out.extend(expand(stmt.body) * count)
                    else:
                        out.append(stmt)
                return out

            return dataclasses.replace(ast, statements=tuple(expand(ast.statements)))

        bindings = {"N": 3, "K": 2, "T": 0.6, "R": 0.8, "TP": 0.6, "RP": 0.8}
        sources = [load_golden(name) for name in dsl.golden_names()]
        nested = [
            "repeat 2 {\n  atom a\n  repeat 3 {\n    mirror b\n    atom b transparent: m+\n"
            "  }\n  bs a b t=0.6 r=0.8\n}\natom a",
            "repeat 3 {\n  repeat 2 {\n    repeat 2 {\n      atom a\n"
            "      rot b matrix(0, 1, 1, 0)\n    }\n    phase a pi/3\n  }\n}",
            "repeat 2 {\n}\nrepeat 2 {\n  repeat 2 {\n  }\n  atom b\n}",
            "atom a\nrepeat N {\n  relabel a -> b\n  atom b transparent: m- g\n"
            "  relabel b -> a\n}\natom a",
        ]
        two_paths = MINIMAL.replace("paths a", "paths a b").replace(
            "classify a=failure", "classify a=failure b=success"
        )
        sources += [two_paths.replace("atom a", body) for body in nested]
        for src in sources:
            ast = parse(src)
            tiled = compile_circuit(ast, bindings)
            unrolled = compile_circuit(written_out(ast, bindings), bindings)
            assert tiled.elements == unrolled.elements, src
            assert tiled.layout == unrolled.layout, src
            assert {k: v.tolist() for k, v in tiled.branches.items()} == {
                k: v.tolist() for k, v in unrolled.branches.items()
            }, src
            atoms = [el.sink_plus for el in tiled.elements if isinstance(el, AtomInteraction)]
            assert atoms == list(tiled.layout.sinks[::2][: len(atoms)]), src

    def test_non_unitary_rot_cites_line(self):
        # The second matrix is off by 8e-6 in u^dag u: well inside numpy's
        # default relative tolerance, far outside NORM_TOL.
        for rot in ("rot a matrix(1,1,0,1)", "rot a matrix(1.000004, 0, 0, 1)"):
            src = MINIMAL.replace("atom a", rot)
            with pytest.raises(CompileError, match="not unitary") as exc:
                compile_circuit(parse(src))
            assert exc.value.line == 5

    def test_beam_splitter_errors_cite_line(self):
        src = MINIMAL.replace("atom a", "bs a a t=0.6 r=0.8")
        with pytest.raises(CompileError, match="two distinct paths") as exc:
            compile_circuit(parse(src))
        assert exc.value.line == 5

    def test_division_by_zero(self):
        src = MINIMAL.replace("atom a", "phase a 1/K")
        with pytest.raises(CompileError, match="division by zero"):
            compile_circuit(parse(src), {"K": 0.0})

    @pytest.mark.parametrize(
        "param, message",
        [
            ("1e400", "phase is not finite: inf"),
            ("1e300*1e300-1e300*1e300", "phase is not finite: nan"),
            ("sin(1e400)", r"sin\(inf\) is undefined"),
        ],
    )
    def test_non_finite_parameters_cite_line(self, param, message):
        # A literal that overflows is inf, and sin of it raises, rather
        # than compiling into a run whose branches sum to nan.
        src = MINIMAL.replace("atom a", f"phase a {param}")
        with pytest.raises(CompileError, match=message) as exc:
            compile_circuit(parse(src))
        assert exc.value.line == 5

    def test_non_finite_binding_in_an_element_cites_line(self):
        src = (
            MINIMAL.replace("paths a", "paths a a2")
            .replace("atom a", "bs a a2 t=T r=0.8")
            .replace("classify a=failure", "classify a=failure a2=failure")
        )
        for value in (math.inf, math.nan):
            with pytest.raises(CompileError, match="beam splitter is not unitary") as exc:
                compile_circuit(parse(src), {"T": value})
            assert exc.value.line == 5

    def test_circuit_mask_survives_an_unmasked_atom(self):
        # An atom without a mask of its own keeps the circuit's
        # transparency: a |+> photon passes an m+ atom untouched.
        src = MINIMAL.replace("input a x", "input a +").replace(
            "atom a", "atom a transparent: m+"
        )
        circuit = compile_circuit(parse(src))
        out = run_compiled(circuit, AtomSpec(1, 0))
        assert out.absorbed_prob == 0.0
        assert out.failure_prob == pytest.approx(1.0, abs=1e-12)

    def test_atom_mask_adds_to_circuit_mask(self):
        src = MINIMAL.replace("atom a", "atom a transparent: m+")
        circuit = compile_circuit(parse(src))
        # Circuit m+ and atom m-: nothing interacts.
        out = run_compiled(circuit, AtomSpec(0.6, 0.8, transparency_mask={"m-"}))
        assert out.absorbed_prob == 0.0
        # Both masks m+: only the m- component of the x photon scatters.
        out = run_compiled(circuit, AtomSpec(0.6, 0.8, transparency_mask={"m+"}))
        assert out.absorbed_prob == pytest.approx(0.8**2 / 2, abs=1e-12)
        # The compiled elements keep their own masks.
        (atom,) = [el for el in circuit.elements if isinstance(el, AtomInteraction)]
        assert atom.transparency_mask == frozenset({"m+"})

class TestGoldens:
    def test_goldens_parse_and_round_trip(self):
        names = dsl.golden_names()
        assert {"mz", "fp", "direct", "twopass"} <= set(names)
        for name in names:
            ast = parse(load_golden(name))
            again = parse(print_circuit(ast))
            assert again == ast
            # Printing is idempotent once canonical.
            assert print_circuit(again) == print_circuit(ast)

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_compiled_mz_reproduces_runner(self, n):
        circuit = compile_circuit(parse(load_golden("mz")), {"N": n})
        for atom in haar_random_atoms(3, seed=n):
            out = run_compiled(circuit, atom)
            ref = run_mz_chain(n, atom)
            assert out.success_prob == pytest.approx(ref.success_prob, abs=1e-12)
            assert out.success_prob == pytest.approx(mz_closed_form(n), abs=1e-10)
            assert out.absorbed_prob == pytest.approx(ref.absorbed_prob, abs=1e-12)

    def test_compiled_fp_reproduces_runner(self):
        ast = parse(load_golden("fp"))
        atom = AtomSpec(0.6, 0.8)
        r = 0.9
        t = math.sqrt(1 - r * r)
        ref = run_fabry_perot(r, t, r, t, atom, eps=1e-22)
        circuit = compile_circuit(
            ast, {"T": t, "R": r, "TP": t, "RP": r, "K": ref.details["round_trips"]}
        )
        out = run_compiled(circuit, atom, prob_tol=1e-9)
        assert out.success_prob == pytest.approx(ref.success_prob, abs=1e-10)
        assert out.failure_prob == pytest.approx(ref.failure_prob, abs=1e-10)
        assert out.success_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_compiled_direct_amplitudes(self):
        circuit = compile_circuit(parse(load_golden("direct")))
        out = run_compiled(circuit, AtomSpec(0.6, 0.8))
        assert out.absorbed_prob == pytest.approx(0.5, abs=1e-12)
        assert out.failure_prob == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Fuzzed round-trip


def _random_expr(rng: random.Random, names: list[str], depth: int = 0) -> str:
    if depth >= 3 or rng.random() < 0.35:
        choice = rng.random()
        if choice < 0.4:
            return str(rng.randint(0, 9))
        if choice < 0.45:  # integral, beyond six significant digits
            return str(rng.randint(10**6, 10**20))
        if choice < 0.6:
            return f"{rng.uniform(0, 2):.3f}"
        if choice < 0.62:  # overflows to inf
            return "9e999"
        if choice < 0.7 or not names:
            return "pi"
        return rng.choice(names)
    kind = rng.random()
    a = _random_expr(rng, names, depth + 1)
    b = _random_expr(rng, names, depth + 1)
    if kind < 0.2:
        return f"sin({a})"
    if kind < 0.3:
        return f"cos({a})"
    if kind < 0.45:
        return f"({a}+{b})"
    if kind < 0.6:
        return f"({a}-{b})"
    if kind < 0.8:
        return f"({a}*{b})"
    if kind < 0.9:
        return f"({a}/{b})"
    return f"(-{a})"


def _random_source(rng: random.Random) -> str:
    n_paths = rng.randint(1, 4)
    paths = [f"p{i}" for i in range(n_paths)]
    levels = ["m+", "m-", "g"]
    names = [f"v{i}" for i in range(rng.randint(0, 2))]
    lines = [
        "paths " + " ".join(paths),
        "sinks S+ S-",
        "atom-levels " + " ".join(levels),
        f"input {rng.choice(paths)} {rng.choice(['+', '-', 'x', 'y'])}",
    ]
    for name in names:
        lines.append(f"let {name} = {_random_expr(rng, [])}")

    def statement(depth: int) -> list[str]:
        kind = rng.randint(0, 7 if depth == 0 else 6)
        p = rng.choice(paths)
        if kind == 0:
            return [f"mirror {p}"]
        if kind == 1:
            return [f"phase {p} {_random_expr(rng, names)}"]
        if kind == 2:
            if rng.random() < 0.5:
                return [f"rot {p} flip"]
            return [f"rot {p} matrix(1, 0, 0, 1)"]
        if kind == 3:
            if rng.random() < 0.5:
                return [f"atom {p}"]
            return [f"atom {p} transparent: {rng.choice(levels)}"]
        if kind == 4 and n_paths > 1:
            q = rng.choice([x for x in paths if x != p])
            return [f"bs {p} {q} t={_random_expr(rng, names)} r={_random_expr(rng, names)}"]
        if kind == 5 and n_paths > 1:
            q = rng.choice([x for x in paths if x != p])
            return [f"relabel {p} -> {q}"]
        if kind == 7:
            body = [
                line
                for _ in range(rng.randint(1, 3))
                for line in statement(depth + 1)
            ]
            return [f"repeat {_random_expr(rng, names)} {{"] + body + ["}"]
        return [f"mirror {p}"]

    for _ in range(rng.randint(1, 6)):
        lines.extend(statement(0))
    lines.append(
        "classify "
        + " ".join(f"{p}={rng.choice(['success', 'failure', 'absorbed'])}" for p in paths)
        + " sinks=absorbed"
    )
    return "\n".join(lines) + "\n"


class TestFuzzedRoundTrip:
    def test_100_fuzzed_sources(self):
        rng = random.Random(20260823)
        for _ in range(100):
            src = _random_source(rng)
            ast = parse(src)
            printed = print_circuit(ast)
            again = parse(printed)
            assert again == ast, src
            assert print_circuit(again) == printed, src

    def test_corrupted_sources_fail_at_a_located_token(self):
        # One character of each draw replaced: a parse error's token stands
        # at its column, and a compile error names a statement's line.
        rng, chars = random.Random(20261018), string.ascii_letters + string.punctuation + " \t"
        located = compile_errors = 0
        for _ in range(1000):
            src = _random_source(rng)
            at = rng.randrange(len(src))
            src = src[:at] + rng.choice(chars) + src[at + 1 :]
            lines = src.splitlines()
            try:
                compile_circuit(parse(src))
            except ParseError as exc:
                if exc.token:
                    assert lines[exc.line - 1][exc.column - 1 :].startswith(exc.token), (src, exc)
                    located += 1
            except CompileError as exc:
                assert 1 <= exc.line <= len(lines) and lines[exc.line - 1].strip(), (src, exc)
                compile_errors += 1
        assert located > 800 and compile_errors > 10, (located, compile_errors)


def _outcome_or_error(run):
    """The outcome of ``run()``, or the type of the error it raised."""
    try:
        return run()
    except (ConservationError, ValueError) as exc:
        return type(exc)


class TestLevelResponse:
    def test_atoms_are_linear_combinations_of_one_propagation(self):
        # run_compiled serves every atom from one propagation per circuit
        # and mask (an absent atom is masked at m+ and m-); the oracle
        # propagates each atom itself.
        rng = random.Random(20261018)
        bindings = {"N": 3, "K": 3, "T": 0.6, "R": 0.8, "TP": 0.6, "RP": 0.8}
        circuits = [
            compile_circuit(parse(load_golden(name)), bindings) for name in dsl.golden_names()
        ]
        while len(circuits) < 100:
            try:
                circuits.append(compile_circuit(parse(_random_source(rng))))
            except CompileError:
                continue
        masks = [frozenset(), frozenset({"m+"}), frozenset({"m-"})]
        raised = 0
        for index, circuit in enumerate(circuits):
            layout = circuit.layout
            for atom in haar_random_atoms(2, seed=index):
                for mask, present in itertools.product(masks, (True, False)):
                    spec = AtomSpec(atom.alpha, atom.beta, present, mask)

                    def oracle():
                        initial = initial_state(layout, circuit.input_path, circuit.input_pol, spec)
                        final = run_sequence(
                            layout,
                            circuit.elements,
                            initial,
                            mask_override=spec.transparency_mask,
                        )
                        return assemble_outcome(
                            final, circuit.branches, spec.level_vector(layout)
                        )

                    want = _outcome_or_error(oracle)
                    got = _outcome_or_error(lambda: run_compiled(circuit, spec))
                    if isinstance(want, type):
                        assert got is want, (index, spec)
                        raised += 1
                        continue
                    dev = np.max(np.abs(got.final_state.amplitudes - want.final_state.amplitudes))
                    assert dev <= 1e-12, (index, spec)
                    for name in ("success_prob", "failure_prob", "absorbed_prob"):
                        assert getattr(got, name) == pytest.approx(
                            getattr(want, name), abs=1e-12
                        ), (index, spec, name)
        # Both kinds of case occur: runs that conserve and runs that do not.
        assert 0 < raised < 100 * 2 * 6

    def test_one_propagation_per_presence_and_mask(self, monkeypatch):
        circuit = compile_circuit(parse(load_golden("mz")), {"N": 4})
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(dsl, "propagate", counted)
        for atom in haar_random_atoms(5, seed=1):
            for mask in (frozenset(), frozenset({"m+"}), ABSENT_MASK):
                run_compiled(circuit, AtomSpec(atom.alpha, atom.beta, transparency_mask=mask))
            # Absent is transparent at m+ and m-: the same propagation.
            absent = AtomSpec(atom.alpha, atom.beta, present=False, transparency_mask={"m-"})
            run_compiled(circuit, absent)
        assert len(calls) == 3

    def test_level_response_is_one_exact_propagation(self):
        # The response, with each sink row's m+ and m- cells added into its
        # g cell, is run_sequence of the compiled program on the input
        # photon times the atom (1, 1, 0), bitwise: no rescaling of any
        # amplitude.  (TestDoubledRepeats compares it with the unrolled
        # elements, whose rounding differs.)
        bindings = {"N": 3, "K": 2, "T": 0.6, "R": 0.8, "TP": 0.28, "RP": 0.96}
        circuits = [
            compile_circuit(parse(load_golden(name)), bindings) for name in dsl.golden_names()
        ]
        fp = circuits[dsl.golden_names().index("fp")]
        circuits += [
            dataclasses.replace(fp, input_path=path, input_pol=pol)
            for path in ("in", "fwd")
            for pol in ("+", "-")
        ]
        for circuit, mask in itertools.product(
            circuits, (frozenset(), frozenset({"m-"}), ABSENT_MASK)
        ):
            layout = circuit.layout
            n = 2 * len(layout.paths)
            amps = np.zeros((layout.n_photon_modes, layout.n_levels), dtype=complex)
            amps[layout.path_block[circuit.input_path]] = np.outer(
                POL_STATES[circuit.input_pol], [1, 1, 0]
            )
            want = run_sequence(
                layout, circuit.program, JointState(layout, amps.reshape(-1)), mask_override=mask
            )
            response = circuit.level_response(mask)
            # Nothing reaches g, and a sink row absorbs from one level only.
            assert not response[:, 2].any()
            assert not (response[n:, 0] * response[n:, 1]).any()
            got = response.copy()
            got[n:, 2] = got[n:, 0] + got[n:, 1]
            got[n:, :2] = 0.0
            assert np.array_equal(got, want.matrix()), (circuit.input_path, mask)

    def test_level_response_builds_no_dense_state(self, monkeypatch):
        # Each aim fills only its path block of the 2P propagating rows, and
        # an unknown path or polarization is refused as by initial_state.
        mz = compile_circuit(parse(load_golden("mz")), {"N": 64})
        cavity = protocols._cavity.__wrapped__(T=0.6, R=0.8, TP=0.28, RP=0.96)
        layout = mz.layout
        for path, pol, message in (("l", "z", "unknown polarization"), ("v", "+", "not in the layout")):
            with pytest.raises(ValueError, match=message) as aimed:
                dataclasses.replace(mz, input_path=path, input_pol=pol).level_response(frozenset())
            with pytest.raises(ValueError) as dense:
                initial_state(layout, path, pol, AtomSpec())
            assert str(aimed.value) == str(dense.value)
        masks = (frozenset(), frozenset({"m+"}), ABSENT_MASK)
        want = [circuit.level_response(mask).copy() for circuit in (mz, cavity) for mask in masks]

        def dense_state(*args, **kwargs):
            raise AssertionError("a level response built a dense state")

        monkeypatch.setattr(state, "JointState", dense_state)
        mz = compile_circuit(parse(load_golden("mz")), {"N": 64})
        cavity = protocols._cavity.__wrapped__(T=0.6, R=0.8, TP=0.28, RP=0.96)
        got = [circuit.level_response(mask) for circuit in (mz, cavity) for mask in masks]
        assert all(map(np.array_equal, got, want))

    def test_returned_state_does_not_reach_the_cache(self):
        circuit = compile_circuit(parse(load_golden("mz")), {"N": 3})
        atom = AtomSpec(0.6, 0.8j)
        first = run_compiled(circuit, atom)
        kept = first.final_state.amplitudes.copy()
        first.final_state.amplitudes[:] = 7.0
        again = run_compiled(circuit, atom)
        assert np.array_equal(again.final_state.amplitudes, kept)
        assert again.success_prob == pytest.approx(mz_closed_form(3), abs=1e-12)


def _fp_bindings(r: float, trips: int) -> dict[str, float]:
    t = math.sqrt(1 - r * r)
    return {"T": t, "R": r, "TP": t, "RP": r, "K": trips}


class TestDoubledRepeats:
    """A ``Repeat`` node is run by doubling its body's map; the unrolled
    elements, folded run by run, are the reference."""

    MASKS = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)

    @staticmethod
    def circuits():
        mz, fp = parse(load_golden("mz")), parse(load_golden("fp"))
        circuits = {f"mz N={n}": compile_circuit(mz, {"N": n}) for n in (1, 2, 3, 64, 2000)}
        for r, trips in ((0.9, 1), (0.9, 117), (0.95, 237)):
            circuits[f"fp K={trips}"] = compile_circuit(fp, _fp_bindings(r, trips))
        for name in ("twopass", "direct"):
            circuits[name] = compile_circuit(parse(load_golden(name)))
        nested = (
            "repeat 3 {\n  atom a\n  repeat 2 {\n    bs a b t=0.6 r=0.8\n    repeat 4 {\n"
            "      atom b transparent: m+\n      mirror a\n      relabel a -> b\n    }\n"
            "    atom a\n    rot b matrix(0.6, 0.8, -0.8, 0.6)\n  }\n  phase b pi/3\n}\natom b"
        )
        two_paths = MINIMAL.replace("paths a", "paths a b").replace(
            "classify a=failure", "classify a=failure b=success"
        )
        circuits["nested"] = compile_circuit(parse(two_paths.replace("atom a", nested)))
        rng = random.Random(20260823)  # criterion 9's fuzzed sources
        for index in range(100):
            try:
                circuits[f"fuzzed {index}"] = compile_circuit(parse(_random_source(rng)))
            except CompileError:
                continue
        return circuits

    def test_doubled_response_is_the_unrolled_fold(self):
        circuits = self.circuits()
        assert any(isinstance(item, elements.Repeat) for item in circuits["nested"].program)
        assert len(circuits) > 60
        for name, circuit in circuits.items():
            layout = circuit.layout
            n, sinks = 2 * len(layout.paths), layout.n_photon_modes
            levels = [layout.level_index(level) for level in ("m+", "m-")]
            # Every row and level populated, one unit column per input.
            draw = np.random.default_rng(len(name)).standard_normal((2, n, layout.n_levels, 3))
            block = draw[0] + 1j * draw[1]
            block /= np.linalg.norm(block, axis=(0, 1))
            for mask in self.MASKS:
                # The response of the input photon, against the fold of it.
                photon = np.zeros((n, layout.n_levels, 1), dtype=complex)
                photon[:, levels, 0] = initial_state(
                    layout, circuit.input_path, circuit.input_pol, AtomSpec(1, 0)
                ).matrix()[:n, levels[:1]]
                want_prop, want_absorbed = propagate(layout, circuit.elements, photon, mask=mask)
                response = circuit.level_response(mask)
                assert np.max(np.abs(response[:n] - want_prop[..., 0])) <= 1e-13, (name, mask)
                dev = np.abs(response[n:sinks, levels] - want_absorbed[..., 0])
                assert np.max(dev, initial=0) <= 1e-13, (name, mask)
                # A block of inputs, through the program and through the elements.
                prop, absorbed = propagate(layout, circuit.program, block, mask=mask)
                want_prop, want_absorbed = propagate(layout, circuit.elements, block, mask=mask)
                assert np.max(np.abs(prop - want_prop)) <= 1e-13, (name, mask)
                assert np.max(np.abs(absorbed - want_absorbed), initial=0) <= 1e-13, (name, mask)

    def test_kernel_calls_do_not_grow_with_the_count(self, monkeypatch):
        calls = []
        for kind, kernel in list(elements._KERNELS.items()):

            def counted(*args, kernel=kernel):
                calls.append(args[2])
                kernel(*args)

            monkeypatch.setitem(elements._KERNELS, kind, counted)
        counts = []
        for n in (64, 2000):
            circuit = compile_circuit(parse(load_golden("mz")), {"N": n})
            calls.clear()
            circuit.level_response(frozenset())
            counts.append(len(calls))
            run_compiled(circuit, AtomSpec(0.6, 0.8j))
            # The unrolled elements are never built to run the circuit.
            assert "elements" not in vars(circuit)
        assert counts[0] == counts[1] > 0

    def test_a_repeat_that_absorbs_nothing_is_a_matrix_power(self):
        # No copy absorbs, so nothing is kept per copy: i^900000 = 1, from
        # 20 squarings of the mirror's map, in a few kilobytes.
        source = MINIMAL.replace("atom a", "repeat 900000 {\nmirror a\n}\natom a")
        circuit = compile_circuit(parse(source))
        plain = compile_circuit(parse(MINIMAL))
        tracemalloc.start()
        try:
            for mask in self.MASKS:
                response = circuit.level_response(mask)
                assert np.array_equal(response, plain.level_response(mask)), mask
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_copies_keep_inputs_at_read_levels_only(self, monkeypatch):
        # Each copy's input is kept at m+ and m- unless masked: g and the
        # masked levels pass as body^count, and an absent atom keeps none.
        circuit = compile_circuit(parse(load_golden("mz")), {"N": 64})
        kept, empty = [], np.empty

        def recorded(*args, **kwargs):
            array = empty(*args, **kwargs)
            if array.ndim == 4:
                kept.append(array.shape)
            return array

        monkeypatch.setattr(np, "empty", recorded)
        for mask, levels in zip(self.MASKS, ([2], [1], [1], [])):
            kept.clear()
            circuit.level_response(mask)
            assert [shape[0] for shape in kept] == levels, mask
            assert all(shape[1:] == (4, 64, 1) for shape in kept), mask

    def test_a_chain_of_a_hundred_thousand_stages(self):
        n = 10**5
        out = run_mz_chain(n, AtomSpec(0.6, 0.8j))
        total = out.success_prob + out.failure_prob + out.absorbed_prob
        assert abs(total - 1.0) <= PROB_TOL
        assert abs(out.success_prob - mz_closed_form(n)) <= 1e-10


def _golden_circuits():
    """Every golden as the library runs it: ``mz`` at a spread of N, and
    the cavity's one-trip circuit, which sums every round trip, at equal
    mirrors and at unequal mirrors so near 1 that it fails conservation."""
    circuits = {name: compile_circuit(parse(load_golden(name))) for name in ("direct", "twopass")}
    for n in (1, 2, 7, 64, 2000):
        circuits[f"mz N={n}"] = compile_circuit(parse(load_golden("mz")), {"N": n})
    for r, r_prime in ((0.5, 0.5), (0.9, 0.9), (0.999, 0.999), (1 - 1e-8, 1 - 1e-10)):
        circuits[f"fp r={r} r'={r_prime}"] = protocols._cavity(
            T=math.sqrt(1 - r * r), R=r, TP=math.sqrt(1 - r_prime * r_prime), RP=r_prime
        )
    return circuits


class TestBranchWeights:
    def test_record_sums_each_branch_and_path_as_gathered(self):
        # Each kept weight is bit for bit the numpy sum of the squared
        # response over the rows of its branch, gathered in order.
        rng = random.Random(20260823)  # criterion 9's fuzzed sources
        circuits = dict(_golden_circuits())
        circuits["fp K=117"] = compile_circuit(parse(load_golden("fp")), _fp_bindings(0.9, 117))
        for index in range(100):
            try:
                circuits[f"fuzzed {index}"] = compile_circuit(parse(_random_source(rng)))
            except CompileError:
                continue
        assert len(circuits) > 60
        masks = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)
        for (name, circuit), mask in itertools.product(circuits.items(), masks):
            layout = circuit.layout
            plus, minus = layout.level_index("m+"), layout.level_index("m-")
            response = circuit.level_response(mask)
            squares = response.real**2 + response.imag**2

            def gathered(rows) -> tuple[str, str]:
                sums = float(squares[rows, plus].sum()), float(squares[rows, minus].sum())
                return sums[0].hex(), sums[1].hex()

            weights = {label: gathered(rows) for label, rows in circuit.branches.items()}
            kept = circuit.branch_weights(mask)
            assert {k: (p.hex(), m.hex()) for k, (p, m) in kept.items()} == weights, (name, mask)

    def test_run_agrees_with_the_dense_state(self):
        # run_compiled scores from per-mask branch weights and one branch's
        # rows; assemble_outcome sums every row of the dense state.
        masks = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)
        raised = 0
        for name, circuit in _golden_circuits().items():
            layout = circuit.layout
            for mask, atom in itertools.product(masks, haar_random_atoms(3, seed=17)):
                spec = AtomSpec(atom.alpha, atom.beta, transparency_mask=mask)
                # The response's m+ column times alpha and its m- column
                # times beta; a sink row's amplitude lies at g.
                n = 2 * len(layout.paths)
                amps = circuit.level_response(spec.transparency_mask) * [spec.alpha, spec.beta, 0]
                amps[n:, 2] = amps[n:].sum(axis=1)
                amps[n:, :2] = 0.0
                dense = JointState(layout, amps.reshape(-1))
                want = _outcome_or_error(
                    lambda: assemble_outcome(dense, circuit.branches, spec.level_vector(layout))
                )
                got = _outcome_or_error(lambda: run_compiled(circuit, spec))
                if isinstance(want, type):
                    assert got is want is ConservationError, (name, spec)
                    raised += 1
                    continue
                assert np.array_equal(got.final_state.amplitudes, dense.amplitudes), (name, spec)
                for field_name in ("success_prob", "failure_prob", "absorbed_prob"):
                    assert abs(getattr(got, field_name) - getattr(want, field_name)) <= 1e-15, (
                        name, spec, field_name,
                    )
                assert got.success_fidelity == want.success_fidelity, (name, spec)
                assert got.exit_polarization == want.exit_polarization, (name, spec)
                if want.success_atom_state is None:
                    assert got.success_atom_state is None, (name, spec)
                else:
                    assert np.array_equal(got.success_atom_state, want.success_atom_state)
        # The unequal mirrors fail at every mask but the empty one.
        assert raised == 3 * 3

    def test_dense_state_scores_bitwise_as_the_run(self):
        # The dense final state forms each product part by part, as the
        # run's Python numbers do, so its factors, fidelity and label agree
        # bit for bit, whether or not the CPU fuses a multiply-add; response
        # entries with both a real and an imaginary part tell the two apart.
        rng = random.Random(20260823)  # criterion 9's fuzzed sources
        masks = (frozenset(), frozenset({"m+"}), frozenset({"m-"}), ABSENT_MASK)
        compared = 0
        for index in range(100):
            try:
                circuit = compile_circuit(parse(_random_source(rng)))
            except CompileError:
                continue
            layout = circuit.layout
            for mask, atom in itertools.product(masks, haar_random_atoms(10, seed=index)):
                spec = AtomSpec(atom.alpha, atom.beta, transparency_mask=mask)
                got = _outcome_or_error(lambda: run_compiled(circuit, spec))
                if isinstance(got, type):
                    continue
                want = _outcome_or_error(
                    lambda: assemble_outcome(got.final_state, circuit.branches, spec.level_vector(layout))
                )
                assert not isinstance(want, type), (index, spec)
                assert got.success_fidelity == want.success_fidelity, (index, spec)
                assert got.exit_polarization == want.exit_polarization, (index, spec)
                if want.success_atom_state is None:
                    assert got.success_atom_state is None, (index, spec)
                else:
                    assert got.success_atom_state.tobytes() == want.success_atom_state.tobytes()
                compared += 1
        assert compared > 1900

    def test_sinks_classified_as_success(self):
        # No golden or fuzzed circuit scores its sink rows as a success, so
        # no other test factors a block with g amplitude: alone (the atom
        # factor is g), or beside a populated path (not a product).
        bindings = {"direct": {}, "twopass": {}, "mz": {"N": 3}}
        masks = (frozenset(), frozenset({"m+"}), ABSENT_MASK)
        seen = set()
        for name, binding in bindings.items():
            src = load_golden(name).replace("sinks=absorbed", "sinks=success")
            circuit = compile_circuit(parse(src), binding)
            layout, rows = circuit.layout, circuit.branches["success"]
            for mask, atom in itertools.product(masks, haar_random_atoms(3, seed=5)):
                spec = AtomSpec(atom.alpha, atom.beta, transparency_mask=mask)
                got = _outcome_or_error(lambda: run_compiled(circuit, spec))
                if not isinstance(got, type) and got.success_prob <= PROB_TOL:
                    assert got.success_atom_state is None, (name, spec)
                    seen.add("no success")
                    continue
                # [DERIVED] oracle: the leading singular vectors of the rows.
                try:
                    photon, atom_factor = _rank_one(circuit.amplitudes(spec)[rows])
                except ValueError:
                    assert got is ValueError, (name, spec)
                    seen.add("not a product")
                    continue
                phase = np.vdot(atom_factor, got.success_atom_state)
                phase /= abs(phase)
                assert np.max(np.abs(got.success_atom_state - phase * atom_factor)) <= 1e-15
                fid = abs(np.vdot(atom_factor, spec.level_vector(layout))) ** 2
                assert got.success_fidelity == pytest.approx(fid, abs=1e-15), (name, spec)
                paths = rows < 2 * len(layout.paths)
                assert got.exit_polarization == _exit_label(list(zip(rows[paths].tolist(), photon[paths])))
                seen.add((got.success_fidelity, got.exit_polarization))
        assert seen == {"no success", "not a product", (0.0, "none")}

    def test_run_does_not_build_the_dense_state(self):
        out = run_mz_chain(2000, AtomSpec(0.6, 0.8j))
        assert "final_state" not in vars(out)
        assert out.final_state.layout.n_photon_modes == 2 * 2 + 2 * 2 * 2000
        assert "final_state" in vars(out)

    def test_warm_run_reads_no_amplitudes(self, monkeypatch):
        # A warm run scores from the rows kept per mask; only the dense
        # final state reads the amplitudes.
        calls = []
        amplitudes = dsl.CompiledCircuit.amplitudes

        def counted(self, *args, **kwargs):
            calls.append(args)
            return amplitudes(self, *args, **kwargs)

        circuit = compile_circuit(parse(load_golden("mz")), {"N": 64})
        for mask in (frozenset(), frozenset({"m+"}), ABSENT_MASK):
            run_compiled(circuit, AtomSpec(0.6, 0.8j, transparency_mask=mask))
        monkeypatch.setattr(dsl.CompiledCircuit, "amplitudes", counted)
        for mask, atom in itertools.product(
            (frozenset(), frozenset({"m+"}), ABSENT_MASK), haar_random_atoms(3, seed=2)
        ):
            out = run_compiled(circuit, AtomSpec(atom.alpha, atom.beta, transparency_mask=mask))
        assert calls == []
        assert out.final_state.layout is circuit.layout
        assert len(calls) == 1

    def test_warm_run_builds_nothing_as_long_as_its_branch(self):
        # With its sinks classified as failure, mz at N = 10^5 has a failure
        # branch of 400,002 rows, one of them non-zero for an absent atom: a
        # warm run factors that row alone, and its label reads that row.
        source = load_golden("mz").replace("sinks=absorbed", "sinks=failure")
        circuit = compile_circuit(parse(source), {"N": 10**5})
        absent = AtomSpec(0.6, 0.8j, present=False)
        first = run_compiled(circuit, absent)
        assert len(circuit.branches["failure"]) == 400_002
        tracemalloc.start()
        try:
            out = run_compiled(circuit, absent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert out.failure_prob == first.failure_prob == pytest.approx(1.0, abs=1e-12)
        assert out.exit_polarization == first.exit_polarization != "mixed"

    def test_record_is_freed_with_its_circuit(self):
        # Each mask's record lives on its circuit, and nothing else keeps it.
        circuit = compile_circuit(parse(load_golden("mz")), {"N": 8})
        out = run_compiled(circuit, AtomSpec(0.6, 0.8))
        refs = [weakref.ref(circuit), weakref.ref(circuit._masks[frozenset()])]
        del circuit, out
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_exit_rows_kept_only_for_a_factored_branch(self):
        # With its sinks classified as failure, the failure branch holds a
        # row per sink; a run that factors success keeps none of them.
        src = load_golden("mz").replace("sinks=absorbed", "sinks=failure")
        circuit = compile_circuit(parse(src), {"N": 200})
        run_compiled(circuit, AtomSpec(0.6, 0.8))
        assert set(circuit._masks[frozenset()].exits) == {"success"}
        # An absent atom's photon leaves by failure in +: its one lit path
        # row is kept, not the 800 empty sink rows.
        out = run_compiled(circuit, AtomSpec(0.6, 0.8, transparency_mask=ABSENT_MASK))
        assert out.exit_polarization == "+"
        record = circuit._masks[ABSENT_MASK]
        assert set(record.exits) == {"failure"}
        positions, cells, n_path = record.exits["failure"]
        assert len(circuit.branches["failure"]) == 2 + 4 * 200
        assert (len(positions), n_path) == (1, 1)
        assert not cells.flags.writeable

    def test_branch_rows_are_read_only(self):
        # A write would leave the kept branch weights scoring other rows.
        mirrors = {"T": 0.6, "R": 0.8, "TP": 0.6, "RP": 0.8, "K": 2}
        bindings = {"direct": {}, "twopass": {}, "mz": {"N": 3}, "fp": mirrors}
        for name, binding in bindings.items():
            for rows in compile_circuit(parse(load_golden(name)), binding).branches.values():
                with pytest.raises(ValueError, match="read-only"):
                    rows[:] = 0
        circuit = protocols.mz_circuit(3)
        with pytest.raises(ValueError, match="read-only"):
            circuit.branches["success"][:] = [2, 3]
        out = run_mz_chain(3, AtomSpec())
        assert out.success_prob == pytest.approx(mz_closed_form(3), abs=1e-15)
