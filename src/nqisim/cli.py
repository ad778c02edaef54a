"""Command line front end.

Subcommands:

* ``mz-sweep``   stage-count sweep of the interferometer chain
* ``fp``         one cavity run with explicit mirror amplitudes
* ``direct``     single-pass interaction, printed as final amplitudes
* ``nogo-check`` witness existence scan over transparency masks
* ``run``        compile and execute a circuit file

Output is CSV (default) or JSON, numbers rendered with 12 significant
digits so repeated runs are byte identical; probabilities and residuals
are first rounded to 1e-15, so rounding residue prints as 0.  Exit codes:
0 success, 1 probability conservation failure, 2 usage or circuit errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from . import dsl
from .nogo import transparency_nogo_scan
from .protocols import (
    AtomSpec,
    ConservationError,
    ProtocolOutcome,
    haar_random_atoms,
    initial_state,
    mz_circuit,
    mz_closed_form,
    run_direct,
    run_fabry_perot,
    run_mz_chain,
)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _prob(x: float) -> str:
    """A probability, or a residual of unit vectors, at absolute resolution
    1e-15: each is known only to about 1e-16, so rounding residue prints 0."""
    return _fmt(round(x, 15))


def format_complex(z: complex) -> str:
    """Render a complex number as ``a+bi`` with 12 significant digits."""
    z = complex(z)
    if z.imag == 0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` style literals (also plain reals and ``bi``)."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}") from None


def _atom_from_args(args) -> AtomSpec:
    if getattr(args, "no_atom", False):
        return AtomSpec(present=False)
    # An amplitude not given is 1/sqrt(2).
    alpha, beta = (complex(1 / math.sqrt(2)) if a is None else a for a in (args.alpha, args.beta))
    norm = math.hypot(abs(alpha), abs(beta))
    if norm == 0:
        raise SystemExit2("atom amplitudes cannot both be zero")
    return AtomSpec(alpha / norm, beta / norm)


class SystemExit2(Exception):
    """Usage or input error; maps to exit code 2."""


def _emit(rows: list[dict], args, header_comment: str | None = None) -> None:
    out = sys.stdout
    if args.output:
        out = open(args.output, "w")
    try:
        if args.format == "json":
            doc: dict = {"rows": rows}
            if header_comment:
                key, _, value = header_comment.partition("=")
                doc[key] = value
            json.dump(doc, out, indent=2)
            out.write("\n")
        else:
            if header_comment:
                out.write(f"# {header_comment}\n")
            if rows:
                cols = list(rows[0])
                out.write(",".join(cols) + "\n")
                for row in rows:
                    out.write(",".join(str(row[c]) for c in cols) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _outcome_row(out: ProtocolOutcome, atom: AtomSpec) -> dict:
    row = {
        "alpha": format_complex(atom.alpha) if atom.present else "",
        "beta": format_complex(atom.beta) if atom.present else "",
        "success_prob": _prob(out.success_prob),
        "failure_prob": _prob(out.failure_prob),
        "absorbed_prob": _prob(out.absorbed_prob),
        "fidelity": _prob(out.success_fidelity) if out.success_fidelity is not None else "",
        "exit_polarization": out.exit_polarization,
    }
    return row


def _sample_atoms(args) -> tuple[list[AtomSpec], str | None]:
    if args.atoms is None:
        return [_atom_from_args(args)], None
    if getattr(args, "no_atom", False):
        raise SystemExit2("--atoms samples present atoms and cannot be combined with --no-atom")
    if getattr(args, "alpha", None) is not None or getattr(args, "beta", None) is not None:
        raise SystemExit2("--atoms samples random atoms and cannot be combined with --alpha or --beta")
    if args.atoms < 1:
        raise SystemExit2("--atoms must be at least 1")
    return haar_random_atoms(args.atoms, seed=args.seed), f"seed={args.seed}"


def cmd_mz_sweep(args) -> None:
    if args.min < 1 or args.max < args.min:
        raise SystemExit2("need 1 <= min <= max")
    samples, header = _sample_atoms(args)
    rows = []
    for n in range(args.min, args.max + 1):
        for atom in samples:
            out = run_mz_chain(n, atom)
            row = {"n_stages": str(n), "closed_form": _prob(mz_closed_form(n))}
            row.update(_outcome_row(out, atom))
            rows.append(row)
    _emit(rows, args, header)


def cmd_fp(args) -> None:
    r, rp = args.r, args.r_prime if args.r_prime is not None else args.r
    t = args.t if args.t is not None else math.sqrt(max(0.0, 1 - r * r))
    tp = args.t_prime if args.t_prime is not None else math.sqrt(max(0.0, 1 - rp * rp))
    atom = _atom_from_args(args)
    out = run_fabry_perot(r, t, rp, tp, atom, eps=args.eps)
    row = {
        "r": _fmt(r),
        "t": _fmt(t),
        "r_prime": _fmt(rp),
        "t_prime": _fmt(tp),
        "round_trips": str(out.details["round_trips"]),
        "reflected": _prob(out.details["reflected"]),
        "transmitted": _prob(out.details["transmitted"]),
    }
    row.update(_outcome_row(out, atom))
    _emit([row], args)


def cmd_direct(args) -> None:
    atom = _atom_from_args(args)
    final = run_direct(args.pol, atom)
    rows = []
    layout = final.layout
    for mode in layout.photon_modes:
        for level in layout.atom_levels:
            amp = final.amplitude(mode, level)
            if amp == 0:
                continue
            mode_str = mode if isinstance(mode, str) else f"{mode[0]}:{mode[1]}"
            rows.append(
                {"mode": mode_str, "level": level, "amplitude": format_complex(amp)}
            )
    _emit(rows, args)


def cmd_nogo_check(args) -> None:
    masks = [frozenset() if m == "none" else frozenset(m.split(",")) for m in args.mask or ["none"]]
    samples, header = _sample_atoms(args)
    circuit = mz_circuit(args.stages)
    factory = functools.partial(initial_state, circuit.layout, circuit.input_path, circuit.input_pol)
    results = transparency_nogo_scan(circuit.layout, circuit.elements, factory, masks, samples)
    rows = []
    for row in results:
        rows.append(
            {
                # Level names hold '+' and '-', so a space joins them.
                "mask": " ".join(sorted(row.mask)) or "none",
                "alpha": format_complex(row.alpha),
                "beta": format_complex(row.beta),
                "witness": "yes" if row.witness_found else "no",
                "residual": _prob(row.residual),
                "delta_sq": _prob(row.delta_sq) if row.delta_sq is not None else "",
            }
        )
    _emit(rows, args, header)


def cmd_run(args) -> None:
    path = Path(args.circuit)
    if path.exists():
        source = path.read_text()
    elif args.circuit in dsl.golden_names():
        source = dsl.load_golden(args.circuit)
    else:
        raise SystemExit2(f"no such circuit file: {args.circuit}")
    ast = dsl.parse(source)
    if args.print_canonical:
        sys.stdout.write(dsl.print_circuit(ast))
        return
    bindings = {}
    for item in args.bind or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise SystemExit2(f"malformed binding (expected NAME=VALUE): {item!r}")
        try:
            bindings[name] = float(value)
        except ValueError:
            raise SystemExit2(f"binding {name!r} is not a number: {value!r}") from None
    circuit = dsl.compile_circuit(ast, bindings)
    atom = _atom_from_args(args)
    out = dsl.run_compiled(circuit, atom, prob_tol=args.prob_tol)
    _emit([_outcome_row(out, atom)], args)


def _add_atom_args(p: argparse.ArgumentParser, allow_samples: bool = False) -> None:
    p.add_argument("--alpha", type=parse_complex, default=None, help="default 1/sqrt(2)")
    p.add_argument("--beta", type=parse_complex, default=None, help="default 1/sqrt(2)")
    p.add_argument("--no-atom", action="store_true", help="run with the atom removed")
    if allow_samples:
        p.add_argument("--atoms", type=int, default=None, help="number of random atom samples")
        p.add_argument("--seed", type=int, default=0)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nqisim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mz-sweep", help="sweep the stage count of the interferometer chain")
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, default=16)
    _add_atom_args(p, allow_samples=True)
    _add_output_args(p)
    p.set_defaults(func=cmd_mz_sweep)

    p = sub.add_parser("fp", help="run the two-mirror cavity")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--r-prime", type=float, default=None)
    p.add_argument("--t-prime", type=float, default=None)
    p.add_argument(
        "--eps", type=float, default=1e-12,
        help="report as round_trips the first trip count that leaves less than this "
        "probability inside; the result itself is exact at any eps",
    )
    _add_atom_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_fp)

    p = sub.add_parser("direct", help="single-pass interaction, final amplitudes")
    p.add_argument("--pol", default="x")
    _add_atom_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_direct)

    p = sub.add_parser("nogo-check", help="witness existence scan over transparency masks")
    p.add_argument("--stages", type=int, default=8)
    p.add_argument(
        "--mask",
        action="append",
        help="comma-joined levels, or 'none'; repeatable",
    )
    p.add_argument("--atoms", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p)
    p.set_defaults(func=cmd_nogo_check)

    p = sub.add_parser("run", help="compile and execute a circuit file")
    p.add_argument("circuit", help="path to a .nqi file, or the name of a bundled circuit")
    p.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p.add_argument("--prob-tol", type=float, default=1e-9)
    p.add_argument(
        "--print", dest="print_canonical", action="store_true",
        help="print the canonical form instead of running",
    )
    _add_atom_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConservationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SystemExit2, dsl.ParseError, dsl.CompileError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
