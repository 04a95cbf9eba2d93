"""Command-line interface.

Subcommands:

  report              entropies + all correlation measures for one system
  scan-n3             sweep the third quantum number for both symmetries
  scan-superposition  sweep the superposition coefficient c1^2
  tables              recompute benchmark tables 1/2 against embedded
                      reference values (pass/fail per cell)
  density-grid        export a pair density on a grid as CSV

Each subcommand takes only the options its ``cmd_*`` function reads
(``_option_groups``); ``--config`` and ``--out`` go with every one.
Options may also come from a flat ``key = value`` config file
(``--config``): each key must be an option of the subcommand, and is
checked as that flag; explicit flags win.  The parser is built once per
process (``build_parser``), so a call to ``main`` only parses; every call
gets its own namespace, and no call changes the parser.  Exit codes: 0
ok, 1 reproduction mismatch, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .densities import export_density_grid, reduce_numerical
from .information import compute_report, compute_reports
from .orbitals import MOMENTUM, POSITION, ModelParams
from .quadrature import NonConvergenceError, QuadratureScheme
from .reference_tables import ROW_KEYS, ROW_LABELS, TABLE_TOLERANCE, table_spec
from .superposition import (
    DEFAULT_C1SQ_GRID,
    SuperpositionSpec,
    scan_coefficient,
)
from .wavefunction import Configuration, parse_symmetry

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _parse_ns(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse quantum numbers {text!r}") from None


def _config_tokens(path, subparser):
    """A flat ``key = value`` file as ``--option=value`` tokens of ``subparser``."""
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.strip()!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise ValueError(f"unknown config key {key!r}")
            if action.nargs != 0:
                tokens.append(f"{action.option_strings[0]}={val}")
            elif val.lower() in ("1", "true", "yes", "on"):
                tokens.append(action.option_strings[0])
            elif val.lower() not in ("0", "false", "no", "off"):
                raise ValueError(f"config key {key!r} is a switch: expected "
                                 f"1/true/yes/on or 0/false/no/off, got {val!r}")
    return tokens


def _model_params(args):
    if args.model == "box":
        return ModelParams.box(args.L)
    return ModelParams.oscillator(args.omega)


def _scheme(args):
    kwargs = {}
    if args.panels is not None:
        kwargs.update(panels=args.panels, panels_3d=args.panels,
                      line_panels=args.panels, line_panels_3d=args.panels)
    if args.nodes is not None:
        kwargs["nodes_per_panel"] = args.nodes
    if args.tol is not None:
        kwargs["target_abs_tol"] = args.tol
    return QuadratureScheme(**kwargs)


def _spaces(args):
    return [POSITION, MOMENTUM] if args.space == "both" else [args.space]


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _report_rows_to_text(rows, fmt):
    """``as_dict`` rows as JSON, as CSV with the first row's keys, or as text."""
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = list(rows[0])
        writer.writerow(keys)
        for r in rows:
            writer.writerow(
                f"{r[k]:.12g}" if isinstance(r[k], float) else str(r[k])
                for k in keys)
        return buf.getvalue().rstrip("\n")
    # aligned table, one column per row dict, mirrors the benchmark layout
    lines = []
    for r in rows:
        lines.append(f"# {r['system']}  [{r['space']}]")
        for key in ROW_KEYS:
            if key in r:
                lines.append(f"{ROW_LABELS[key]:<14} {r[key]:>12.6f}")
        if r.get("error_estimate") is not None:
            lines.append(f"{'(est. error)':<14} {r['error_estimate']:>12.2e}")
    return "\n".join(lines)


def _emit_reports(configs, args):
    """Report ``configs`` as one batch and write their rows in ``args.format``."""
    rows = [rep.as_dict() for rep in compute_reports(configs, _scheme(args))]
    _emit(_report_rows_to_text(rows, args.format), args.out)
    return 0


def cmd_report(args):
    ns = _parse_ns(args.n)
    configs = [Configuration(_model_params(args), ns, parse_symmetry(args.sym), space)
               for space in _spaces(args)]
    return _emit_reports(configs, args)


def cmd_scan_n3(args):
    params = _model_params(args)
    base = _parse_ns(args.n)
    if len(base) != 2:
        raise ValueError("scan-n3 expects --n with the two fixed quantum numbers")
    lo, _, hi = args.n3_range.partition(":")
    try:
        n3_values = range(int(lo), int(hi) + 1)
    except ValueError:
        raise ValueError(f"--n3-range takes lo:hi integers, not {args.n3_range!r}") from None
    if not n3_values:
        raise ValueError(f"--n3-range {args.n3_range!r} is empty: need lo <= hi")
    # one batch, so each S/A pair shares its orbital tables and s3 pass
    configs = [Configuration(params, base + (n3,), parse_symmetry(sym_tag), space)
               for space in _spaces(args) for n3 in n3_values
               for sym_tag in ("a", "s")
               if not (n3 in base and sym_tag == "a")]  # determinant vanishes
    return _emit_reports(configs, args)


def cmd_scan_superposition(args):
    params = _model_params(args)
    ns_a = _parse_ns(args.n)
    ns_b = _parse_ns(args.n_second)
    sym = parse_symmetry(args.sym)
    scheme = _scheme(args)
    try:
        samples = [float(v) for v in args.c1sq_grid.split(",")] \
            if args.c1sq_grid else list(DEFAULT_C1SQ_GRID)
    except ValueError:
        raise ValueError("--c1sq-grid takes comma-separated numbers, "
                         f"not {args.c1sq_grid!r}") from None
    results = []
    for space in _spaces(args):
        spec = SuperpositionSpec(
            state_a=Configuration(params, ns_a, sym, space),
            state_b=Configuration(params, ns_b, sym, space),
            c1=1.0,
            interference=not args.no_interference)
        results.append(scan_coefficient(spec, samples, scheme).to_csv())
    _emit("\n".join(results).rstrip("\n"), args.out)
    return 0


def cmd_tables(args):
    reference, base, model_kwargs = table_spec(args.which)
    params = ModelParams(**model_kwargs)
    scheme = _scheme(args)
    failures = []
    lines = []
    n3_values = sorted({n3 for (_, n3) in reference})
    header = ["quantity"] + [f"{s.upper()}{n3}" for n3 in n3_values
                             for s in ("a", "s")]
    lines.append("  ".join(f"{h:>12}" for h in header))
    rows = {}
    for (sym_tag, n3) in reference:
        cfg = Configuration(params, base + (n3,), parse_symmetry(sym_tag))
        rows[sym_tag, n3] = compute_report(cfg, scheme, with_error=False).as_dict()
    for key in ROW_KEYS:
        cells = [f"{ROW_LABELS[key]:>12}"]
        for n3 in n3_values:
            for sym_tag in ("a", "s"):
                got = rows[sym_tag, n3][key]
                want = reference[(sym_tag, n3)][key]
                delta = got - want
                if abs(delta) > TABLE_TOLERANCE:
                    failures.append(
                        f"{ROW_LABELS[key]} [{sym_tag.upper()}, n3={n3}]: "
                        f"computed {got:.4f}, reference {want:.4f}, "
                        f"|delta| {abs(delta):.1e}")
                cells.append(f"{got:12.4f}")
        lines.append("  ".join(cells))
    lines.append("")
    n_cells = len(reference) * len(ROW_KEYS)
    if failures:
        lines.append(f"FAIL: {len(failures)}/{n_cells} cells outside "
                     f"|delta| <= {TABLE_TOLERANCE:g}")
        lines.extend("  " + f for f in failures)
    else:
        lines.append(f"PASS: all {n_cells} cells within "
                     f"|delta| <= {TABLE_TOLERANCE:g}")
    _emit("\n".join(lines), args.out)
    return 1 if failures else 0


def cmd_density_grid(args):
    params = _model_params(args)
    ns = _parse_ns(args.n)
    sym = parse_symmetry(args.sym)
    if args.space == "both":
        raise ValueError("density-grid needs a single space")
    cfg = Configuration(params, ns, sym, args.space)
    # for two particles the pair density is |Psi|^2 itself
    text = export_density_grid(reduce_numerical(cfg, 2), n_points=args.points)
    _emit(text.rstrip("\n"), args.out)
    return 0


def _option_groups():
    """Parent parsers: a subcommand takes the groups its ``cmd_*`` reads."""
    common, model, sym, space, scheme, fmt = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    model.add_argument("--model", choices=["box", "ho"], default="box")
    model.add_argument("--L", type=float, default=1.0, help="box length")
    model.add_argument("--omega", type=float, default=1.0, help="trap strength")
    sym.add_argument("--sym", default="a",
                     help="s (symmetric) | a (antisymmetric) | d (distinguishable)")
    space.add_argument("--space", default="position",
                       choices=["position", "momentum", "both"])
    scheme.add_argument("--panels", type=int, default=None,
                        help="panels per axis (overrides all defaults)")
    scheme.add_argument("--nodes", type=int, default=None, help="nodes per panel")
    scheme.add_argument("--tol", type=float, default=None,
                        help="target absolute tolerance")
    fmt.add_argument("--format", choices=["json", "csv", "table"],
                     default="table")
    return common, model, sym, space, scheme, fmt


@functools.cache
def build_parser():
    """Returns (parser, {command: subparser}) for default-value lookups.

    Built on the first call and shared by every later one in the process:
    parsing reads the parsers and never changes them, so callers must not
    change them either (no ``set_defaults``, ``add_argument`` or edits to
    the subparser dict).
    """
    parser = argparse.ArgumentParser(
        prog="symcorr",
        description="Entropies and mutual-information hierarchy for "
                    "few-particle model systems")
    sub = parser.add_subparsers(dest="command", required=True)
    common, model, sym, space, scheme, fmt = _option_groups()

    p = sub.add_parser("report", help="one system, all measures",
                       parents=[common, model, sym, space, scheme, fmt])
    p.add_argument("--n", required=True, help="comma-separated quantum numbers")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("scan-n3", help="sweep the third quantum number",
                       parents=[common, model, space, scheme, fmt])
    p.add_argument("--n", default="1,2", help="the two fixed quantum numbers")
    p.add_argument("--n3-range", default="3:6", help="inclusive range lo:hi")
    p.set_defaults(func=cmd_scan_n3)

    p = sub.add_parser("scan-superposition",
                       help="sweep the superposition coefficient",
                       parents=[common, model, sym, space, scheme])
    p.add_argument("--n", default="1,2,3", help="first configuration")
    p.add_argument("--n-second", default="4,5,6", help="second configuration")
    p.add_argument("--no-interference", action="store_true",
                   help="drop the c1*c2 cross terms from the density")
    p.add_argument("--c1sq-grid", default=None,
                   help="comma-separated c1^2 samples")
    p.set_defaults(func=cmd_scan_superposition)

    p = sub.add_parser("tables", help="reproduce a benchmark table",
                       parents=[common, scheme])
    p.add_argument("--which", type=int, choices=[1, 2], required=True)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("density-grid", help="export a pair density grid",
                       parents=[common, model, sym, space])
    p.add_argument("--n", required=True, help="comma-separated quantum numbers")
    p.add_argument("--points", type=int, default=101, help="grid points per axis")
    p.set_defaults(func=cmd_density_grid)

    return parser, dict(sub.choices)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = build_parser()

    def parse(tokens):
        args, extra = parser.parse_known_args(tokens)
        if extra:  # with the subcommand's usage, which lists what it takes
            subparsers[args.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
        return args

    args = parse(argv)
    try:
        if args.config:  # ahead of argv: argparse checks each value, flags win
            tokens = _config_tokens(args.config, subparsers[args.command])
            args = parse(argv[:1] + tokens + argv[1:])
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
