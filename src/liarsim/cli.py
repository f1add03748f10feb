"""Command-line front end: simulate, verify, metrics, estimate, truthtable.

Every command emits one JSON report with a fixed envelope (command, config,
seed, inputs with sha256 hashes of any files read, plus command-specific
fields).  JSON is rendered canonically (sorted keys, two-space indent), so a
rerun with the same arguments writes byte-identical output.  --pretty swaps
stdout to a human rendering; --out always receives the canonical JSON.

The canonical text is json.dumps(report, indent=2, sort_keys=True), which
_indented renders directly and the tests hold every report to.  Reports are
written by _render, one recursive walk that spells each scalar itself and
hands some values to a faster encoder with the same bytes: a list of scalars
to one call of the C encoder, and to dist._render_rows a Distribution, a
_Table (a list of rows held by column, such as the truth table, whose --csv
file is laid out from the same columns) and a dist._Bits, a list of
bitstrings held as an int64 index array (a metrics report's consistent and
paradox sets).  _render_rows fills one row template from literal text,
bitstring columns and coded columns (a few texts picked per row by an int
code array), formatting each row in Python up to dist._FORMAT_EACH rows and
as uint8 blocks above that.  Only a dict whose keys are not all str goes to
_indented.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
Every failure prints one "liarsim <subcommand>: <message>" line on stderr, or
"liarsim: <message>" when the arguments name no subcommand.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
from collections.abc import Iterable
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .circuit import (OR_ACCUMULATE, PARITY, Circuit, _write_text, build_general,
                      build_liar_literal, build_liar_reference, circuit_from_json,
                      gate_census, general_width, save_circuit)
from .dist import (COUNTS, PROBABILITY, Distribution, _Bits, _Coded, _render_rows,
                   bitstrings, bundled_table_names, load_reference_table,
                   parse_distribution_csv, render_entries, write_counts_csv)
from .hardware_model import (MAX_GRAPH_NODES, CouplingGraph, NoiseProfile,
                             load_bundled_graph, make_graph, noisy_sample,
                             parse_graph_text, routing_estimate)
from .logic_ops import _LABELS, MAX_PAIRS, _truth_columns, _verify
from .metrics import MetricsConfig, _report
from .statevec import (DEFAULT_SEED, MAX_QUBITS, MAX_SHOTS, probabilities,
                       run_circuit, sample_counts)

USAGE_EXIT = 1
VERIFY_EXIT = 2
IO_EXIT = 3

TRUTHTABLE_MAX_PAIRS = 6
_TRUTHTABLE_COLUMNS = ("contradictions", "resolutions", "flag_in", "rule_flag",
                       "classification", "circuit_flag", "diverges")
BUNDLED_GRAPH_ARG = "bundled:heavy-hex"
_LIARS = {"liar-reference": build_liar_reference, "liar-literal": build_liar_literal}


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse prints its usage text and exits 2 on bad flags; this tool
    reserves 2 for verification failures, and main() reports a usage error
    in one line and exits 1."""

    def error(self, message):
        raise CliError(USAGE_EXIT, message)


# ---------------------------------------------------------------------------
# shared plumbing

class _Table:
    """A report field that is a list of `size` dicts sharing one set of str
    keys, held by column.  `columns` maps each key to a scalar that every row
    holds, a dist._Bits whose row i holds its i-th bitstring, or a dist._Coded
    whose row i holds choices[codes[i]], choices being JSON scalars."""

    __slots__ = ("size", "columns")

    def __init__(self, size: int, columns: dict):
        self.size, self.columns = size, columns

    def rows(self) -> list[dict]:
        """The field as the list of dicts it stands for."""
        values = []
        for column in self.columns.values():
            if isinstance(column, _Bits):
                values.append(bitstrings(column.indices, column.width))
            elif isinstance(column, _Coded):
                values.append([column.choices[c] for c in column.codes.tolist()])
            else:
                values.append(repeat(column, self.size))
        return [dict(zip(self.columns, row)) for row in zip(*values)]

    def row_parts(self, keys: Iterable[str], spell, quote: str, heads: Iterable[str],
                  end: str) -> list:
        """dist._render_rows parts for one row: each head in turn followed by
        the column of the key beside it, its values spelled by spell() and a
        bitstring between two quote texts; end closes the row."""
        parts = []
        for head, key in zip(heads, keys):
            column = self.columns[key]
            if isinstance(column, _Bits):
                parts += [head + quote, column, quote]
            elif isinstance(column, _Coded):
                parts += [head, _Coded(tuple(map(spell, column.choices)), column.codes)]
            else:
                parts.append(head + spell(column))
        return parts + [end]


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Distribution):  # as rendered: counts are integers
        if value.kind == COUNTS:
            return {k: int(v) for k, v in value.entries.items()}
        return dict(value.entries.items())
    if isinstance(value, _Table):
        return _strict_numbers(value.rows())
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _strict_numbers(value):
    """Strict JSON has no Infinity/NaN literals; encode them as strings so the
    reports stay parseable outside Python (the chi-squared statistic is inf
    whenever observed counts land on an outcome the ideal forbids).  A
    dist._Bits, a tuple that json.dumps would encode as its two fields,
    becomes the list of bitstrings it stands for."""
    if isinstance(value, _Bits):
        return bitstrings(value.indices, value.width)
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if float(value) > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _strict_numbers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_numbers(v) for v in value]
    return value


def _indented(value, pad: str) -> str:
    """The reference rendering of value, for a line that starts with pad."""
    text = json.dumps(_strict_numbers(value), indent=2, sort_keys=True,
                      allow_nan=False, default=_json_default)
    return text.replace("\n", "\n" + pad)  # JSON strings hold no raw newline


def _scalar_texts(values) -> list[str]:
    """The JSON text of each scalar in values, from one call of the C
    encoder; an encoded scalar holds no raw newline to split on."""
    try:
        text = json.dumps(values, allow_nan=False, default=_json_default,
                          separators=("\n", ": "))
    except ValueError:  # inf or nan: _strict_numbers spells them out
        text = json.dumps(_strict_numbers(values), allow_nan=False,
                          default=_json_default, separators=("\n", ": "))
    return text[1:-1].split("\n")


def _spell(value) -> str:
    """The JSON text of a scalar, as _indented spells it."""
    if isinstance(value, (float, np.floating)):
        value = _strict_numbers(float(value))  # inf and nan become strings
        if isinstance(value, float):
            return repr(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, (bool, np.bool_)):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    return _json_default(value)  # not JSON: raises TypeError


_CONTAINERS = (dict, list, tuple, Distribution, _Table)


def _render(value, pad: str, out: list) -> None:
    """Append the pieces of _indented(value, pad) to out.  A dict with str
    keys is walked in sorted-key order and a list or tuple that holds a
    container item by item, each scalar spelled by _spell.  Any other list is
    encoded by one _scalar_texts call, and a Distribution, a _Table or a
    dist._Bits laid out by dist._render_rows.  Only a dict with other keys,
    which json.dumps coerces to str and sorts as they were, goes to
    _indented."""
    if isinstance(value, dict) and not all(type(key) is str for key in value):
        out.append(_indented(value, pad))
        return
    if not isinstance(value, _CONTAINERS):
        out.append(_spell(value))
        return
    inner, sep = pad + "  ", ",\n" + pad + "  "
    brackets = "{}" if isinstance(value, (dict, Distribution)) else "[]"
    out.append(brackets[0] + "\n" + inner)
    start = len(out)
    if isinstance(value, Distribution):
        out += render_entries(value, '"', '": ', sep)
    elif isinstance(value, _Table):
        keys, field = sorted(value.columns), "\n" + inner + "  "
        heads = [("," if i else "{") + field + _spell(key) + ": "
                 for i, key in enumerate(keys)]
        out += _render_rows(value.row_parts(keys, _spell, '"', heads,
                                            "\n" + inner + "}" + sep), value.size)
    elif isinstance(value, _Bits):  # a tuple, so before the tuple walk
        out += _render_rows(['"', value, '"' + sep], len(value.indices))
    elif isinstance(value, dict) or any(issubclass(kind, _CONTAINERS)
                                        for kind in set(map(type, value))):
        items = (((_spell(key) + ": ", value[key]) for key in sorted(value))
                 if isinstance(value, dict) else zip(repeat(""), value))
        for label, item in items:
            if isinstance(item, _CONTAINERS):
                out.append(label)
                _render(item, inner, out)
                out.append(sep)
            else:
                out.append(label + _spell(item) + sep)
    elif value:
        out.append(sep.join(_scalar_texts(value)) + sep)
    if len(out) == start:  # empty
        out[-1] = brackets
    else:
        out[-1] = out[-1][:-len(sep)]
        out.append("\n" + pad + brackets[1])


def _document(payload) -> list[str]:
    """canonical_json(payload) as pieces to write in turn, so no copy of the
    whole document is made."""
    out: list[str] = []
    _render(payload, "", out)
    return out + ["\n"]


def canonical_json(payload: dict) -> str:
    """json.dumps(_strict_numbers(payload), indent=2, sort_keys=True,
    allow_nan=False, default=_json_default) plus a newline, byte for byte."""
    return "".join(_document(payload))


def _emit(args, config: dict, inputs: dict, fields: dict, pretty) -> None:
    """Write the report: the envelope (command, config, seed, inputs) plus the
    command's fields.  Canonical JSON goes to --out if given; stdout gets the
    lines pretty() returns under --pretty, the only case that calls it, and
    otherwise the JSON (suppressed when --out already has it).  Everything is
    rendered before --out is opened, so a failed render leaves no file."""
    pieces = _document({"command": args.subcommand, "config": config,
                        "seed": args.seed, "inputs": inputs, **fields})
    text = "\n".join(pretty()) + "\n" if args.pretty else None
    if args.out:
        _write_text(args.out, pieces)
    if args.pretty:
        sys.stdout.write(text)
    elif not args.out:
        sys.stdout.writelines(pieces)


def _text(data: bytes, newline: str | None = None) -> io.TextIOWrapper:
    """data as a text stream that decodes and splits lines exactly as
    open(path, encoding="utf-8", newline=newline) reads the file."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)


def _read_input(source: str, parse, inputs: dict, missing: str,
                unparsable: str) -> tuple:
    """parse(data, str(path)) of the bytes of the input file at source, and
    str(path).  The file is read once, and the sha256 of the bytes parsed
    goes into inputs.  A missing file exits 3 with the message missing, and
    a ValueError from parse with "<unparsable>: <error>"."""
    path = Path(source)
    if not path.is_file():
        raise CliError(IO_EXIT, missing)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        value = parse(data, str(path))
    except ValueError as exc:
        raise CliError(IO_EXIT, f"{unparsable}: {exc}") from exc
    inputs[str(path)] = hashlib.sha256(data).hexdigest()
    return value, str(path)


def _parse_noise(text: str, seed: int) -> NoiseProfile:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(USAGE_EXIT, "--noise needs three values: p1q,p2q,pread")
    try:
        p_1q, p_2q, p_readout = (float(x) for x in parts)
    except ValueError as exc:
        raise CliError(USAGE_EXIT, f"--noise values must be numbers: {text!r}") from exc
    return NoiseProfile(p_1q=p_1q, p_2q=p_2q, p_readout=p_readout, seed=seed)


def _parse_state_set(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    states = tuple(s.strip() for s in text.split(",") if s.strip())
    if not states:
        raise CliError(USAGE_EXIT, "empty state set")
    return states


def _noise_dict(profile: NoiseProfile) -> dict:
    return {"p_1q": profile.p_1q, "p_2q": profile.p_2q,
            "p_readout": profile.p_readout}


# ---------------------------------------------------------------------------
# simulate

def _resolve_circuit(args, inputs: dict) -> tuple[Circuit, str]:
    name = args.circuit
    if name in _LIARS:
        return _LIARS[name](), name
    if name == "general":
        mode = PARITY if args.mode == "parity" else OR_ACCUMULATE
        if not 1 <= args.pairs or general_width(args.pairs, mode) > MAX_QUBITS:
            cap = max(m for m in range(1, MAX_QUBITS + 1)
                      if general_width(m, mode) <= MAX_QUBITS)
            raise CliError(USAGE_EXIT, f"--pairs must be in 1..{cap} for mode "
                                       f"{args.mode}, got {args.pairs}")
        circuit = build_general(args.pairs, mode, with_phase=args.with_phase)
        return circuit, f"general(pairs={args.pairs}, mode={args.mode})"
    return _read_input(name,
                       lambda data, where: circuit_from_json(_text(data).read()),
                       inputs, f"no such circuit: {name} (expected a named circuit "
                       f"or a circuit JSON file)",
                       f"cannot parse circuit file {name}")


def cmd_simulate(args) -> int:
    if args.noise is not None and args.shots is None:
        raise CliError(USAGE_EXIT, "--noise requires --shots")
    if args.csv is not None and args.shots is None:
        raise CliError(USAGE_EXIT, "--csv requires --shots")
    if args.shots is not None and not 1 <= args.shots <= MAX_SHOTS:
        raise CliError(USAGE_EXIT,
                       f"--shots must be in 1..{MAX_SHOTS}, got {args.shots}")

    inputs: dict = {}
    circuit, source = _resolve_circuit(args, inputs)
    profile = _parse_noise(args.noise, args.seed) if args.noise else None

    state = run_circuit(circuit)
    probs = probabilities(state)

    counts = None
    if args.shots is not None:
        if profile is not None:
            counts = noisy_sample(circuit, profile, args.shots, ideal=state)
        else:
            counts = sample_counts(state, args.shots, args.seed)

    if args.circuit_out:
        save_circuit(circuit, args.circuit_out)
    if args.csv and counts is not None:
        write_counts_csv(counts, args.csv)

    census = gate_census(circuit)
    general = args.circuit == "general"
    config = {
        "circuit": source,
        "pairs": args.pairs if general else None,
        "mode": args.mode if general else None,
        "with_phase": args.with_phase if general else None,
        "shots": args.shots,
        "noise": _noise_dict(profile) if profile else None,
    }

    def pretty():
        lines = [f"circuit: {source} ({circuit.num_qubits} qubits, "
                 f"{len(circuit.gates)} gates, depth {census.depth})",
                 "probabilities:"]
        lines += [f"  {s}  {p:.12f}" for s, p in sorted(probs.entries.items())]
        if counts is not None:
            noise_tag = " (noisy)" if profile else ""
            lines.append(f"counts over {args.shots} shots{noise_tag}, seed {args.seed}:")
            lines += [f"  {s}  {int(c)}" for s, c in sorted(counts.entries.items())]
        return lines

    _emit(args, config, inputs, {
        "num_qubits": circuit.num_qubits,
        "gate_count": len(circuit.gates),
        "census": dict(vars(census)),
        "probabilities": probs,
        "counts": counts,
    }, pretty)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    if not 1 <= args.pairs <= MAX_PAIRS:
        raise CliError(USAGE_EXIT,
                       f"--pairs must be in 1..{MAX_PAIRS}, got {args.pairs}")
    checks, fixed = _verify(args.pairs)
    all_passed = all(c.passed for c in checks)

    def pretty():
        lines = [f"identity suite on {args.pairs} pair(s):"]
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  {status}  {c.name}  (max deviation {c.max_deviation:.3e})")
            if c.detail:
                lines.append(f"        {c.detail}")
        lines.append(fixed.note)
        lines.append("all checks passed" if all_passed else "SOME CHECKS FAILED")
        return lines

    _emit(args, {"pairs": args.pairs}, {}, {
        "checks": [dict(vars(c)) for c in checks],
        "all_passed": all_passed,
        "fixed_points": dict(vars(fixed)),
    }, pretty)
    if not all_passed:
        raise CliError(VERIFY_EXIT, "verification failed")
    return 0


# ---------------------------------------------------------------------------
# metrics

def _resolve_distribution(source: str, column: str, inputs: dict) -> tuple[Distribution, str]:
    if source.startswith("bundled:"):
        arm = source.split(":", 1)[1]
        if arm not in bundled_table_names():
            raise CliError(USAGE_EXIT,
                           f"unknown bundled table {arm!r}; "
                           f"choose from {', '.join(bundled_table_names())}")
        wanted = PROBABILITY if column == "auto" else column
        return load_reference_table(arm, column=wanted), source
    if source in _LIARS:
        return probabilities(run_circuit(_LIARS[source]())), source
    return _read_input(source,
                       lambda data, where: parse_distribution_csv(
                           _text(data, newline=""), where, column),
                       inputs, f"no such distribution file: {source}",
                       f"cannot parse {source}")


def cmd_metrics(args) -> int:
    inputs: dict = {}
    experimental, exp_source = _resolve_distribution(args.exp, args.column, inputs)
    ideal, ideal_source = _resolve_distribution(args.ideal, args.column, inputs)

    config = MetricsConfig(
        consistent_set=_parse_state_set(args.consistent_set),
        paradox_set=_parse_state_set(args.paradox_set),
        flag_index=args.flag_index,
    )
    report = _report(experimental, ideal, config)

    def pretty():
        def fmt(value, digits=6):
            return "n/a" if value is None else f"{value:.{digits}f}"

        lines = [
            f"experimental: {exp_source} ({experimental.kind})",
            f"ideal:        {ideal_source} ({ideal.kind})",
            f"F_C(experimental) = {fmt(report['f_c_experimental'])}",
            f"F_C(ideal)        = {fmt(report['f_c_ideal'])}",
            f"D_TV              = {fmt(report['d_tv'])}",
            f"R_I               = {fmt(report['r_i'])}"
            + (f"   ({report['r_i_note']})" if report["r_i_note"] else ""),
            f"chi2 statistic    = {fmt(report['chi2_statistic'], 4)}"
            + (f"  dof {report['chi2_dof']}  p {fmt(report['chi2_p_value'], 4)}"
               if report["chi2_statistic"] is not None else ""),
        ]
        if report["chi2_note"]:
            lines.append(f"chi2 note: {report['chi2_note']}")
        lines.append(f"<Z_flag>(experimental) = {fmt(report['z_flag_experimental'])}")
        lines.append(f"<Z_flag>(ideal)        = {fmt(report['z_flag_ideal'])}")
        return lines

    _emit(args, {
        "exp": args.exp,
        "ideal": args.ideal,
        "column": args.column,
        "consistent_set": list(config.consistent_set) if config.consistent_set else None,
        "paradox_set": list(config.paradox_set) if config.paradox_set else None,
        "flag_index": config.flag_index,
    }, inputs, {
        "sources": {
            "experimental": {"source": exp_source, "kind": experimental.kind,
                             "total": experimental.total()},
            "ideal": {"source": ideal_source, "kind": ideal.kind,
                      "total": ideal.total()},
        },
        "report": report,
    }, pretty)
    return 0


# ---------------------------------------------------------------------------
# estimate

def _resolve_graph(source: str, size: int | None, needed: int,
                   inputs: dict) -> tuple[CouplingGraph, str]:
    if source == BUNDLED_GRAPH_ARG:
        return load_bundled_graph(), source
    if source in ("linear", "ring"):
        node_count = size if size is not None else needed  # n + 1 >= 3 nodes
        return make_graph(source, size=node_count), f"{source}({node_count})"
    return _read_input(source,
                       lambda data, where: parse_graph_text(_text(data).read(), where),
                       inputs, f"no such graph file: {source}",
                       f"cannot parse graph {source}")


def cmd_estimate(args) -> int:
    # the circuit has n + 1 qubits, each needing its own graph node
    if not 2 <= args.n < MAX_GRAPH_NODES or args.n % 2 != 0:
        raise CliError(USAGE_EXIT, f"--n must be an even integer in "
                                   f"2..{MAX_GRAPH_NODES - 2}, got {args.n}")
    pairs = args.n // 2
    circuit = build_general(pairs, PARITY)

    inputs: dict = {}
    graph, graph_source = _resolve_graph(args.graph, args.graph_size,
                                         circuit.num_qubits, inputs)
    layout = None
    if args.layout is not None:
        try:
            layout = tuple(int(x) for x in args.layout.split(","))
        except ValueError as exc:
            raise CliError(USAGE_EXIT,
                           "--layout must be comma-separated integers") from exc
    profile = _parse_noise(args.noise, args.seed) if args.noise else NoiseProfile(seed=args.seed)

    estimate = routing_estimate(circuit, graph, layout=layout, profile=profile)

    def pretty():
        return [
            f"general circuit, {pairs} pair(s) ({args.n} statement qubits, "
            f"{circuit.num_qubits} total with flag)",
            f"graph: {graph_source} ({graph.num_nodes} nodes, "
            f"{len(graph.edges)} edges, max degree {graph.max_degree()})",
            f"g_2q = {estimate.g_2q}   g_1q = {estimate.g_1q}   depth = {estimate.depth}",
            f"mean interaction distance = {estimate.mean_distance:.4f}",
            f"swap overhead (CNOT-equivalents, forward+back) = {estimate.swap_overhead_cnots}",
            f"fidelity estimate = {estimate.fidelity:.6f}",
        ]

    _emit(args, {
        "n": args.n,
        "pairs": pairs,
        "graph": args.graph,
        "graph_size": args.graph_size,
        "layout": list(layout) if layout else None,
        "noise": _noise_dict(profile),
    }, inputs, {
        "graph": {
            "source": graph_source,
            "num_nodes": graph.num_nodes,
            "num_edges": len(graph.edges),
            "max_degree": graph.max_degree(),
            "connected": graph.is_connected(),
        },
        "estimate": estimate.to_dict(),
    }, pretty)
    return 0


# ---------------------------------------------------------------------------
# truthtable

def _truth_table(m: int, flag_in: int) -> _Table:
    """The truthtable report's rows, one per pair assignment in index order,
    each pair register half as a bitstring, highest pair index leftmost."""
    inputs, rule_flags, labels, circuit_flags = _truth_columns(m, flag_in)
    pairs = (1 << m) - 1
    return _Table(len(inputs), {
        "circuit_flag": _Coded((0, 1), circuit_flags),
        "classification": _Coded(_LABELS, labels),
        "contradictions": _Bits(inputs & pairs, m),
        "diverges": _Coded((False, True), (rule_flags != circuit_flags).astype(np.int64)),
        "flag_in": flag_in,
        "resolutions": _Bits((inputs >> m) & pairs, m),
        "rule_flag": _Coded((0, 1), rule_flags),
    })


def cmd_truthtable(args) -> int:
    if not 1 <= args.pairs <= TRUTHTABLE_MAX_PAIRS:
        raise CliError(USAGE_EXIT,
                       f"--pairs must be in 1..{TRUTHTABLE_MAX_PAIRS}, got {args.pairs}")
    m, flag_in = args.pairs, args.flag_in
    table = _truth_table(m, flag_in)
    divergent = int(table.columns["diverges"].codes.sum())

    if args.csv:  # no field holds a comma, quote or line break: none is quoted
        heads = ["", *repeat(",", len(_TRUTHTABLE_COLUMNS) - 1)]
        parts = table.row_parts(_TRUTHTABLE_COLUMNS, str, "", heads, "\r\n")
        _write_text(args.csv, chain((",".join(_TRUTHTABLE_COLUMNS) + "\r\n",),
                                    _render_rows(parts, table.size)), newline="")

    def pretty():
        lines = [f"truth table, {m} pair(s), flag_in={flag_in}:",
                 f"{'c':>{m}} {'r':>{m}} flag_in rule circuit "
                 f"diverges classification"]
        lines += [f"{row['contradictions']:>{m}} {row['resolutions']:>{m}} "
                  f"{flag_in:>7} {row['rule_flag']:>4} {row['circuit_flag']:>7} "
                  f"{'yes' if row['diverges'] else '.':>8} {row['classification']}"
                  for row in table.rows()]
        lines.append(f"{divergent} divergent row(s)")
        return lines

    _emit(args, {"pairs": m, "flag_in": flag_in}, {},
          {"rows": table, "divergent_rows": divergent}, pretty)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="liarsim",
                     description="Statevector simulation and consistency "
                                 "verification for coherence-flag circuits.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"RNG seed echoed in every report (default {DEFAULT_SEED})")
        p.add_argument("--out", metavar="FILE", help="write the JSON report here")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable stdout instead of JSON")

    p_sim = sub.add_parser("simulate", help="run a circuit, print probabilities "
                                            "and optional sampled counts")
    p_sim.add_argument("circuit",
                       help="liar-reference | liar-literal | general | circuit JSON file")
    p_sim.add_argument("--pairs", type=int, default=2,
                       help="pair count for the general circuit (default 2)")
    p_sim.add_argument("--mode", choices=("parity", "or"), default="parity",
                       help="flag semantics for the general circuit")
    p_sim.add_argument("--with-phase", action="store_true",
                       help="add the conditional-phase stage to the general circuit")
    p_sim.add_argument("--shots", type=int, help="sample this many measurement shots")
    p_sim.add_argument("--noise", metavar="P1Q,P2Q,PREAD",
                       help="sample through the noise channel instead of exactly")
    p_sim.add_argument("--csv", metavar="FILE", help="write sampled counts as CSV")
    p_sim.add_argument("--circuit-out", metavar="FILE",
                       help="save the resolved circuit as JSON")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the operator-identity and "
                                          "circuit-equivalence suite")
    p_ver.add_argument("--pairs", type=int, default=2,
                       help=f"register size in pairs, 1..{MAX_PAIRS} (default 2)")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_met = sub.add_parser("metrics", help="compare an experimental distribution "
                                           "against an ideal one")
    p_met.add_argument("--exp", required=True,
                       help="CSV file, bundled:simulation, bundled:hardware, "
                            "liar-reference, or liar-literal")
    p_met.add_argument("--ideal", default="liar-reference",
                       help="same forms as --exp (default liar-reference)")
    p_met.add_argument("--column", choices=("auto", "counts", "probability"),
                       default="auto", help="which CSV column to read")
    p_met.add_argument("--consistent-set", metavar="S1,S2,...",
                       help="comma-separated consistent outcomes")
    p_met.add_argument("--paradox-set", metavar="S1,S2,...",
                       help="comma-separated paradox outcomes")
    p_met.add_argument("--flag-index", type=int, help="flag qubit index")
    common(p_met)
    p_met.set_defaults(func=cmd_metrics)

    p_est = sub.add_parser("estimate", help="gate counts, routing overhead, and "
                                            "fidelity for the N-statement circuit")
    p_est.add_argument("--n", type=int, required=True,
                       help="statement qubit count; even, >= 2")
    p_est.add_argument("--graph", default="linear",
                       help=f"linear | ring | {BUNDLED_GRAPH_ARG} | edge-list file "
                            "(default linear)")
    p_est.add_argument("--graph-size", type=int,
                       help="node count for linear/ring (default: circuit width)")
    p_est.add_argument("--layout", metavar="N0,N1,...",
                       help="physical node per logical qubit (default identity)")
    p_est.add_argument("--noise", metavar="P1Q,P2Q,PREAD",
                       help="error rates for the fidelity estimate "
                            "(default 1e-4,1e-3,0.015)")
    common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_tt = sub.add_parser("truthtable", help="exhaustive rule-vs-circuit table "
                                             "for all pair assignments")
    p_tt.add_argument("--pairs", type=int, default=1,
                      help=f"pair count, 1..{TRUTHTABLE_MAX_PAIRS} (default 1)")
    p_tt.add_argument("--flag-in", type=int, choices=(0, 1), default=1,
                      help="flag input bit (default 1)")
    p_tt.add_argument("--csv", metavar="FILE", help="also write the table as CSV")
    common(p_tt)
    p_tt.set_defaults(func=cmd_truthtable)

    return parser


# One parser per process: building it costs more than a small command's work.
# parse_args returns a fresh Namespace and the parser keeps no per-call state.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    # argparse sets the subcommand here as soon as it reads it, so that a
    # usage error in the arguments after it can name it
    args, parsed = argparse.Namespace(subcommand=None), False
    try:
        _shared_parser().parse_args(argv, args)
        parsed = True
        if args.seed < 0:
            raise CliError(USAGE_EXIT, f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except CliError as exc:
        error, code = exc, exc.code
    except ValueError as exc:  # bad input, as every library entry point reports it
        error, code = exc, USAGE_EXIT
    except OSError as exc:  # its text names the path
        error, code = exc, IO_EXIT
    where = f"liarsim {args.subcommand}" if args.subcommand else "liarsim"
    print(f"{where}: {error}", file=sys.stderr)
    if not parsed:  # a usage error ends the process, as argparse errors do
        sys.exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
