"""The command-line interface: each subcommand reads its files through the
runner's reader (``audit.read_input``, so a fault names the flag and the
file as a check's names its input), calls the manifest runner in ``audit``
or one detector, and prints or writes the result. ``audit <check>`` runs a
one-check manifest, and its flags are built from the check's ``CHECKS``
entry; ``main`` prints a bad input as ``error: ...`` and exits 1, as a
usage error does.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .core import FindingsReport, GroupLabel, LabeledMatrix
from . import dupscan as _dup
from . import ingest
from . import integrity as _integ
from . import matchscan as _match
from . import signature as _sig
from .groupsearch import Assignment, steepest_ascent
from .transform import apply_pipeline, parse_pipeline_spec
from .audit import _INPUT_ERRORS, CHECKS, FINDING_CODES, SCHEMA_VERSION, Bounds, explain, read_input, run_audit
from .audit import _output, _param, _validate_manifest


def _input(args, dest: str, parse: Callable[[str], object]):
    """The file named by flag ``dest``, read and parsed as a manifest input."""
    return read_input(dest, getattr(args, dest), parse)


def _matrix(args, dest: str) -> LabeledMatrix:
    fmt = ingest.MatrixFormat(delimiter=args.delimiter)
    return _input(args, dest, lambda text: ingest.parse_matrix(text, fmt))


def _read_classes(text: str) -> dict[str, int]:
    """``roc --labels``: per id a class, written as its number or as a label
    that ``signature.CLASS_OF`` maps."""
    numbers = {str(c): c for c in _sig.CLASS_OF.values()}
    out: dict[str, int] = {}
    for row, (sid, tok, *_) in ingest.read_csv_rows(text, 2, None, ("sample_id", "id"), unique=True):
        with ingest.row_context(row):
            cls = numbers[tok] if tok in numbers else _sig.CLASS_OF.get(ingest.normalize_label(tok))
            if cls is None:
                raise ValueError(f"label {tok!r} for {sid!r} is neither 0/1 nor Sensitive/Resistant")
        out[sid] = cls
    return out


def _read_scores(text: str) -> dict[str, float]:
    """``roc --scores``: per id a number, from the first two cells of a row."""
    rows = ingest.read_csv_rows(text, 2, None, ("sample_id", "id"), unique=True)
    return {sid: ingest.number_cell(tok, row, 2) for row, (sid, tok, *_) in rows}


def _parse_assignment_csv(text: str) -> Assignment:
    state: dict[str, GroupLabel] = {}
    rows = ingest.read_csv_rows(text, 2, None, ("cell_line", "sample_id", "id"), unique=True)
    for row, (line, tok, *_) in rows:
        with ingest.row_context(row):  # the one-line Assignment checks the search state
            state.update(Assignment({line: ingest.normalize_label(tok)}).state)
    return Assignment(state)


def _cmd_audit_check(args) -> int:
    """``audit <check>``: run the check as a one-check manifest whose input
    references and parameters are the flags of the same dest (a flag left
    out takes the registry default), and print the report summary."""
    spec = CHECKS[args.audit_command]
    params = {k: getattr(args, k) for k in spec.params if getattr(args, k) is not None}
    inputs = {  # a view with a matrix input has --delimiter, and only a matrix reads a format
        ref: {"path": getattr(args, ref), "kind": kind, "format": {"delimiter": args.delimiter} if kind == "matrix" else {}}
        for ref, kind in spec.inputs.items()
    }
    doc = {"inputs": inputs, "checks": [{"check": args.audit_command, **{ref: ref for ref in inputs}, **params}]}
    return _print_run(_validate_manifest(doc, Path()))


def summarize_report(report: FindingsReport, exit_code: int) -> str:
    lines = [f"arrayaudit {report.tool_version} - {len(report.findings)} finding(s)"]
    counts = Counter(f.severity.value for f in report.findings)
    if counts:
        lines.append("  " + ", ".join(f"{sev}: {n}" for sev, n in sorted(counts.items())))
    for f in report.findings:
        lines.append(f"  [{f.severity.value:>8}] {f.code}: {f.message}")
    lines.append(f"exit code: {exit_code}")
    return "\n".join(lines)


def _cmd_audit_crosstab(args) -> int:
    a = _dup.roster_labeling(_input(args, "a", ingest.parse_roster))
    table = _dup.cross_tabulate(a, _dup.first_claims(_input(args, "b", ingest.parse_roster)))
    print(table.as_text())
    return 0


def _cmd_match(args, by_rows: bool) -> int:
    _param("min_corr", args.min_corr, float, Bounds(0, 1, lo_open=True))
    query = _matrix(args, "query")
    reference = _matrix(args, "reference")
    if args.pipeline:
        reference = apply_pipeline(reference, parse_pipeline_spec(args.pipeline))
    fn = _match.match_rows if by_rows else _match.match_columns
    res = fn(query, reference, min_corr=args.min_corr)
    print(
        f"matched {res.n_matched}, unmatched {res.n_unmatched}, "
        f"ambiguous {res.n_ambiguous}, degenerate {len(res.degenerate)}"
    )
    if args.out:
        rows = [("query_id", "reference_id"), *((qid, rid or "") for qid, rid in res.mapping.items())]
        _output(ingest.format_rows(rows), args.out, "mapping")
    else:
        for qid, rid in res.mapping.items():
            suffix = rid if rid else ("AMBIGUOUS " + str(list(res.ambiguous.get(qid, ()))) if qid in res.ambiguous else "-")
            print(f"  {qid} -> {suffix}")
    return 0 if res.n_unmatched == 0 and res.n_ambiguous == 0 else 2


def _cmd_search_groups(args) -> int:
    panel = _matrix(args, "panel")
    target = _input(args, "target", ingest.parse_signature)
    start = _input(args, "start", _parse_assignment_csv)
    result = steepest_ascent(start, panel, target, args.k)
    print(f"start score: {result.start_score}")
    for mv in result.trajectory:
        print(f"  {mv.line} -> {mv.new_state.value}: score {mv.score}")
    final_score = result.trajectory[-1].score if result.trajectory else result.start_score
    print(f"final score: {final_score} after {len(result.trajectory)} move(s)")
    if result.budget_exceeded:
        print("move budget exceeded; trajectory is partial", file=sys.stderr)
    if args.trace:
        doc = {
            "start_score": result.start_score,
            "trajectory": [
                {"line": mv.line, "state": mv.new_state.value, "score": mv.score}
                for mv in result.trajectory
            ],
            "final": {line: lab.value for line, lab in sorted(result.final.state.items())},
            "neighbors_per_step": list(result.neighbors_per_step),
            "budget_exceeded": result.budget_exceeded,
        }
        _output(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.trace, "trace")
    return 0


def _cmd_signature_derive(args) -> int:
    sig = _sig.select_top_genes(_matrix(args, "matrix"), args.k)
    _output(ingest.serialize_signature(sig), args.out, f"signature ({len(sig)} genes)")
    return 0


def _cmd_signature_predict(args) -> int:
    pred = _sig.predict(_matrix(args, "train"), _matrix(args, "test"), args.k)
    if pred.hard_calls:
        print("warning: perfect separation; emitting hard 0/1 calls", file=sys.stderr)
    rows = [("sample_id", "metagene_score", "p_sensitive")]
    for sid, sc, pr in zip(pred.sample_ids, pred.scores, pred.probabilities):
        rows.append((sid, format(float(sc), ".17g"), format(float(pr), ".17g")))
    _output(ingest.format_rows(rows), args.out, f"{len(pred.sample_ids)} predictions")
    return 0


def _cmd_roc(args) -> int:
    scores = _input(args, "scores", _read_scores)
    labels = _input(args, "labels", _read_classes)
    shared = [sid for sid in scores if sid in labels]
    if not shared:
        raise ValueError("scores and labels share no sample ids")
    s = [scores[sid] for sid in shared]
    y = [labels[sid] for sid in shared]
    value = _sig.auc(s, y)
    print(f"n = {len(shared)}, AUC = {value:.6f}")
    if args.out:
        rows = [("fpr", "tpr"), *((f"{x:.10g}", f"{ypt:.10g}") for x, ypt in _sig.roc_curve(s, y))]
        _output(ingest.format_rows(rows), args.out, "curve")
    return 0


def _cmd_combo(args) -> int:
    columns, rows = _input(args, "inputs", ingest.parse_table)
    missing = [k for k in _integ.COMBINATION_RULES[args.rule].drug_keys if k not in columns]
    if missing:
        raise ValueError(f"input file is missing drug column(s) {missing}")
    if not rows:
        raise ValueError("no input rows")
    probs = {sid: dict(zip(columns, values)) for sid, values in rows}
    norms = ("raw", "batch") if args.batch_normalize else ("raw",)
    scores = [_integ.combination_scores(probs, args.rule, n) for n in norms]
    table = [["sample_id", "raw", "normalized"][: 1 + len(scores)]]
    table += [[sid, *(format(col[i], ".17g") for col in scores)] for i, sid in enumerate(probs)]
    _output(ingest.format_rows(table), args.out, f"{len(rows)} combination scores")
    return 0


def _print_run(manifest) -> int:
    """``report run`` and every ``audit <check>``: run, print the summary."""
    report, code = run_audit(manifest)
    print(summarize_report(report, code))
    return code


def _cmd_explain(args) -> int:
    if args.code not in FINDING_CODES:
        raise ValueError(f"unknown finding code {args.code!r}; known codes: {', '.join(FINDING_CODES)}")
    print(f"{args.code}: {explain(args.code)}")
    return 0


def _json_value(text: str):
    return json.loads(text)


_json_value.__name__ = "JSON"  # argparse names a type by it: "invalid JSON value: 'flat'"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 as any execution error: exit 2 means findings
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


#: ``audit <check>`` flags spelled other than ``--`` + registry name, ``-`` for ``_``
_SPELLINGS = {
    "sensitivity": ("--records", {"metavar": "RECORDS", "required": True}),
    "compare_on": ("--log", {"action": "store_const", "const": "log", "help": "correlate log values"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arrayaudit",
        description="Forensic audits for labeled high-throughput data matrices.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"arrayaudit {__version__} (report schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="one-check audits that print the report summary").add_subparsers(
        dest="audit_command", required=True
    )

    for check, spec in CHECKS.items():
        if check == "flips":  # its rosters are named inside its sources list
            continue
        p = audit.add_parser(check, help=(spec.run.__doc__ or "").split("\n")[0])
        flags = {ref: {"required": True} for ref in spec.inputs}  # a flag left out is None
        for name, (kind, default, allowed) in spec.params.items():
            flags[name] = {"type": kind, "choices": allowed if kind is str else None, "required": default is None}
            if kind is list:  # one JSON value, which _param checks as it checks a manifest's
                flags[name].update(type=_json_value, metavar="JSON")
        for name, kw in flags.items():
            flag, kw = _SPELLINGS.get(name, ("--" + name.replace("_", "-"), kw))
            p.add_argument(flag, dest=name, **kw)
        if "matrix" in spec.inputs.values():
            p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
        p.set_defaults(fn=_cmd_audit_check)

    p = audit.add_parser("crosstab", help="cross-tabulate two labelings")
    p.add_argument("--a", required=True, help="roster for the row axis (conflicts become Both)")
    p.add_argument("--b", required=True, help="roster for the column axis")
    p.set_defaults(fn=_cmd_audit_crosstab)

    match = sub.add_parser("match", help="brute-force correlation matching").add_subparsers(
        dest="match_command", required=True
    )
    for name, by_rows in (("rows", True), ("columns", False)):
        p = match.add_parser(name)
        p.add_argument("--query", required=True)
        p.add_argument("--reference", required=True)
        p.add_argument("--pipeline", help="transform reference first, e.g. log:e|zscore:n-1|exp:e|round:2")
        p.add_argument("--min-corr", type=float, default=0.9999)
        p.add_argument("--out")
        p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
        p.set_defaults(fn=lambda args, rows=by_rows: _cmd_match(args, rows))

    search = sub.add_parser("search", help="assignment search").add_subparsers(
        dest="search_command", required=True
    )
    p = search.add_parser("groups", help="steepest-ascent over line assignments")
    p.add_argument("--panel", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--start", required=True, help="CSV cell_line,state")
    p.add_argument("--trace", help="write trajectory JSON here")
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.set_defaults(fn=_cmd_search_groups)

    signature = sub.add_parser("signature", help="signature derivation and prediction").add_subparsers(
        dest="signature_command", required=True
    )
    p = signature.add_parser("derive")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.set_defaults(fn=_cmd_signature_derive)
    p = signature.add_parser("predict")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.set_defaults(fn=_cmd_signature_predict)

    p = sub.add_parser("roc", help="ROC curve and AUC from score/label files")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_roc)

    p = sub.add_parser("combo", help="combination-therapy score rules")
    p.add_argument("--rule", choices=tuple(_integ.COMBINATION_RULES), required=True)
    p.add_argument("--inputs", required=True, help="CSV: sample_id plus one column per drug key")
    p.add_argument("--batch-normalize", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_combo)

    report = sub.add_parser("report", help="manifest-driven audit runs").add_subparsers(
        dest="report_command", required=True
    )
    p = report.add_parser("run")
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=lambda args: _print_run(args.manifest))

    p = sub.add_parser("explain", help="explain a finding code")
    p.add_argument("code")
    p.set_defaults(fn=_cmd_explain)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
