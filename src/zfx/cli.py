"""Command-line interface.

Subcommands: profile, decompose, recognize-dh, verify-dh,
verify-unique-prime, audit-lemmas, enumerate.  Configuration precedence is
flags > environment (ZFX_BUDGET_SUBSETS, ZFX_JOBS) > defaults.  Exit codes:
0 clean, 2 counterexamples found, 1 operational error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional

from . import campaigns, splitdec
from .dh import dh_metric_oracle, recognize_dh, replay_trace
from .errors import CapacityError, Graph6ParseError
from .extremal import path_zprime
from .forcing import zf_profile
from .graphs import (
    Graph,
    are_isomorphic,
    enumerate_graphs,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    parse_graph6,
    write_graph6,
)

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_COUNTEREXAMPLES = 2


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value" errors
    return parse


_POSITIVE = _int_at_least(1)
_NATURAL = _int_at_least(0)


def _resolve(flag: Optional[int], env: str, default: int,
             parse: Callable[[str], int]) -> int:
    """The flag, else the environment variable ``env`` read by the flag's own
    ``parse``, else ``default``."""
    if flag is not None:
        return flag
    raw = os.environ.get(env, "")
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"bad integer in ${env}: {raw!r}") from None
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"${env} {exc}") from None


_MAKERS = {"path": make_path, "cycle": make_cycle, "complete": make_complete,
           "star": make_star}


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--g6", metavar="FILE|LITERAL",
                     help="graph6 line, or a file of graph6 lines")
    for name in _MAKERS:
        grp.add_argument(f"--{name}", type=_NATURAL, metavar="N")


def _add_output(p: argparse.ArgumentParser, csv_help: Optional[str] = None) -> None:
    p.add_argument("--json", action="store_true")
    if csv_help:
        p.add_argument("--csv", action="store_true", help=csv_help)
    p.add_argument("--out", default=None)


def _input_graphs(args) -> list[tuple[str, Graph]]:
    """(label, graph) pairs from the graph-input flags."""
    for name, make in _MAKERS.items():
        if getattr(args, name) is not None:
            g = make(getattr(args, name))
            return [(write_graph6(g), g)]
    if os.path.exists(args.g6):
        return [(ln, parse_graph6(ln)) for ln in campaigns.load_corpus(args.g6)]
    return [(args.g6, parse_graph6(args.g6))]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _emit_entries(args, payload: list[dict], blocks: list[str]) -> None:
    """Per-graph entries as JSON (one object for one graph, else a list)
    with --json, else as text blocks."""
    if args.json:
        _emit(json.dumps(payload[0] if len(payload) == 1 else payload,
                         sort_keys=True, indent=2), args.out)
    else:
        _emit("\n".join(blocks), args.out)


def _cmd_profile(args) -> int:
    budget = _resolve(args.budget_subsets, "ZFX_BUDGET_SUBSETS", 20, _NATURAL)
    blocks = []
    payload = []
    csv_rows = ["graph6,k,z,zprime" + (",margin" if args.against_path else "")]
    for label, g in _input_graphs(args):
        profile = zf_profile(g, budget)
        entry = {
            "graph6": label,
            "n": g.n,
            "z": list(profile.z),
            "zprime": list(profile.zprime),
            "zero_forcing_number": profile.zf_number,
            "polynomial": list(profile.poly_coeffs),
        }
        if args.against_path:
            entry["margins"] = [
                profile.zprime[k] - path_zprime(g.n, k) for k in range(g.n + 1)
            ]
        for k in range(g.n + 1):
            row = f"{label},{k},{profile.z[k]},{profile.zprime[k]}"
            if args.against_path:
                row += f",{entry['margins'][k]}"
            csv_rows.append(row)
        payload.append(entry)
        lines = [
            f"graph {label}  (n={g.n})",
            "  k        : " + " ".join(f"{k:>6}" for k in range(g.n + 1)),
            "  z(G;k)   : " + " ".join(f"{v:>6}" for v in profile.z),
            "  z'(G;k)  : " + " ".join(f"{v:>6}" for v in profile.zprime),
            f"  Z(G) = {profile.zf_number}",
            "  polynomial: "
            + (" + ".join(
                f"{c}*x^{k}" for k, c in enumerate(profile.poly_coeffs, start=1) if c
            ) or "0"),
        ]
        if args.against_path:
            lines.append(
                "  margin   : " + " ".join(f"{v:>6}" for v in entry["margins"])
            )
        blocks.append("\n".join(lines))
    if args.csv:
        _emit("\n".join(csv_rows), args.out)
    else:
        _emit_entries(args, payload, blocks)
    return EXIT_CLEAN


def _cmd_decompose(args) -> int:
    budget = args.budget_splits
    blocks = []
    payload = []
    for label, g in _input_graphs(args):
        if not is_connected(g):
            raise ValueError(f"graph {label} is disconnected")
        tree = splitdec.decompose(g, budget)
        summary = splitdec.summarize(tree)
        if args.check:
            if splitdec.reconstruct(tree) != g:
                raise RuntimeError(f"reconstruction mismatch for {label}")
        entry = {
            "graph6": label,
            "prime_bag_count": summary.prime_bag_count,
            "prime_labels": [write_graph6(h) for h in summary.prime_labels],
            "is_dh": summary.is_dh,
            "unique_prime": summary.unique_prime,
            "star_centered_at_prime": summary.star_centered_at_prime,
            "tree": splitdec.dump_tree(tree).splitlines(),
        }
        payload.append(entry)
        blocks.append(
            f"graph {label}\n{splitdec.dump_tree(tree)}\n"
            f"summary: prime_bags={summary.prime_bag_count} "
            f"is_dh={summary.is_dh} "
            f"star_centered_at_prime={summary.star_centered_at_prime}"
        )
    _emit_entries(args, payload, blocks)
    return EXIT_CLEAN


def _cmd_recognize_dh(args) -> int:
    blocks = []
    payload = []
    all_dh = True
    for label, g in _input_graphs(args):
        trace = recognize_dh(g)
        entry = {"graph6": label, "is_dh": trace is not None}
        if trace is not None:
            entry["steps"] = [
                {"op": s.op, "removed": s.removed, "anchor": s.anchor}
                for s in trace.steps
            ]
            if args.check:
                replayed = replay_trace(trace)
                if replayed != g or not are_isomorphic(replayed, g):
                    raise RuntimeError(f"trace replay mismatch for {label}")
                entry["replay_ok"] = True
            if g.n <= 8:
                entry["metric_oracle"] = dh_metric_oracle(g)
        else:
            all_dh = False
        payload.append(entry)
        if trace is None:
            blocks.append(f"graph {label}: not distance-hereditary")
        else:
            steps = " ".join(f"{s.op}({s.removed}@{s.anchor})" for s in trace.steps)
            blocks.append(f"graph {label}: distance-hereditary; trace: {steps}")
    _emit_entries(args, payload, blocks)
    return EXIT_CLEAN if all_dh else EXIT_COUNTEREXAMPLES


# (campaign parameter, flag, argparse keywords) in --help order; each
# campaign subcommand gets the flags of the parameters its table entry takes.
_CAMPAIGN_FLAGS = (
    ("n_max", "--nmax", {"type": _POSITIVE}),
    ("m", "--m", {"type": _POSITIVE, "default": 5}),
    ("g6_file", "--g6", {"help": "graph6 corpus file"}),
    ("jobs", "--jobs", {"type": _POSITIVE}),
    ("budget", "--budget-subsets", {"type": _NATURAL}),
    ("split_budget", "--budget-splits", {"type": _NATURAL}),
)


def _cmd_campaign(args) -> int:
    takes = campaigns.CAMPAIGNS[args.command].params
    params = {
        param: getattr(args, flag[2:].replace("-", "_"))
        for param, flag, _ in _CAMPAIGN_FLAGS
        if param in takes
    }
    if "budget" in params:
        params["budget"] = _resolve(params["budget"], "ZFX_BUDGET_SUBSETS", 20,
                                    _NATURAL)
    report = campaigns.run_campaign(
        args.command, _resolve(args.jobs, "ZFX_JOBS", 1, _POSITIVE), **params
    )
    if args.csv:
        rows = ["graph6,witness_k,margins,reason"]
        for cx in report.counterexamples:
            margins = ";".join(str(m) for m in cx.get("margins", []))
            rows.append(
                f"{cx['graph6']},{cx.get('witness_k')},{margins},"
                f"\"{cx.get('reason', '')}\""
            )
    elif args.json:
        rows = [report.to_json()]
    else:
        rows = [
            f"campaign: {report.campaign}",
            f"corpus: {json.dumps(report.corpus, sort_keys=True)}",
            f"scanned={report.scanned} verified={report.verified} "
            f"skipped={len(report.skipped)} "
            f"counterexamples={len(report.counterexamples)} "
            f"anomalies={len(report.anomalies)}",
            f"time: {report.timing_seconds:.2f}s",
        ]
        for cx in report.counterexamples:
            rows.append(f"COUNTEREXAMPLE {cx['graph6']}: {cx.get('reason', '')}")
        for an in report.anomalies:
            rows.append(f"ANOMALY {an['graph6']}: {an['reason']}")
    _emit("\n".join(rows), args.out)
    return report.exit_code()


def _cmd_enumerate(args) -> int:
    lines = [
        write_graph6(g)
        for g in enumerate_graphs(args.n, connected_only=args.connected)
    ]
    _emit("\n".join(lines), args.out)
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zfx",
        description="Zero forcing profiles, distance-hereditary recognition, "
        "split decompositions, and path-extremality verification campaigns.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="exact zero forcing profile of a graph")
    _add_graph_input(p)
    p.add_argument("--against-path", action="store_true",
                   help="append margins against the path profile")
    p.add_argument("--budget-subsets", type=_NATURAL, default=None)
    _add_output(p, csv_help="emit the per-k table as CSV rows")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("decompose", help="canonical split decomposition")
    _add_graph_input(p)
    p.add_argument("--check", action="store_true",
                   help="re-reconstruct and compare against the input")
    p.add_argument("--budget-splits", type=_NATURAL, default=None)
    _add_output(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("recognize-dh", help="distance-hereditary recognition")
    _add_graph_input(p)
    p.add_argument("--check", action="store_true",
                   help="replay the elimination trace and compare")
    _add_output(p)
    p.set_defaults(func=_cmd_recognize_dh)

    for spec in campaigns.CAMPAIGNS.values():
        if spec.help is None:
            continue
        p = sub.add_parser(spec.name, help=spec.help)
        for param, flag, kwargs in _CAMPAIGN_FLAGS:
            if param == "jobs" or param in spec.params:
                p.add_argument(flag, **kwargs)
        _add_output(p, csv_help="emit counterexample margins as CSV rows")
        p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("enumerate",
                       help="one graph6 line per isomorphism class")
    p.add_argument("--n", type=_NATURAL, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enumerate)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error; exit status 2 means counterexamples
            return EXIT_ERROR
        raise
    try:
        return args.func(args)
    except (Graph6ParseError, CapacityError, ValueError, OSError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
