"""Command-line interface.

Subcommands: profile, decompose, recognize-dh, verify-dh,
verify-unique-prime, audit-lemmas, enumerate.  Configuration precedence is
flags > environment (ZFX_BUDGET_SUBSETS, ZFX_JOBS) > defaults.  Exit codes:
0 clean, 2 counterexamples found, 1 operational error.  ``zfx --version``
prints the zfx version and the kernel backend.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, Iterable, Optional

from . import KERNEL_BACKEND, __version__, campaigns, forcing, splitdec
from .dh import dh_metric_oracle, recognize_dh, replay_trace
from .errors import CapacityError, Graph6ParseError
from .extremal import path_zprime
from .forcing import zf_profile
from .graphs import (
    Graph,
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


def _resolve(args, dest: str, env: str, default: int,
             parse: Callable[[str], int]) -> None:
    """Fills ``args.<dest>``, if the subcommand has that flag and it was not
    given, from the environment variable ``env`` read by the flag's own
    ``parse``, else with ``default``."""
    if getattr(args, dest, default) is not None:
        return
    raw = os.environ.get(env, "")
    try:
        setattr(args, dest, parse(raw) if raw else default)
    except ValueError:
        raise ValueError(f"bad integer in ${env}: {raw!r}") from None
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"${env} {exc}") from None


_MAKERS = {"path": make_path, "cycle": make_cycle, "complete": make_complete,
           "star": make_star}


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--g6", metavar="LINE", help="one graph6 line")
    grp.add_argument("--g6-file", metavar="FILE", help="a file of graph6 lines")
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
    if args.g6_file is not None:
        return [(ln, parse_graph6(ln)) for ln in campaigns.load_corpus(args.g6_file)]
    return [(args.g6, parse_graph6(args.g6))]


def _emit(args, lines: Iterable[str], payload=None,
          csv: Optional[list[str]] = None) -> None:
    """Writes ``csv`` rows with --csv (which wins over --json), else
    ``payload`` as JSON with --json, else ``lines``, to --out or stdout."""
    if csv is not None and args.csv:
        lines = csv
    elif payload is not None and args.json:
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _per_graph(args, entry: Callable, text: Callable, csv: Optional[Callable] = None,
               must: Optional[str] = None) -> int:
    """Emits ``entry(args, label, g)`` of each input graph (one JSON object
    for one graph, else a list), or its ``text`` or ``csv`` rendering;
    returns 2 if some entry's ``must`` key is false."""
    entries = [entry(args, label, g) for label, g in _input_graphs(args)]
    _emit(args, [text(e) for e in entries],
          entries[0] if len(entries) == 1 else entries,
          csv(args, entries) if csv else None)
    failed = must and not all(e[must] for e in entries)
    return EXIT_COUNTEREXAMPLES if failed else EXIT_CLEAN


def _profile_entry(args, label: str, g: Graph) -> dict:
    profile = zf_profile(g, args.budget_subsets)
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
    return entry


def _profile_text(e: dict) -> str:
    terms = [f"{c}*x^{k}" for k, c in enumerate(e["polynomial"], start=1) if c]
    lines = [
        f"graph {e['graph6']}  (n={e['n']})",
        "  k        : " + " ".join(f"{k:>6}" for k in range(e["n"] + 1)),
        "  z(G;k)   : " + " ".join(f"{v:>6}" for v in e["z"]),
        "  z'(G;k)  : " + " ".join(f"{v:>6}" for v in e["zprime"]),
        f"  Z(G) = {e['zero_forcing_number']}",
        "  polynomial: " + (" + ".join(terms) or "0"),
    ]
    if "margins" in e:
        lines.append("  margin   : " + " ".join(f"{v:>6}" for v in e["margins"]))
    return "\n".join(lines)


def _profile_csv(args, entries: list[dict]) -> list[str]:
    columns = ["z", "zprime"] + (["margins"] if args.against_path else [])
    rows = ["graph6,k,z,zprime" + (",margin" if args.against_path else "")]
    for e in entries:
        for k in range(e["n"] + 1):
            rows.append(",".join([e["graph6"], str(k)]
                                 + [str(e[c][k]) for c in columns]))
    return rows


def _decompose_entry(args, label: str, g: Graph) -> dict:
    if not is_connected(g):
        raise ValueError(f"graph {label} is disconnected")
    tree = splitdec.decompose(g, args.budget_splits)
    summary = splitdec.summarize(tree)
    if args.check and splitdec.reconstruct(tree) != g:
        raise RuntimeError(f"reconstruction mismatch for {label}")
    return {
        "graph6": label,
        "prime_bag_count": summary.prime_bag_count,
        "prime_labels": [write_graph6(h) for h in summary.prime_labels],
        "is_dh": summary.is_dh,
        "unique_prime": summary.unique_prime,
        "star_centered_at_prime": summary.star_centered_at_prime,
        "tree": splitdec.dump_tree(tree).splitlines(),
    }


def _decompose_text(e: dict) -> str:
    summary = (f"summary: prime_bags={e['prime_bag_count']} is_dh={e['is_dh']} "
               f"star_centered_at_prime={e['star_centered_at_prime']}")
    return "\n".join([f"graph {e['graph6']}", *e["tree"], summary])


def _dh_entry(args, label: str, g: Graph) -> dict:
    trace = recognize_dh(g)
    entry = {"graph6": label, "is_dh": trace is not None}
    if trace is not None:
        entry["steps"] = [
            {"op": s.op, "removed": s.removed, "anchor": s.anchor}
            for s in trace.steps
        ]
        if args.check:
            if replay_trace(trace) != g:
                raise RuntimeError(f"trace replay mismatch for {label}")
            entry["replay_ok"] = True
        entry["metric_oracle"] = dh_metric_oracle(g)
    return entry


def _dh_text(e: dict) -> str:
    if not e["is_dh"]:
        return f"graph {e['graph6']}: not distance-hereditary"
    steps = " ".join(f"{s['op']}({s['removed']}@{s['anchor']})" for s in e["steps"])
    return f"graph {e['graph6']}: distance-hereditary; trace: {steps}"


# (campaign parameter, flag, argparse keywords) in --help order; each
# campaign subcommand gets the flags of the parameters its table entry takes.
_CAMPAIGN_FLAGS = (
    ("n_max", "--nmax", {"type": _POSITIVE}),
    ("m", "--m", {"type": _POSITIVE}),
    ("g6_file", "--g6-file", {"metavar": "FILE", "help": "graph6 corpus file"}),
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
    report = campaigns.run_campaign(args.command, jobs=args.jobs, **params)
    csv = ["graph6,witness_k,margins,reason"]
    for cx in report.counterexamples:
        margins = ";".join(str(m) for m in cx.get("margins", []))
        csv.append(
            f"{cx['graph6']},{cx.get('witness_k')},{margins},"
            f"\"{cx.get('reason', '')}\""
        )
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
    _emit(args, rows, report.to_dict(), csv)
    return report.exit_code()


def _cmd_enumerate(args) -> int:
    graphs = enumerate_graphs(args.n, connected_only=args.connected)
    _emit(args, map(write_graph6, graphs))
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zfx",
        description="Zero forcing profiles, distance-hereditary recognition, "
        "split decompositions, and path-extremality verification campaigns.",
    )
    ap.add_argument("--version", action="version",
                    version=f"zfx {__version__} ({KERNEL_BACKEND} kernels)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="exact zero forcing profile of a graph")
    _add_graph_input(p)
    p.add_argument("--against-path", action="store_true",
                   help="append margins against the path profile")
    p.add_argument("--budget-subsets", type=_NATURAL, default=None)
    _add_output(p, csv_help="emit the per-k table as CSV rows")
    p.set_defaults(func=partial(_per_graph, entry=_profile_entry,
                                text=_profile_text, csv=_profile_csv))

    p = sub.add_parser("decompose", help="canonical split decomposition")
    _add_graph_input(p)
    p.add_argument("--check", action="store_true",
                   help="re-reconstruct and compare against the input")
    p.add_argument("--budget-splits", type=_NATURAL, default=None)
    _add_output(p)
    p.set_defaults(func=partial(_per_graph, entry=_decompose_entry,
                                text=_decompose_text))

    p = sub.add_parser("recognize-dh", help="distance-hereditary recognition")
    _add_graph_input(p)
    p.add_argument("--check", action="store_true",
                   help="replay the elimination trace and compare")
    _add_output(p)
    p.set_defaults(func=partial(_per_graph, entry=_dh_entry, text=_dh_text,
                                must="is_dh"))

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
        _resolve(args, "budget_subsets", "ZFX_BUDGET_SUBSETS",
                 forcing.DEFAULT_SUBSET_BUDGET, _NATURAL)
        _resolve(args, "jobs", "ZFX_JOBS", 1, _POSITIVE)
        return args.func(args)
    except (Graph6ParseError, CapacityError, ValueError, OSError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
