"""Corpus verification campaigns behind the CLI subcommands.

A campaign is one entry of ``CAMPAIGNS``: its parameters, the corpus
description its report carries, and its ordered phases.  Each phase scans a
corpus with a per-graph worker, which takes a ``Graph``.  A corpus item is a
``Graph`` of the built-in enumeration (decoded from its level record as the
scan reaches it), or one line of a graph6 file, which the runner parses for
the worker, so one bad line becomes one skip.  A scan folds each outcome as
it arrives: a verified one is only counted, and every other one becomes a
record named by its graph6 line, written by the process that holds the
graph.  ``run_campaign`` folds the scans of every phase into one
deterministic VerificationReport: records are sorted by graph6 string once,
at the end of each scan, so the report is independent of worker count.  The
library functions are ``run_campaign`` bound to a table name, keywords
only.

At jobs > 1 one process pool serves the whole campaign.  Its workers get
every corpus once, when they start (inherited under fork, pickled once per
worker otherwise); a task names a worker, a corpus and an index range, and
sends back that range's folded scan.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Union

from . import kernels
from .dh import dh_metric_oracle, recognize_dh, replay_trace
from .errors import CapacityError, Graph6ParseError
from .extremal import audit_leaf_recurrence, check_path_extremal
from .graphs import (
    ENUM_MAX,
    Graph,
    LevelView,
    induced_subgraph,
    is_connected,
    parse_graph6,
    write_graph6,
)
from .splitdec import (
    PRIME,
    decompose,
    extract_prime_core,
    peel,
    pick_peelable_bag,
    reconstruct,
    summarize,
    twin_from_leaf_bag,
    validate_reduced,
)

VERIFIED = "verified"
SKIPPED = "skipped"
COUNTEREXAMPLE = "counterexample"
ANOMALY = "anomaly"


@dataclass
class VerificationReport:
    campaign: str
    corpus: dict
    scanned: int = 0
    verified: int = 0
    skipped: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    anomalies: list = field(default_factory=list)
    phases: Optional[dict] = None
    timing_seconds: float = 0.0

    @property
    def totals(self) -> dict:
        return {
            "scanned": self.scanned,
            "verified": self.verified,
            "skipped": len(self.skipped),
            "counterexamples": len(self.counterexamples),
        }

    @property
    def clean(self) -> bool:
        return not self.counterexamples and not self.anomalies

    def exit_code(self) -> int:
        if self.counterexamples:
            return 2
        if self.anomalies:
            return 1
        return 0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "campaign": self.campaign,
            "corpus": self.corpus,
            "totals": self.totals,
            "skipped": self.skipped,
            "counterexamples": self.counterexamples,
            "anomalies": self.anomalies,
        }
        if self.phases is not None:
            out["phases"] = self.phases
        if include_timing:
            out["timing_seconds"] = self.timing_seconds
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)

    def normalized_json(self) -> str:
        """Byte-stable form for determinism comparisons (timing excluded)."""
        return json.dumps(self.to_dict(include_timing=False), sort_keys=True)


# A corpus item: a built-in Graph, or a graph6 line read from a file.
Item = Union[Graph, str]


def builtin_corpus(n_max: int, connected: bool = True) -> LevelView:
    """The classes with 1 <= n <= n_max, or the connected ones, as a sized,
    sliceable view over the enumeration's level buffers."""
    return LevelView(n_max, connected_only=connected)


def load_corpus(path: str) -> list[str]:
    """The nonblank lines of a graph6 file.  Bytes that are not UTF-8 read
    as U+FFFD, so a non-ASCII line reaches ``parse_graph6`` and is refused
    there, alone."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return [ln.strip() for ln in fh if ln.strip()]


class _Skip(Exception):
    """Raised by a worker or ``_graph``: the graph is skipped for this
    reason."""


def _graph(item: Item) -> Graph:
    """The item's graph.  A built-in item is one already; a file line is
    parsed here, and skipped when it is disconnected, since every file
    corpus is one of connected graphs."""
    if not isinstance(item, str):
        return item
    try:
        g = parse_graph6(item)
    except (Graph6ParseError, CapacityError) as exc:
        raise _Skip(f"parse: {exc}") from None
    if not is_connected(g):
        raise _Skip("disconnected")
    return g


def _outcome(worker: Callable, item: Item) -> dict:
    """The worker's outcome for one item's graph, a new dict, or a skip or
    failure, so one bad graph never aborts a campaign.  A graph over a
    budget is skipped with the cap as its reason.  Every outcome but a
    verified one is named by the item's graph6 line."""
    try:
        out = worker(_graph(item))
    except (_Skip, CapacityError) as skip:
        out = {"status": SKIPPED, "reason": str(skip)}
    except Exception as exc:
        out = {"status": ANOMALY, "reason": f"{type(exc).__name__}: {exc}"}
    if out["status"] != VERIFIED:
        out["graph6"] = item if isinstance(item, str) else write_graph6(item)
    return out


@dataclass
class _Scan:
    """A scan's outcomes, folded as they arrive: how many were scanned and
    verified, the total of their ``count`` fields, and the named record of
    every outcome that is not verified."""

    scanned: int = 0
    verified: int = 0
    count: int = 0
    records: list = field(default_factory=list)


def _scan(worker: Callable, items) -> _Scan:
    """The scan of ``worker`` over ``items``, its records in item order."""
    scan = _Scan()
    for item in items:
        out = _outcome(worker, item)
        scan.scanned += 1
        if out["status"] == VERIFIED:
            scan.verified += 1
        else:
            scan.records.append(out)
        scan.count += out.get("count", 0)
    return scan


# In a pool worker process: the corpora of the campaign that started the
# pool, set once by ``_init_worker``.  The main process never sets it.
_CORPORA: tuple = ()


def _init_worker(corpora: tuple) -> None:
    global _CORPORA
    _CORPORA = corpora


def _scan_range(worker: Callable, index: int, start: int, stop: int) -> _Scan:
    """One pool task: the scan of items ``start:stop`` of a corpus."""
    return _scan(worker, _CORPORA[index][start:stop])


class _Pool(NamedTuple):
    """A campaign's worker processes, and which of their corpora a scan reads."""

    executor: ProcessPoolExecutor
    workers: int
    index: int


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_scan(corpus: Sequence, worker: Callable, pool: Optional[_Pool]) -> _Scan:
    """The scan of ``worker`` over ``corpus``, its records sorted by graph6.
    Without a pool, each item is one ``worker(_graph(item))`` call here.
    With one, a task is an index range of the corpus its workers already
    hold; each finished task's scan is folded in as it arrives, and its
    records are kept in corpus order for the one sort at the end."""
    if pool is None:
        scan = _scan(worker, corpus)
    else:
        size = len(corpus)
        chunk = max(1, size // (pool.workers * 8))
        futures = {pool.executor.submit(_scan_range, worker, pool.index,
                                        start, start + chunk): start
                   for start in range(0, size, chunk)}
        scan, records = _Scan(), {}
        for f in as_completed(futures):
            part = f.result()
            scan.scanned += part.scanned
            scan.verified += part.verified
            scan.count += part.count
            records[futures[f]] = part.records
        scan.records = [rec for start in sorted(records) for rec in records[start]]
    scan.records.sort(key=itemgetter("graph6"))
    return scan


def _fold(report: VerificationReport, scan: _Scan) -> None:
    report.scanned += scan.scanned
    report.verified += scan.verified
    for rec in scan.records:
        status = rec["status"]
        if status == SKIPPED:
            report.skipped.append({"graph6": rec["graph6"], "reason": rec["reason"]})
        elif status == COUNTEREXAMPLE:
            report.counterexamples.append(
                {
                    "graph6": rec["graph6"],
                    "witness_k": rec.get("witness_k"),
                    "margins": rec.get("margins", []),
                    "reason": rec.get("reason", ""),
                }
            )
        else:
            report.anomalies.append(
                {"graph6": rec["graph6"], "reason": rec["reason"]}
            )


@dataclass(frozen=True)
class Phase:
    """One scan: ``worker``, given the ``Graph`` of each item of
    ``corpus(params)`` and the campaign parameters its signature names after
    the graph, returns a new outcome dict (status, reason or witness fields,
    and an optional int ``count`` that the scan totals) or raises ``_Skip``.
    The runner parses a file line into its graph, or skips it, first."""

    name: Optional[str]  # key under report.phases; None adds no phases block
    corpus: Callable[[dict], Sequence[Item]]
    worker: Callable[..., dict]
    tag: Optional[int] = None  # stamped as "phase" on its counterexamples
    extra: Optional[Callable[[Sequence, _Scan], dict]] = None  # (corpus, scan)


@dataclass(frozen=True)
class Campaign:
    name: str
    params: dict  # accepted keywords besides jobs, with their defaults
    corpus: Callable[[dict], dict]  # the report's corpus description
    phases: tuple[Phase, ...]
    help: Optional[str] = None  # CLI subcommand help; None: library only


def run_campaign(name: str, /, *, jobs: int = 1, **params) -> VerificationReport:
    """Run ``CAMPAIGNS[name]``; parameters left out or None take the
    table's defaults.  Every corpus is built first, and phases with the same
    corpus function share one list.  At jobs > 1 one process pool serves
    every phase, with min(jobs, usable CPUs, largest corpus) workers that
    receive the corpora once, when they start."""
    spec = CAMPAIGNS[name]
    unknown = params.keys() - spec.params.keys()
    if unknown:
        raise TypeError(f"{name} takes no parameter {', '.join(sorted(unknown))}")
    p = {**spec.params, **{k: v for k, v in params.items() if v is not None}}
    if "g6_file" not in spec.params and p["n_max"] > ENUM_MAX:
        raise CapacityError(f"n_max={p['n_max']} exceeds ENUM_MAX={ENUM_MAX}: "
                            f"{name} reads only the built-in enumeration")
    report = VerificationReport(name, spec.corpus(p))
    t0 = time.perf_counter()
    index: dict = {}  # corpus function -> its position in corpora
    corpora: list[Sequence[Item]] = []
    for phase in spec.phases:
        if phase.corpus not in index:
            index[phase.corpus] = len(corpora)
            corpora.append(phase.corpus(p))
    workers = min(jobs, _usable_cpus(), max(map(len, corpora)))
    executor = (ProcessPoolExecutor(workers, initializer=_init_worker,
                                    initargs=(tuple(corpora),))
                if workers > 1 else None)
    phases = {}
    try:
        for phase in spec.phases:
            i = index[phase.corpus]
            takes = list(inspect.signature(phase.worker).parameters)[1:]
            worker = partial(phase.worker, **{k: p[k] for k in takes})
            pool = None if executor is None else _Pool(executor, workers, i)
            scan = _run_scan(corpora[i], worker, pool)
            before_cx = len(report.counterexamples)
            _fold(report, scan)
            if phase.tag is not None:
                for cx in report.counterexamples[before_cx:]:
                    cx["phase"] = phase.tag
            if phase.name is not None:
                phases[phase.name] = {
                    "scanned": scan.scanned,
                    "verified": scan.verified,
                    **(phase.extra(corpora[i], scan) if phase.extra else {}),
                }
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
    report.phases = phases or None
    report.timing_seconds = time.perf_counter() - t0
    return report


# --- shared worker steps: each returns a value or raises _Skip -----------------


def _one_prime_bag(tree):
    summary = summarize(tree)
    if summary.prime_bag_count != 1:
        raise _Skip(f"prime bag count {summary.prime_bag_count} != 1")
    return summary


def _extremal_outcome(g: Graph, budget: Optional[int], reason: str) -> dict:
    """Verified when ``g`` is path-extremal, else a counterexample."""
    verdict = check_path_extremal(g, budget)
    if verdict.is_path_extremal:
        return {"status": VERIFIED}
    return {"status": COUNTEREXAMPLE, "witness_k": verdict.witness_k,
            "margins": list(verdict.margins), "reason": reason}


# --- verify-dh ----------------------------------------------------------------


def _dh_worker(g: Graph, budget: Optional[int]) -> dict:
    trace = recognize_dh(g)
    oracle = dh_metric_oracle(g)
    if (trace is not None) != oracle:
        return {"status": ANOMALY,
                "reason": "recognizers disagree (greedy vs metric oracle)"}
    if trace is None:
        raise _Skip("not distance-hereditary")
    if replay_trace(trace) != g:
        return {"status": ANOMALY,
                "reason": "elimination trace does not replay to the input"}
    return _extremal_outcome(g, budget, "distance-hereditary graph not path-extremal")


# --- split-decomposition round trip --------------------------------------------


def _roundtrip_worker(g: Graph, split_budget: Optional[int]) -> dict:
    tree = decompose(g, split_budget)
    problems = []
    if reconstruct(tree) != g:
        problems.append("reconstruct(decompose(g)) differs from g")
    violations = validate_reduced(tree)
    if violations:
        problems.append("not reduced: " + "; ".join(violations))
    if summarize(tree).is_dh != dh_metric_oracle(g):
        problems.append("prime-bag-free does not match the metric oracle")
    if problems:
        return {"status": COUNTEREXAMPLE, "reason": "; ".join(problems)}
    return {"status": VERIFIED}


# --- verify-unique-prime --------------------------------------------------------


def split_prime_graphs(m: int) -> list[Graph]:
    """All split-prime graphs on at most m vertices (connected, no split,
    neither clique nor star): those the split recursion keeps whole, as one
    prime bag.  They come from the built-in enumeration whatever the corpus
    is, so m is capped at ``ENUM_MAX``."""
    if m > ENUM_MAX:
        raise CapacityError(f"m={m} exceeds ENUM_MAX={ENUM_MAX}: the split-prime "
                            "graphs on <= m vertices come from the built-in enumeration")
    return [g for g in builtin_corpus(m)
            if [bag[3] for bag in kernels.split_bags(g.n, g.adj)] == [PRIME]]


def _induced_subgraph_classes(g: Graph) -> list[Graph]:
    seen = set()
    out = []
    for mask in range(1, g.full_mask + 1):
        sub, _ = induced_subgraph(g, mask)
        key = kernels.canon_adj(sub.n, sub.adj)
        if key not in seen:
            seen.add(key)
            out.append(Graph(sub.n, key))
    return out


def _prime_core_worker(g: Graph, budget: Optional[int]) -> dict:
    """Phase 1: every induced subgraph of one split-prime graph is
    path-extremal.  A budget cap here is an anomaly, not a skip: phase 2
    rests on this hypothesis.  ``count`` is the classes checked: all of
    them, those up to a counterexample, or those verified before a cap."""
    classes = _induced_subgraph_classes(g)
    for checked, sub in enumerate(classes, start=1):
        try:
            verdict = check_path_extremal(sub, budget)
        except CapacityError as exc:
            return {"status": ANOMALY, "reason": f"CapacityError: {exc}",
                    "count": checked - 1}
        if not verdict.is_path_extremal:
            return {
                "status": COUNTEREXAMPLE,
                "witness_k": verdict.witness_k,
                "margins": list(verdict.margins),
                "reason": f"induced subgraph {verdict.graph6} not path-extremal",
                "count": checked,
            }
    return {"status": VERIFIED, "count": len(classes)}


def _unique_prime_worker(g: Graph, m: int, budget: Optional[int],
                         split_budget: Optional[int]) -> dict:
    summary = _one_prime_bag(decompose(g, split_budget))
    size = summary.prime_labels[0].n
    if size > m:
        raise _Skip(f"prime bag size {size} exceeds m={m}")
    return _extremal_outcome(g, budget, "unique-prime graph not path-extremal")


# --- audit-lemmas ----------------------------------------------------------------


def _leaf_audit_worker(g: Graph, budget: Optional[int]) -> dict:
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    if not leaves:
        raise _Skip("no leaves")
    for x in leaves:
        audit = audit_leaf_recurrence(g, x, budget=budget)
        if not audit.holds:
            bad = next(r for r in audit.rows if not r.holds)
            return {"status": COUNTEREXAMPLE, "witness_k": bad.k,
                    "reason": f"leaf recurrence fails at leaf {x}, k={bad.k}"}
    return {"status": VERIFIED}


def _fort_audit_worker(g: Graph) -> dict:
    """The fort-count identity: a set is non-forcing iff it misses a fort,
    so the campaigns' ``profile_counts``, which counts forts, gives at every
    k the number of forcing k-sets that one closure per subset finds."""
    forts = kernels.profile_counts(g.n, g.adj)
    closures = kernels.closure_counts(g.n, g.adj)
    for k, (by_forts, by_closures) in enumerate(zip(forts, closures, strict=True)):
        if by_forts != by_closures:
            return {"status": COUNTEREXAMPLE, "witness_k": k,
                    "reason": f"fort count {by_forts} != closure count "
                              f"{by_closures} of forcing {k}-sets"}
    return {"status": VERIFIED}


def _peel_extract_worker(g: Graph, split_budget: Optional[int]) -> dict:
    tree = decompose(g, split_budget)
    summary = _one_prime_bag(tree)
    try:
        if summary.star_centered_at_prime:
            extract_prime_core(tree)  # verifies internally
        else:
            bag = pick_peelable_bag(tree)
            if bag is None:
                return {"status": ANOMALY,
                        "reason": "non-star-centered tree with no far leaf bag"}
            if twin_from_leaf_bag(tree, bag) is None:
                peel(tree, bag)  # verifies internally
    except Exception as exc:  # InvariantViolation and kin become violations
        return {"status": COUNTEREXAMPLE, "reason": f"{type(exc).__name__}: {exc}"}
    return {"status": VERIFIED}


# --- the campaign table ------------------------------------------------------------

FORT_AUDIT_MAX = 5


def _fort_n_max(p: dict) -> int:
    """The fort audit's corpus is every graph with n up to this."""
    return min(p["n_max"], FORT_AUDIT_MAX)


def _graphs(p: dict) -> list[Item]:
    """The ``g6_file`` corpus, else every connected graph on <= n_max vertices."""
    return load_corpus(p["g6_file"]) if p.get("g6_file") else builtin_corpus(p["n_max"])


def _graphs_descr(p: dict) -> dict:
    if p.get("g6_file"):
        return {"source": p["g6_file"]}
    return {"source": "builtin", "n_max": p["n_max"], "connected": True}


_PEEL_EXTRACT = Phase("peel_extract", _graphs, _peel_extract_worker)

CAMPAIGNS = {c.name: c for c in (
    Campaign("verify-dh", {"n_max": 8, "g6_file": None, "budget": None}, _graphs_descr,
             (Phase(None, _graphs, _dh_worker),),
             help="campaign: distance-hereditary graphs are path-extremal"),
    Campaign("verify-split-roundtrip",
             {"n_max": 8, "g6_file": None, "split_budget": None}, _graphs_descr,
             (Phase(None, _graphs, _roundtrip_worker),)),
    Campaign(
        "verify-unique-prime",
        {"n_max": 8, "m": 5, "g6_file": None, "budget": None, "split_budget": None},
        lambda p: {**_graphs_descr(p), "m": p["m"]},
        (
            Phase("phase1",
                  lambda p: split_prime_graphs(p["m"]),
                  _prime_core_worker, tag=1,
                  # the primes in enumeration order, not the records' graph6
                  # order, and the induced-subgraph classes checked
                  extra=lambda corpus, scan: {
                      "prime_graphs": list(map(write_graph6, corpus)),
                      "subgraph_classes": scan.count}),
            Phase("phase2", _graphs, _unique_prime_worker, tag=2),
        ),
        help="campaign: bounded prime cores, both phases",
    ),
    Campaign("audit-peel-extract", {"n_max": 8, "split_budget": None}, _graphs_descr,
             (replace(_PEEL_EXTRACT, name=None),)),
    Campaign(
        "audit-lemmas",
        {"n_max": 6, "budget": None, "split_budget": None},
        lambda p: {"source": "builtin", "n_max": p["n_max"],
                   "fort_n_max": _fort_n_max(p)},
        (
            Phase("leaf_recurrence", _graphs, _leaf_audit_worker),
            Phase("fort_avoidance",
                  lambda p: builtin_corpus(_fort_n_max(p), connected=False),
                  _fort_audit_worker),
            _PEEL_EXTRACT,
        ),
        help="campaign: leaf recurrence, fort-count identity, peel/extract",
    ),
)}


# --- the campaigns as functions: run_campaign bound to a table name ----------------


def _bound(name: str, doc: str) -> partial:
    fn = partial(run_campaign, name)
    fn.__name__, fn.__doc__ = name.replace("-", "_"), doc
    return fn


verify_dh = _bound("verify-dh", """Check that every connected
    distance-hereditary graph in the corpus is path-extremal.  Recognizer
    disagreements surface as anomalies, never as counterexamples.""")
verify_split_roundtrip = _bound("verify-split-roundtrip", """Decompose every
    corpus graph, re-reconstruct, check reducedness, and cross-check
    prime-bag-freeness against the metric DH oracle.""")
verify_unique_prime = _bound("verify-unique-prime", """Finite verification of
    the bounded-prime-core reduction.

    Phase 1 discharges the hypothesis: every induced subgraph of every
    split-prime graph on <= m vertices is path-extremal.  Phase 2 checks the
    conclusion on the corpus: every connected graph whose decomposition has
    exactly one prime bag of size <= m is path-extremal.""")
audit_peel_extract = _bound("audit-peel-extract", """Peel and prime-core
    reductions over the unique-prime corpus: every peel must reconstruct G-x
    and G-{x,c} with the prime label intact, and every star-centered tree
    must extract a core Q with G = Q + pendants.""")
audit_lemmas = _bound("audit-lemmas", """Executable lemma audits: the leaf
    recurrence on every connected graph with a leaf, the fort-count identity
    (forts and closures give the same z(G;k) at every k) on every graph with
    n <= min(n_max, 5), and the peel / prime-core reductions on the
    unique-prime corpus.""")
