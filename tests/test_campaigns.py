"""campaigns: report shape, corpus handling, shard invariance."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from functools import cache

import pytest

import zfx.campaigns as campaigns
from zfx import _kernels_py as pyk
from zfx import kernels
from zfx.campaigns import (
    audit_lemmas,
    audit_peel_extract,
    builtin_corpus,
    split_prime_graphs,
    verify_dh,
    verify_split_roundtrip,
    verify_unique_prime,
)
from zfx.errors import CapacityError, TraceError
from zfx.graphs import (
    ENUM_MAX,
    Graph,
    are_isomorphic,
    canonical_form,
    classify_kind,
    make_cycle,
    make_path,
    parse_graph6,
    write_graph6,
)


def _check_report_invariants(report):
    assert report.scanned == (
        report.verified
        + len(report.counterexamples)
        + len(report.skipped)
        + len(report.anomalies)
    )
    payload = json.loads(report.to_json())
    assert payload["campaign"] == report.campaign
    assert payload["totals"]["scanned"] == report.scanned
    assert "timing_seconds" in payload
    assert "timing_seconds" not in json.loads(report.normalized_json())


def test_builtin_corpus_counts():
    assert len(builtin_corpus(5)) == 31
    assert len(builtin_corpus(5, connected=False)) == 52
    for g in builtin_corpus(4):
        assert parse_graph6(write_graph6(g)) == g


def test_split_prime_graphs():
    assert split_prime_graphs(4) == []
    primes = split_prime_graphs(5)
    assert len(primes) == 3
    assert any(are_isomorphic(h, make_cycle(5)) for h in primes)


@cache
def _split_prime_by_definition(m):
    return [g for g in builtin_corpus(m) if classify_kind(g).tag == "other"
            and kernels.find_split_mask(g.n, g.adj) == 0]


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_split_prime_graphs_match_the_definition_to_n8(backend, request, monkeypatch):
    """One prime bag out of the split recursion is the definition (neither
    clique nor star, and no split) on the connected classes with n <= 8."""
    module = pyk if backend == "python" else request.getfixturevalue("cyk")
    monkeypatch.setattr(kernels, "split_bags", module.split_bags)
    assert len(split_prime_graphs(5)) == 3
    primes = split_prime_graphs(8)
    assert len(primes) == 3644
    assert primes == _split_prime_by_definition(8)


def test_verify_dh_report_shape():
    r = verify_dh(n_max=5)
    _check_report_invariants(r)
    assert r.clean and r.exit_code() == 0
    assert r.corpus == {"source": "builtin", "n_max": 5, "connected": True}


def test_verify_dh_file_corpus(tmp_path):
    f = tmp_path / "mixed.g6"
    f.write_text("DhC\nDLo\nC?\nnot-a-graph\n")
    r = verify_dh(g6_file=str(f))
    _check_report_invariants(r)
    assert r.verified == 1  # P_5
    reasons = sorted(s["reason"] for s in r.skipped)
    assert any("not distance-hereditary" in x for x in reasons)  # C_5
    assert any("disconnected" in x for x in reasons)  # empty graph on 4
    assert any(x.startswith("parse") for x in reasons)


def test_roundtrip_report():
    r = verify_split_roundtrip(n_max=5)
    _check_report_invariants(r)
    assert r.verified == r.scanned == 31


def test_unique_prime_report():
    r = verify_unique_prime(n_max=6, m=5)
    _check_report_invariants(r)
    assert r.phases["phase1"]["scanned"] == 3
    assert r.phases["phase2"]["scanned"] == 143
    # phase-2 verified graphs are exactly those with one small prime bag
    assert r.phases["phase2"]["verified"] == 24


def test_unique_prime_file_corpus(tmp_path):
    """A file corpus is described by its path and m alone: the builtin
    corpus's n_max and connectedness say nothing about the file."""
    f = tmp_path / "disconnected.g6"
    f.write_text("C?\n")  # the empty graph on 4 vertices
    r = verify_unique_prime(g6_file=str(f))
    _check_report_invariants(r)
    assert r.corpus == {"source": str(f), "m": 5}
    assert [s["reason"] for s in r.skipped] == ["disconnected"]


@pytest.mark.parametrize("campaign", [verify_dh, verify_split_roundtrip,
                                      verify_unique_prime])
def test_disconnected_graph6_line_is_skipped(tmp_path, campaign):
    """Built-in items come from the connected enumeration; a file line is
    checked for connectivity after it is parsed."""
    f = tmp_path / "mixed.g6"
    f.write_text("C?\nCF\n")  # the empty graph on 4 vertices, then K_{1,3}
    r = campaign(g6_file=str(f))
    _check_report_invariants(r)
    reasons = {s["graph6"]: s["reason"] for s in r.skipped}
    assert reasons["C?"] == "disconnected" and reasons.get("CF") != "disconnected"


def test_audit_campaigns_refuse_n_max_above_enum_max():
    for campaign in (audit_lemmas, audit_peel_extract):
        with pytest.raises(CapacityError, match=f"n_max={ENUM_MAX + 1} exceeds "
                           f"ENUM_MAX={ENUM_MAX}: audit-.* reads only the built-in"):
            campaign(n_max=ENUM_MAX + 1)


def test_unique_prime_refuses_m_above_enum_max():
    """Phase 1's split-prime graphs come from the built-in enumeration
    whatever the corpus is, so no m above ``ENUM_MAX`` can run."""
    with pytest.raises(CapacityError, match=f"m={ENUM_MAX + 1} exceeds ENUM_MAX={ENUM_MAX}"):
        verify_unique_prime(n_max=3, m=ENUM_MAX + 1)
    with pytest.raises(CapacityError, match=f"m={ENUM_MAX + 1} exceeds ENUM_MAX"):
        split_prime_graphs(ENUM_MAX + 1)


def test_audit_lemmas_report():
    r = audit_lemmas(n_max=5)
    _check_report_invariants(r)
    assert r.clean
    assert set(r.phases) == {"leaf_recurrence", "fort_avoidance", "peel_extract"}


def test_fort_audit_corpus_follows_n_max():
    """Below ``FORT_AUDIT_MAX`` the fort audit scans every graph with
    n <= n_max (1 + 2 + 4 at n_max = 3), and the corpus block says so."""
    r = audit_lemmas(n_max=3)
    assert r.corpus == {"source": "builtin", "n_max": 3, "fort_n_max": 3}
    assert r.phases["fort_avoidance"] == {"scanned": 7, "verified": 7}


def test_fort_audit_catches_a_wrong_fort_count(monkeypatch):
    """A fort count off by one at one k on one graph of the n <= 5 corpus
    is one counterexample of the fort audit, named by graph and k."""
    real = kernels.profile_counts
    c4 = canonical_form(make_cycle(4))

    def off_by_one(n, adj):
        z = real(n, adj)
        if (n, tuple(adj)) == (c4.n, c4.adj):
            z[2] += 1
        return z

    monkeypatch.setattr(kernels, "profile_counts", off_by_one)
    r = audit_lemmas(n_max=5)
    assert r.phases["fort_avoidance"] == {"scanned": 52, "verified": 51}
    assert [cx for cx in r.counterexamples if cx["reason"].startswith("fort")] == [
        {"graph6": write_graph6(c4), "witness_k": 2, "margins": [],
         "reason": "fort count 5 != closure count 4 of forcing 2-sets"}]


def test_audit_peel_extract_small():
    r = audit_peel_extract(n_max=6)
    _check_report_invariants(r)
    assert r.clean and r.verified > 0


def test_shard_invariance_small():
    a = verify_unique_prime(n_max=5, m=5, jobs=1)
    b = verify_unique_prime(n_max=5, m=5, jobs=3)
    assert a.normalized_json() == b.normalized_json()
    c = audit_lemmas(n_max=4, jobs=1)
    d = audit_lemmas(n_max=4, jobs=2)
    assert c.normalized_json() == d.normalized_json()


@pytest.fixture
def pools(monkeypatch):
    """Every process pool a campaign starts, each recording the corpora it
    hands its workers and the arguments of every task submitted to it.
    Two CPUs are usable, whatever the machine has."""
    made = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            (self.corpora,) = kwargs["initargs"]
            self.tasks = []
            made.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.tasks.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(campaigns, "_usable_cpus", lambda: 2)
    return made


def test_one_pool_per_campaign(pools):
    """All three audit-lemmas phases run on one pool, whose workers hold the
    two corpora; a task names a corpus and an index range, never a graph."""
    report = audit_lemmas(n_max=5, jobs=2)
    assert report.normalized_json() == audit_lemmas(n_max=5, jobs=1).normalized_json()
    (pool,) = pools
    assert len(pool.corpora) == 2  # leaf_recurrence and peel_extract share one
    for args in pool.tasks:
        assert not any(isinstance(a, (Graph, list, tuple)) for a in args), args
    _, corpus, _, _ = zip(*pool.tasks)
    assert set(corpus) == {0, 1}
    assert sum(min(stop, len(pool.corpora[c])) - start
               for _, c, start, stop in pool.tasks) == report.scanned


def test_unique_prime_corpora_share_one_pool(pools):
    report = verify_unique_prime(n_max=6, m=5, jobs=2)
    (pool,) = pools
    assert len(pool.corpora) == 2  # phase 1's primes, phase 2's graphs
    assert (report.normalized_json()
            == verify_unique_prime(n_max=6, m=5, jobs=1).normalized_json())


def test_bad_file_line_skips_alike_in_a_pool(pools, tmp_path):
    f = tmp_path / "corpus.g6"
    f.write_text("DhC\nD?\nC~\nBw\n")  # D? is cut short
    serial = verify_dh(g6_file=str(f), jobs=1)
    pooled = verify_dh(g6_file=str(f), jobs=2)
    assert len(pools) == 1
    assert pooled.skipped == serial.skipped
    parse_skips = [s["graph6"] for s in serial.skipped if s["reason"].startswith("parse")]
    assert parse_skips == ["D?"]
    assert pooled.normalized_json() == serial.normalized_json()


class _InlineExecutor:
    """Stands in for the process pool: runs each task here, at once, and
    records the worker count it was asked for."""

    made: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        initializer(*initargs)
        _InlineExecutor.made.append(self)

    def submit(self, fn, /, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("jobs,cpus,lines,workers", [
    (10_000, 4, None, 4),  # never more workers than usable CPUs
    (3, 4, None, 3),
    (8, 4, "A_\nBw\n", 2),  # nor than items in the largest corpus
    (8, 4, "Bw\n", None),  # one item: no pool at all
])
def test_pool_size_is_bounded(monkeypatch, tmp_path, jobs, cpus, lines, workers):
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(campaigns, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(campaigns, "_CORPORA", ())  # the initializer sets it here
    monkeypatch.setattr(_InlineExecutor, "made", [])
    params = {"n_max": 4}
    if lines is not None:
        (tmp_path / "c.g6").write_text(lines)
        params = {"g6_file": str(tmp_path / "c.g6")}
    report = verify_dh(jobs=jobs, **params)
    assert [e.max_workers for e in _InlineExecutor.made] == (
        [] if workers is None else [workers])
    assert report.normalized_json() == verify_dh(jobs=1, **params).normalized_json()


def test_usable_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert campaigns._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert campaigns._usable_cpus() == (os.cpu_count() or 1)


def test_corpus_lines_round_trip():
    for line in map(write_graph6, builtin_corpus(5)):
        assert write_graph6(parse_graph6(line)) == line


@pytest.mark.parametrize("jobs", [1, 2])
def test_file_corpus_matches_builtin(tmp_path, jobs):
    """The built-in corpus carries Graphs, a file corpus graph6 lines (and a
    pool pickles either); both must give the same records."""
    f = tmp_path / "n6.g6"
    f.write_text("".join(write_graph6(g) + "\n" for g in builtin_corpus(6)))
    for campaign in (verify_dh, verify_split_roundtrip, verify_unique_prime):
        builtin = campaign(n_max=6, jobs=jobs).to_dict(include_timing=False)
        from_file = campaign(g6_file=str(f), jobs=jobs).to_dict(include_timing=False)
        assert builtin.pop("corpus") != from_file.pop("corpus")
        assert builtin == from_file


# sha256 of each campaign's normalized_json() at n_max=6 on the builtin corpus.
GOLDEN_N6 = {
    verify_dh: "8413881f78e481a5dca5439769c6b01b83b9d42ea4a4d8467531456c6b66e5be",
    verify_split_roundtrip:
        "594752928061fbe30904840b8f50ad31a2a568ba0648965eb4abdfb24d02ee4c",
    verify_unique_prime:
        "dcd5e4a94dcba61a17629dd3a59ec4c892ddaeed2a68b5b3a455f2e182f0a0a7",
    audit_peel_extract:
        "ad6ab2b6bdd7b41431426dfaedf8c04fab779ba807ef4d800be9bbe5a09e6450",
    audit_lemmas: "004797ca420efa1814575a4239e24ca51bdbd522f90677d7de2aac017b9e4615",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("campaign", list(GOLDEN_N6), ids=lambda f: f.__name__)
def test_golden_reports_n6(campaign, jobs):
    report = campaign(n_max=6, jobs=jobs)
    digest = hashlib.sha256(report.normalized_json().encode()).hexdigest()
    assert digest == GOLDEN_N6[campaign]


def test_worker_failure_becomes_anomaly(monkeypatch):
    real_replay = campaigns.replay_trace

    def replay(trace):
        g = real_replay(trace)
        if are_isomorphic(g, make_path(5)):
            raise TraceError("injected failure")
        return g

    monkeypatch.setattr(campaigns, "replay_trace", replay)
    r = verify_dh(n_max=5)
    _check_report_invariants(r)
    assert len(r.anomalies) == 1
    assert are_isomorphic(parse_graph6(r.anomalies[0]["graph6"]), make_path(5))
    assert r.anomalies[0]["reason"] == "TraceError: injected failure"
    assert r.scanned == 31 and r.verified == 27
    assert r.exit_code() == 1


def test_library_functions_are_the_table_bound():
    for name in campaigns.CAMPAIGNS:
        fn = getattr(campaigns, name.replace("-", "_"))
        assert fn.__name__ == name.replace("-", "_")
        assert fn.__doc__ and fn.__doc__.strip()
    assert (verify_dh(n_max=4).normalized_json()
            == campaigns.run_campaign("verify-dh", n_max=4).normalized_json())


def test_library_functions_take_keywords_only():
    with pytest.raises(TypeError):
        verify_dh(4)
    with pytest.raises(TypeError):
        campaigns.run_campaign("verify-dh", 1)
    with pytest.raises(TypeError, match="n_maks"):
        verify_dh(n_maks=4)
    with pytest.raises(TypeError, match="budget"):
        audit_peel_extract(n_max=3, budget=5)


def test_phase_workers_take_campaign_parameters():
    """A phase passes its worker the campaign parameters that the worker's
    parameters after its graph name, so each must be one of the campaign's."""
    for spec in campaigns.CAMPAIGNS.values():
        for phase in spec.phases:
            takes = list(inspect.signature(phase.worker).parameters)[1:]
            assert set(takes) <= spec.params.keys(), (spec.name, phase.worker)


# --- the streaming fold ------------------------------------------------------------


@pytest.fixture
def graph6_writes(monkeypatch):
    """The graphs ``write_graph6`` is called on, wherever zfx binds it."""
    written = []

    def counting(g):
        written.append(g)
        return write_graph6(g)

    for name, module in list(sys.modules.items()):
        if (name == "zfx" or name.startswith("zfx.")) and (
                getattr(module, "write_graph6", None) is write_graph6):
            monkeypatch.setattr(module, "write_graph6", counting)
    return written


def test_only_listed_records_are_named(graph6_writes):
    """A verified outcome is counted, never named: the round trip verifies
    every graph and writes no graph6, and verify-dh writes one per skip."""
    roundtrip = verify_split_roundtrip(n_max=6)
    assert roundtrip.verified == roundtrip.scanned == 143
    assert graph6_writes == []
    dh = verify_dh(n_max=6)
    assert len(graph6_writes) == len(dh.skipped) == dh.scanned - dh.verified > 0
    assert sorted(map(write_graph6, graph6_writes)) == [s["graph6"] for s in dh.skipped]


@pytest.mark.parametrize("name", sorted(campaigns.CAMPAIGNS))
def test_jobs_1_and_2_fold_alike(name, monkeypatch):
    """Folded per item and per finished task, the reports are the same;
    two workers start whatever the machine has."""
    monkeypatch.setattr(campaigns, "_usable_cpus", lambda: 2)
    serial = campaigns.run_campaign(name, n_max=6, jobs=1)
    pooled = campaigns.run_campaign(name, n_max=6, jobs=2)
    assert pooled.normalized_json() == serial.normalized_json()


def test_file_corpus_folds_alike_at_jobs_1_and_2(tmp_path, monkeypatch):
    """A file corpus with a malformed line, a disconnected line and a
    repeated line gives the same report at jobs 1 and 2."""
    monkeypatch.setattr(campaigns, "_usable_cpus", lambda: 2)
    lines = [write_graph6(g) for g in builtin_corpus(5)]
    lines[7:7] = ["D?", "C?", lines[3]]  # cut short, 4 isolated vertices, again
    f = tmp_path / "mixed.g6"
    f.write_text("".join(line + "\n" for line in lines))
    for campaign in (verify_dh, verify_split_roundtrip, verify_unique_prime):
        serial = campaign(g6_file=str(f), jobs=1)
        _check_report_invariants(serial)
        reasons = {s["graph6"]: s["reason"] for s in serial.skipped}
        assert reasons["C?"] == "disconnected" and reasons["D?"].startswith("parse")
        pooled = campaign(g6_file=str(f), jobs=2)
        assert pooled.normalized_json() == serial.normalized_json()


def test_repeated_records_fold_alike_in_any_task_order(tmp_path, monkeypatch):
    """Records with one graph6 come from one line, so they are equal: a
    file corpus with a repeated skip and a repeated malformed line gives a
    byte-identical report at jobs 1 and at jobs 2 with its tasks folded in
    reverse order."""
    monkeypatch.setattr(campaigns, "_usable_cpus", lambda: 2)
    f = tmp_path / "repeats.g6"
    f.write_text("DhC\nDLo\nD?\nC?\nDLo\nBw\nD?\n")  # C_5 and a cut line twice
    serial = verify_dh(g6_file=str(f), jobs=1)
    assert [s["graph6"] for s in serial.skipped] == ["C?", "D?", "D?", "DLo", "DLo"]
    monkeypatch.setattr(campaigns, "as_completed", lambda fs: reversed(list(fs)))
    pooled = verify_dh(g6_file=str(f), jobs=2)
    assert pooled.normalized_json().encode() == serial.normalized_json().encode()


@pytest.mark.parametrize("jobs", [1, 2])
def test_phase1_primes_and_subgraph_total(jobs):
    """Phase 1 lists the split-prime graphs in enumeration order and totals
    the induced-subgraph classes over every outcome, verified ones too."""
    phase1 = verify_unique_prime(n_max=5, m=6, jobs=jobs).phases["phase1"]
    assert phase1["scanned"] == phase1["verified"] == 21
    assert phase1["subgraph_classes"] == 309
    assert phase1["prime_graphs"] == list(map(write_graph6, split_prime_graphs(6)))
    assert phase1["prime_graphs"][:4] == ["DLo", "DLs", "DL{", "EJeg"]
    assert hashlib.sha256(json.dumps(phase1["prime_graphs"]).encode()).hexdigest() == (
        "1a7e26c9658b2678c710af9d12a0f57879abd6d7d11d5726eb031c7e430541cd")


def test_phase1_counterexample_names_its_prime(monkeypatch):
    """A phase-1 counterexample is the prime graph whose induced subgraph
    fails, tagged phase 1, and ``subgraph_classes`` counts the classes
    checked up to and including the failing one."""
    real = campaigns.check_path_extremal

    def p4_fails(g, budget=None):
        verdict = real(g, budget)
        if write_graph6(g) == "CL":
            return replace(verdict, is_path_extremal=False, witness_k=2)
        return verdict

    monkeypatch.setattr(campaigns, "check_path_extremal", p4_fails)
    r = verify_unique_prime(n_max=5, m=5)
    _check_report_invariants(r)
    phase1 = r.phases["phase1"]
    assert (phase1["scanned"], phase1["verified"]) == (3, 0)
    assert phase1["subgraph_classes"] == 18
    assert [(cx["graph6"], cx["phase"], cx["witness_k"], cx["reason"])
            for cx in r.counterexamples] == [
        (g6, 1, 2, "induced subgraph CL not path-extremal")
        for g6 in ("DLo", "DLs", "DL{")]
    assert r.exit_code() == 2


def test_phase1_budget_cap_counts_the_classes_checked():
    """A budget cap in phase 1 is an anomaly, and ``subgraph_classes``
    still counts the classes verified before it."""
    r = verify_unique_prime(n_max=5, m=5, budget=3)
    phase1 = r.phases["phase1"]
    assert (phase1["scanned"], phase1["verified"]) == (3, 0)
    assert [a["reason"] for a in r.anomalies] == [
        "CapacityError: subset enumeration over 4 vertices exceeds budget 3"] * 3
    assert phase1["subgraph_classes"] == 15
    assert r.exit_code() == 1
