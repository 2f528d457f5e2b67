"""CLI: subcommands, flags, env precedence, exit codes, report stability."""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zfx
from zfx import campaigns
from zfx.cli import build_parser, main
from zfx.graphs import ENUM_MAX


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_profile_path(capsys):
    code, payload, _ = run_json(capsys, "profile", "--path", "4")
    assert code == 0
    assert payload["z"] == [0, 2, 6, 4, 1]
    assert payload["zero_forcing_number"] == 1


def test_profile_cycle(capsys):
    code, payload, _ = run_json(capsys, "profile", "--cycle", "4")
    assert code == 0 and payload["z"] == [0, 0, 4, 4, 1]


def test_profile_g6_literal(capsys):
    code, payload, _ = run_json(capsys, "profile", "--g6", "C~")
    assert code == 0
    assert payload["z"] == [0, 0, 0, 4, 1]
    assert payload["zero_forcing_number"] == 3


def test_g6_is_a_literal_even_when_a_file_has_its_name(capsys, tmp_path, monkeypatch):
    """``--g6`` never reads a file and ``--g6-file`` always does."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "C~").write_text("DhC\n")  # P_5
    code, payload, _ = run_json(capsys, "profile", "--g6", "C~")
    assert code == 0 and payload["graph6"] == "C~"
    assert payload["z"] == [0, 0, 0, 4, 1]  # K_4
    code, payload, _ = run_json(capsys, "profile", "--g6-file", "C~")
    assert code == 0 and payload["graph6"] == "DhC" and payload["n"] == 5
    code, _, err = run(capsys, "profile", "--g6-file", "missing.g6")
    assert code == 1 and "error:" in err


def test_profile_against_path(capsys):
    code, payload, _ = run_json(capsys, "profile", "--path", "5", "--against-path")
    assert code == 0 and payload["margins"] == [0] * 6
    code, payload, _ = run_json(capsys, "profile", "--cycle", "5", "--against-path")
    assert all(m >= 0 for m in payload["margins"])


def test_profile_human_output(capsys):
    code, out, _ = run(capsys, "profile", "--path", "4")
    assert code == 0
    assert "z(G;k)" in out and "Z(G) = 1" in out and "polynomial" in out


def test_profile_file_input(capsys, tmp_path):
    f = tmp_path / "corpus.g6"
    f.write_text("C~\nDhC\n")
    code, payload, _ = run_json(capsys, "profile", "--g6-file", str(f))
    assert code == 0 and len(payload) == 2


def test_budget_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("ZFX_BUDGET_SUBSETS", "3")
    code, _, err = run(capsys, "profile", "--path", "4")
    assert code == 1 and "budget" in err
    code, _, err = run(capsys, "profile", "--path", "4", "--budget-subsets", "10")
    assert code == 0


def test_budget_default_is_the_forcing_constant(capsys, monkeypatch):
    """With neither flag nor environment, the CLI's subset budget is
    ``forcing.DEFAULT_SUBSET_BUDGET``, read when it runs."""
    monkeypatch.delenv("ZFX_BUDGET_SUBSETS", raising=False)
    monkeypatch.setattr(zfx.forcing, "DEFAULT_SUBSET_BUDGET", 3)
    code, _, err = run(capsys, "profile", "--path", "4")
    assert code == 1 and "exceeds budget 3" in err


def test_empty_g6_file(capsys, tmp_path):
    f = tmp_path / "empty.g6"
    f.write_text("")
    code, payload, _ = run_json(capsys, "profile", "--g6-file", str(f))
    assert code == 0 and payload == []


def test_bad_graph6_exits_1(capsys):
    code, _, err = run(capsys, "profile", "--g6", "D?")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "profile", "--g6", "A\u00e9")
    assert code == 1 and "non-ASCII" in err


def test_non_ascii_line_skips_in_a_campaign(capsys, tmp_path):
    """One non-ASCII line of a corpus file is one parse skip; the lines
    around it are still scanned, whatever bytes the file holds."""
    for raw in ("A_\nB\u00e9\nBw\n".encode("utf-8"), b"A_\nB\xe9\nBw\n"):
        f = tmp_path / "corpus.g6"
        f.write_bytes(raw)
        code, payload, err = run_json(capsys, "verify-dh", "--g6-file", str(f))
        assert code == 0 and err == ""
        assert payload["totals"] == {"scanned": 3, "verified": 2, "skipped": 1,
                                     "counterexamples": 0}
        (skip,) = payload["skipped"]
        assert skip["reason"] == "parse: non-ASCII character (byte 1)"


def test_decompose_p4(capsys):
    code, payload, _ = run_json(capsys, "decompose", "--path", "4", "--check")
    assert code == 0
    assert payload["is_dh"] is True and payload["prime_bag_count"] == 0
    assert any(line.startswith("bag 0 kind=star") for line in payload["tree"])


def test_decompose_c5(capsys):
    code, payload, _ = run_json(capsys, "decompose", "--cycle", "5")
    assert code == 0 and payload["prime_bag_count"] == 1
    assert payload["is_dh"] is False


def test_decompose_disconnected_errors(capsys, tmp_path):
    f = tmp_path / "disc.g6"
    f.write_text("C?\n")  # empty graph on 4 vertices
    code, _, err = run(capsys, "decompose", "--g6-file", str(f))
    assert code == 1 and "disconnected" in err


def test_recognize_dh(capsys):
    code, payload, _ = run_json(capsys, "recognize-dh", "--path", "5", "--check")
    assert code == 0 and payload["is_dh"] is True
    assert payload["replay_ok"] is True
    assert len(payload["steps"]) == 4
    code, payload, _ = run_json(capsys, "recognize-dh", "--cycle", "5")
    assert code == 2 and payload["is_dh"] is False
    for n in ("4", "10"):  # with or without --check, at any n
        code, payload, _ = run_json(capsys, "recognize-dh", "--star", n)
        assert code == 0 and payload["metric_oracle"] is True


def test_verify_dh_small(capsys):
    code, payload, _ = run_json(capsys, "verify-dh", "--nmax", "5")
    assert code == 0
    assert payload["counterexamples"] == [] and payload["anomalies"] == []
    assert payload["totals"]["scanned"] == 31  # connected graphs n <= 5
    assert payload["totals"]["verified"] == 28  # the DH ones
    reasons = {s["reason"] for s in payload["skipped"]}
    assert reasons == {"not distance-hereditary"}


def test_verify_dh_corpus_with_c5(capsys, tmp_path):
    f = tmp_path / "c.g6"
    f.write_text("DhC\nDLo\n")  # P_5 and C_5
    code, payload, _ = run_json(capsys, "verify-dh", "--g6-file", str(f))
    assert code == 0
    assert payload["totals"]["verified"] == 1
    assert payload["skipped"][0]["graph6"] == "DLo"


def test_verify_unique_prime_small(capsys):
    code, payload, _ = run_json(
        capsys, "verify-unique-prime", "--nmax", "6", "--m", "5"
    )
    assert code == 0
    assert payload["phases"]["phase1"]["scanned"] == 3
    assert payload["phases"]["phase2"]["scanned"] == 143
    assert payload["counterexamples"] == []


def test_verify_unique_prime_m4_vacuous(capsys):
    code, payload, _ = run_json(
        capsys, "verify-unique-prime", "--nmax", "5", "--m", "4"
    )
    assert code == 0
    assert payload["phases"]["phase1"]["scanned"] == 0
    assert payload["phases"]["phase2"]["verified"] == 0  # nothing qualifies


def test_verify_unique_prime_m_defaults_to_the_table(capsys, monkeypatch):
    """Without --m the campaign table's default reaches the run."""
    spec = campaigns.CAMPAIGNS["verify-unique-prime"]
    monkeypatch.setitem(campaigns.CAMPAIGNS, "verify-unique-prime",
                        replace(spec, params={**spec.params, "m": 4}))
    code, payload, _ = run_json(capsys, "verify-unique-prime", "--nmax", "3")
    assert code == 0 and payload["corpus"]["m"] == 4


def test_verify_unique_prime_m_above_enum_max_exits_1(capsys):
    code, out, err = run(capsys, "verify-unique-prime", "--nmax", "3",
                         "--m", str(ENUM_MAX + 1))
    assert code == 1 and out == ""
    assert err == (f"error: m={ENUM_MAX + 1} exceeds ENUM_MAX={ENUM_MAX}: the "
                   "split-prime graphs on <= m vertices come from the built-in "
                   "enumeration\n")


def test_audit_lemmas_nmax_above_enum_max_exits_1(capsys):
    """audit-lemmas reads no graph6 file, so n_max is refused by name
    rather than with advice to supply one."""
    code, out, err = run(capsys, "audit-lemmas", "--nmax", str(ENUM_MAX + 1))
    assert code == 1 and out == ""
    assert err == (f"error: n_max={ENUM_MAX + 1} exceeds ENUM_MAX={ENUM_MAX}: "
                   "audit-lemmas reads only the built-in enumeration\n")


def test_audit_lemmas_small(capsys):
    code, payload, _ = run_json(capsys, "audit-lemmas", "--nmax", "5")
    assert code == 0 and payload["counterexamples"] == []
    assert set(payload["phases"]) == {
        "leaf_recurrence",
        "fort_avoidance",
        "peel_extract",
    }


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0 and len(out.strip().splitlines()) == 11
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--connected")
    assert len(out.strip().splitlines()) == 6
    code, _, err = run(capsys, "enumerate", "--n", "10")
    assert code == 1 and "graph6" in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify-dh", "--nmax", "4", "--json", "--out", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["campaign"] == "verify-dh"


def test_profile_csv(capsys):
    code, out, _ = run(capsys, "profile", "--path", "4", "--against-path", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,k,z,zprime,margin"
    assert len(lines) == 6
    assert lines[1].endswith(",0,0,1,0")


def test_campaign_csv(capsys):
    code, out, _ = run(capsys, "verify-dh", "--nmax", "4", "--csv")
    assert code == 0
    assert out.strip().splitlines()[0] == "graph6,witness_k,margins,reason"


def _normalize(payload: dict) -> dict:
    payload.pop("timing_seconds", None)
    return payload


def test_jobs_do_not_change_reports(capsys, monkeypatch):
    code1, p1, _ = run_json(capsys, "verify-dh", "--nmax", "5", "--jobs", "1")
    code2, p2, _ = run_json(capsys, "verify-dh", "--nmax", "5", "--jobs", "2")
    assert code1 == code2 == 0
    assert _normalize(p1) == _normalize(p2)
    monkeypatch.setenv("ZFX_JOBS", "2")
    code3, p3, _ = run_json(capsys, "verify-dh", "--nmax", "5")
    assert _normalize(p3) == _normalize(p1)


OUTPUT_FLAGS = [("--json", False), ("--csv", False), ("--out", None)]


@pytest.mark.parametrize("command,flags", [
    ("verify-dh", [("--nmax", None), ("--g6-file", None), ("--jobs", None),
                   ("--budget-subsets", None)] + OUTPUT_FLAGS),
    ("verify-unique-prime", [("--nmax", None), ("--m", None), ("--g6-file", None),
                             ("--jobs", None), ("--budget-subsets", None),
                             ("--budget-splits", None)] + OUTPUT_FLAGS),
    ("audit-lemmas", [("--nmax", None), ("--jobs", None), ("--budget-subsets", None),
                      ("--budget-splits", None)] + OUTPUT_FLAGS),
])
def test_campaign_flags_and_defaults(command, flags):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    assert [(a.option_strings[-1], a.default)
            for a in actions if a.dest != "help"] == flags


@pytest.mark.parametrize("argv", [
    [],
    ["verify-dh", "--bogus"],
    ["verify-dh", "--nmax", "abc"],
    ["verify-dh", "--nmax", "0"],
    ["verify-dh", "--nmax", "-1"],
    ["verify-dh", "--jobs", "0"],
    ["verify-unique-prime", "--m", "0"],
    ["enumerate", "--n", "-1"],
    ["profile", "--path", "-1"],
    ["profile", "--cycle", "-2"],
    ["decompose", "--complete", "-1"],
    ["recognize-dh", "--star", "-1"],
    ["verify-dh", "--budget-subsets", "-1"],
    ["audit-lemmas", "--budget-splits", "-1"],
    ["profile", "--path", "3", "--budget-subsets", "-1"],
    ["decompose", "--path", "3", "--budget-splits", "-1"],
    ({"ZFX_JOBS": "0"}, ["verify-dh", "--nmax", "3"]),
    ({"ZFX_JOBS": "-3"}, ["verify-dh", "--nmax", "3"]),
    ({"ZFX_JOBS": "two"}, ["verify-dh", "--nmax", "3"]),
    ({"ZFX_BUDGET_SUBSETS": "-1"}, ["verify-dh", "--nmax", "3"]),
    ({"ZFX_BUDGET_SUBSETS": "-1"}, ["profile", "--path", "3"]),
])
def test_usage_errors_exit_1(capsys, monkeypatch, argv):
    if isinstance(argv, tuple):
        env, argv = argv
        for name, value in env.items():
            monkeypatch.setenv(name, value)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err and "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-dh", "--help"])
    assert exc.value.code == 0
    assert "--budget-subsets" in capsys.readouterr().out


def test_version_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == f"zfx {zfx.__version__} ({zfx.KERNEL_BACKEND} kernels)\n"


# label: (argv, sha256 of the run's exit code, stdout, stderr and --out
# text); FILE and OUT stand for a graph6 corpus and an output path
SINGLE_GRAPH_RUNS = {
    "profile-p4": (
        "profile --path 4",
        "38055a3c3dbf751999b7dd51c21d85eeac206a7dfc1fe5d19e8926d6ba61b152"),
    "profile-p4-json": (
        "profile --path 4 --json",
        "66573d9450d969ac696c9da26707b60e779915924dfaf0238de3acd090e1e95e"),
    "profile-p0": (
        "profile --path 0",
        "2cb19738dca58de47cb37e718fb1f8236277e487ceddddc34164dde413c62d71"),
    "profile-star1": (
        "profile --star 1",
        "f98a566212983b7111618d8e786b39ec3eae35521aa88f56f3cee9f255b678aa"),
    "profile-c5-vs-path": (
        "profile --cycle 5 --against-path",
        "0fb9c5929abc7d21b01104ca02ad04c9eb351387fa0244d4aa4dcdef3fed71c1"),
    "profile-c5-vs-path-json": (
        "profile --cycle 5 --against-path --json",
        "4272474c49d91319241f7438a3e11af47cf7dbcf0df3c66e7c1074758bd5915d"),
    "profile-c5-vs-path-csv": (
        "profile --cycle 5 --against-path --csv",
        "3306cab9d8edfd6b241e12977e4f79053e5710b1785f4ce126e97c5f91bc6b5d"),
    "profile-c5-csv-json": (
        "profile --cycle 5 --csv --json",
        "ca6fd65e744021f0083fece5d7ff7ae409ab57059ddec88cc12f298ff278e2da"),
    "profile-file": (
        "profile --g6-file FILE",
        "faa0564153cd41d0ee401609a05655a3b585727cd629cf5bcadacfd1e94aa0ea"),
    "profile-file-json": (
        "profile --g6-file FILE --json",
        "f1e16b17424e742a20a73058406bea7731fb8e46079b3e5883a93db09e4ba100"),
    "profile-file-csv-vs-path": (
        "profile --g6-file FILE --csv --against-path",
        "8e125519593f8a1764168d95169e340a0c766652da9a3a07200c85e90b604e90"),
    "profile-p4-out": (
        "profile --path 4 --out OUT",
        "38055a3c3dbf751999b7dd51c21d85eeac206a7dfc1fe5d19e8926d6ba61b152"),
    "decompose-p4-check": (
        "decompose --path 4 --check",
        "3139fece405d1c9dc40e0c80f1fa5eb9ec1086e8559fb4dae6ec553d39071670"),
    "decompose-c5-json": (
        "decompose --cycle 5 --json",
        "345137eff9e9b09ad908da8ffb17bd24ae4ca89b7eb56ee97fe4eaec43d57584"),
    "decompose-k1": (
        "decompose --complete 1",
        "c074ef318f11d8023bf8f625c7e8f7d9f55d78b6aa6f08843a3c4dd4b660fd4e"),
    "decompose-file-check": (
        "decompose --g6-file FILE --check",
        "793b3e145cc026968375ba53601e3b61f5874c1cc66a5ff2c9fc1cefb1e3ba33"),
    "decompose-file-json": (
        "decompose --g6-file FILE --json",
        "05e9a417353c74604b39e3b82989e20f5efa7f50566101554cf11a267d836d69"),
    "dh-p5-check": (
        "recognize-dh --path 5 --check",
        "e198751ed60fb237770e9e500980e81236386a47de46787f380f77c70e086912"),
    "dh-c5": (
        "recognize-dh --cycle 5",
        "a3e03a26dff8dacc9efc337b7cd51e1b8cbd40d9c802c29757a91734063e495d"),
    "dh-c5-json": (
        "recognize-dh --cycle 5 --json",
        "746a142ab5f783b3bfbaa6eecf968b37c93dbcfcb48b7d8a99d7cd439a80dafd"),
    "dh-p9-check-json": (
        "recognize-dh --path 9 --check --json",
        "ad9e23ae8259149969cc6846acc0365efe74bede75270389ac65bc332573d448"),
    "dh-file": (
        "recognize-dh --g6-file FILE",
        "2f158dcac9f8b3536217687ddff9a33466b0a8583cb945f0dccdaf0c1efb12c0"),
    "dh-file-check-json": (
        "recognize-dh --g6-file FILE --check --json",
        "824aab9b00acd28fe5ea41bee46188c14a134305f4d98cbf736cd7f1558d56af"),
}


def test_single_graph_outputs_pinned(capsys, monkeypatch, tmp_path):
    """Exit code, stdout, stderr and --out text of profile, decompose and
    recognize-dh runs, byte for byte, one sha256 per run: a renamed flag
    leaves every pin, and a failure names its run."""
    monkeypatch.delenv("ZFX_BUDGET_SUBSETS", raising=False)
    corpus, target = tmp_path / "corpus.g6", tmp_path / "out.txt"
    corpus.write_text("C~\nDhC\nDhc\nBw\n")
    paths = {"FILE": str(corpus), "OUT": str(target)}
    got = {}
    for label, (line, _) in SINGLE_GRAPH_RUNS.items():
        argv = line.split()
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
        written = target.read_text() if "OUT" in argv else ""
        got[label] = hashlib.sha256(f"{code}\n{out}{err}{written}".encode()).hexdigest()
    assert got == {label: pin for label, (_, pin) in SINGLE_GRAPH_RUNS.items()}


def _small(token: str) -> bool:
    """True unless the token reads as an integer outside -4..4, so a stray
    token never asks for a large graph, corpus or process pool."""
    try:
        return abs(int(token)) <= 4
    except ValueError:
        return True


# Stray tokens: short (graph6 literals stay tiny) and without "/" (every
# path they name is relative to the test's own directory).
TOKENS = st.text(max_size=8).filter(lambda t: "/" not in t and _small(t))
# The environment cannot hold NUL or lone surrogates.
ENV_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    max_size=6,
).filter(_small)


def _positive(raw: str) -> bool:
    try:
        return int(raw) >= 1
    except ValueError:
        return False


@st.composite
def _cli_call(draw):
    """(argv, env): a subcommand, some of its flags with cheap values, and
    stray tokens, in random order."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    name = draw(st.sampled_from(sorted(sub.choices)))
    flags = {a.option_strings[-1]: a for a in sub.choices[name]._actions
             if a.option_strings and a.dest not in ("help", "jobs")}
    pieces = []
    for flag, action in sorted(flags.items()):
        if not draw(st.booleans()):
            continue
        if action.nargs == 0:
            pieces.append([flag])
            continue
        if flag == "--out":
            value = st.just("out.txt")
        elif flag == "--g6":
            value = st.sampled_from(["C~", "A_", "Bw", "?"]) | TOKENS
        elif flag == "--g6-file":
            value = st.just("corpus.g6") | TOKENS
        elif action.type is not None:
            value = st.integers(-1, 4).map(str) | TOKENS
        else:
            value = TOKENS
        pieces.append([flag, draw(value)])
    pieces += [[t] for t in draw(st.lists(TOKENS, max_size=1))]
    argv = [name] + [a for p in draw(st.permutations(pieces)) for a in p]
    if "--nmax" in flags and "--nmax" not in argv:  # the default is 8
        argv += ["--nmax", str(draw(st.integers(1, 4)))]
    env_value = st.sampled_from(["", "1", "3"]) | ENV_TEXT
    env = {"ZFX_JOBS": draw(env_value), "ZFX_BUDGET_SUBSETS": draw(env_value)}
    # A valid ZFX_JOBS is overridden, so no example starts a process pool;
    # an invalid one is left for the CLI to refuse.
    if "jobs" in {a.dest for a in sub.choices[name]._actions} and _positive(
        env["ZFX_JOBS"]
    ):
        argv += ["--jobs", "1"]
    return argv, env


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_call())
def test_cli_fuzz_exits_cleanly(capsys, monkeypatch, tmp_path, call):
    """Any argv and environment ends in exit 0, 1 or 2, never a traceback."""
    argv, env = call
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.g6").write_text("C~\nBw\nDhC\n")
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, env, err)
    assert "Traceback" not in err
