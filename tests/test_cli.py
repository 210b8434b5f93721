import os
import re
import subprocess
import sys

import pytest

from pacreason import backends, cli, cutting_planes, formats, polycalc, res_k, resolution
from pacreason.cli import SYSTEMS, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def aviary(tmp_path):
    """KB: fly-unless-penguin style single rule (not-x1 or x2); query x2."""
    kb = write(tmp_path / "kb.cnf", "p cnf 2 1\n-1 2 0\n")
    query = write(tmp_path / "query.cnf", "p cnf 2 1\n2 0\n")
    dist = write(tmp_path / "obs.dist", "p dist 2 1\n1/1 11\n")
    return {"kb": kb, "query": query, "dist": dist, "dir": tmp_path}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def uniform_dist(tmp_path, n):
    """A dist file putting weight 1/2^n on every point of {0,1}^n."""
    points = [format(i, f"0{n}b") for i in range(2 ** n)]
    text = f"p dist {n} {len(points)}\n" + "".join(f"1/{len(points)} {p}\n" for p in points)
    return write(tmp_path / f"uniform{n}.dist", text)


# one `prove` instance per case: system, backend flags, kb text, query text
PROVE_CASES = {
    "res-space": ("res-space", ["--s", "2"], "p cnf 2 2\n-1 2 0\n1 0\n", "p cnf 2 1\n2 0\n"),
    "res-space-reject": ("res-space", ["--s", "2"], "p cnf 2 1\n-1 2 0\n", "p cnf 2 1\n2 0\n"),
    # x1 is declared but occurs in no clause, so the search never cuts on it
    "res-space-unused-var": (
        "res-space", ["--s", "3"], "p cnf 3 2\n2 3 0\n-2 3 0\n", "p cnf 3 1\n3 0\n"
    ),
    "res-k-width": (
        "res-k-width", ["--k", "1", "--w", "2"], "p kdnf 2 1 2\nx1\n-x1|x2\n", "p cnf 2 1\n2 0\n"
    ),
    "pc": ("pc", ["--d", "2"], "p poly 2 2\n1 x1; -1\n1 x1 x2; -1 x1\n", "p poly 2 1\n1 x2; -1\n"),
    "pcr": ("pcr", ["--d", "2"], "p poly 2 2\n1 ~x1\n1 x1 ~x2\n", "p poly 2 1\n1 ~x2\n"),
    "cp": ("cp", ["--w", "1", "--L", "2"], "p cp 1 2\nx1:1 >= 1\nx1:-1 >= 0\n", "p cp 1 1\n>= 1\n"),
    "cp-divide": ("cp", ["--w", "2", "--L", "5"], "p cp 2 1\nx1:2 x2:2 >= 1\n", "p cp 2 1\nx1:1 x2:1 >= 1\n"),
    "cp-multiply": ("cp", ["--w", "2", "--L", "9"], "p cp 2 1\nx1:1 x2:1 >= 1\n", "p cp 2 1\nx1:3 x2:3 >= 3\n"),
    # implication chains: three saturation rounds, so the trace shows which
    # derivation of each line was offered first
    "res-k-width-chain": (
        "res-k-width", ["--k", "1", "--w", "2"],
        "p kdnf 6 1 6\nx1\n-x1|x2\n-x2|x3\n-x3|x4\n-x4|x5\n-x5|x6\n", "p cnf 6 1\n6 0\n",
    ),
    # table-birds' rules (BIRD=1, FLIES=2, WINGS=3, FEATHERS=4, EGGS=5,
    # PENGUIN=6, SWIMS=7, NEST=8) plus the fact BIRD, as in perfbench
    "res-k-width-birds": (
        "res-k-width", ["--k", "2", "--w", "2"],
        "p kdnf 8 1 9\nx1\n-x1|x3\n-x1|x4\n-x1|x5\n-x3|x2\n-x6|x1\n-x6|x7\n-x6|-x2\n-x8|x5\n",
        "p cnf 8 1\n2 0\n",
    ),
    "cp-chain": (
        "cp", ["--w", "2", "--L", "3"],
        "p cp 5 6\nx1:-1 x2:1 >= 0\nx2:-1 x3:1 >= 0\nx3:-1 x4:1 >= 0\nx4:-1 x5:1 >= 0\n"
        "x5:-1 >= 0\nx1:2 >= 1\n",
        "p cp 5 1\n>= 1\n",
    ),
}


def prove(case, tmp_path, capsys, extra=()):
    system, flags, kb_text, query_text = PROVE_CASES[case]
    kb = write(tmp_path / "kb.txt", kb_text)
    query = write(tmp_path / "query.txt", query_text)
    return run_cli(
        ["prove", "--system", system, *flags, "--kb", kb, "--query", query, *extra], capsys
    )


def test_decide_accepts_with_hidden_consequent(aviary, capsys):
    code, out, err = run_cli(
        [
            "decide",
            "--system", "res-space",
            "--epsilon", "1/10",
            "--gamma", "1/10",
            "--delta", "1/20",
            "--s", "1",
            "--kb", aviary["kb"],
            "--query", aviary["query"],
            "--dist", aviary["dist"],
            "--mask", "fixed:01",
            "--seed", "7",
            "--m", "20",
        ],
        capsys,
    )
    assert code == 0
    assert "verdict=Accept" in out
    assert "failed=0" in out
    assert err.startswith("wall_time_s=")


def test_decide_rejects_counterexample_distribution(tmp_path, capsys):
    kb = write(tmp_path / "kb.cnf", "p cnf 2 1\n-1 2 0\n")
    query = write(tmp_path / "query.cnf", "p cnf 2 1\n2 0\n")
    dist = write(tmp_path / "obs.dist", "p dist 2 1\n1/1 00\n")
    code, out, _ = run_cli(
        [
            "decide",
            "--system", "res-space",
            "--epsilon", "1/10",
            "--gamma", "1/10",
            "--delta", "1/20",
            "--s", "1",
            "--kb", kb,
            "--query", query,
            "--dist", dist,
            "--mask", "fixed:00",
            "--seed", "7",
            "--m", "20",
        ],
        capsys,
    )
    assert code == 1
    assert "verdict=Reject" in out


def test_the_default_sample_size_takes_a_tiny_gamma_or_delta(aviary, capsys):
    base = ["decide", "--system", "res-space", "--s", "1", "--epsilon", "1/2",
            "--kb", aviary["kb"], "--query", aviary["query"], "--dist", aviary["dist"],
            "--mask", "fixed:01", "--seed", "7"]
    code, out, _ = run_cli(base + ["--gamma", "1/2", "--delta", "1e-400"], capsys)
    assert code == 0 and "m=1843\n" in out
    code, out, err = run_cli(base + ["--gamma", "1e-200", "--delta", "1/20"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the Hoeffding sample size m exceeds {sys.maxsize}; "
        "give the example count with --m\n"
    )


def test_decide_rejects_mismatched_parameter(aviary, capsys):
    code, _, err = run_cli(
        [
            "decide",
            "--system", "cp",
            "--epsilon", "1/10",
            "--gamma", "1/10",
            "--delta", "1/20",
            "--s", "1",
            "--w", "1",
            "--L", "2",
            "--kb", aviary["kb"],
            "--query", aviary["query"],
            "--dist", aviary["dist"],
            "--mask", "fixed:01",
            "--seed", "7",
        ],
        capsys,
    )
    assert code == 2
    assert "--s" in err


def test_decide_missing_parameter(aviary, capsys):
    code, _, err = run_cli(
        [
            "decide",
            "--system", "res-space",
            "--epsilon", "1/10",
            "--gamma", "1/10",
            "--delta", "1/20",
            "--kb", aviary["kb"],
            "--query", aviary["query"],
            "--dist", aviary["dist"],
            "--mask", "fixed:01",
            "--seed", "7",
        ],
        capsys,
    )
    assert code == 2
    assert "--s" in err


def test_decide_from_samples_file(aviary, tmp_path, capsys):
    samples = write(tmp_path / "obs.pasgn", "p pasgn 2 3\n1*\n1*\n1*\n")
    code, out, _ = run_cli(
        [
            "decide",
            "--system", "res-space",
            "--epsilon", "1/3",
            "--gamma", "1/10",
            "--delta", "1/20",
            "--s", "1",
            "--kb", aviary["kb"],
            "--query", aviary["query"],
            "--samples", samples,
            "--per-example",
        ],
        capsys,
    )
    assert code == 0
    assert out.count("verdict=accept") == 3


@pytest.mark.parametrize(
    "extra, error",
    [
        (["--seed", "3"], "--samples excludes --seed"),
        (["--mask", "iid:1/2"], "--samples excludes --mask"),
        (["--dist", "DIST", "--mask", "iid:1/2", "--seed", "3"],
         "--samples excludes --dist, --mask, --seed"),
        (["--m", "7"], "--m 7 does not match the 3 examples in --samples"),
        (["--m", "3"], None),
    ],
)
def test_decide_samples_file_fixes_the_examples(extra, error, aviary, tmp_path, capsys):
    samples = write(tmp_path / "obs.pasgn", "p pasgn 2 3\n1*\n1*\n1*\n")
    extra = [aviary["dist"] if arg == "DIST" else arg for arg in extra]
    code, out, err = run_cli(
        ["decide", "--system", "res-space", "--epsilon", "1/3", "--gamma", "1/10",
         "--delta", "1/20", "--s", "1", "--kb", aviary["kb"], "--query", aviary["query"],
         "--samples", samples, *extra],
        capsys,
    )
    if error is None:
        assert code == 0 and "m=3\n" in out
    else:
        assert (code, out, err) == (2, "", f"error: {error}\n")


def test_decide_refuses_a_samples_file_without_examples(aviary, tmp_path, capsys):
    samples = write(tmp_path / "obs.pasgn", "p pasgn 2 0\n")
    code, out, err = run_cli(
        ["decide", "--system", "res-space", "--epsilon", "1/3", "--gamma", "1/10",
         "--delta", "1/20", "--s", "1", "--kb", aviary["kb"], "--query", aviary["query"],
         "--samples", samples],
        capsys,
    )
    assert (code, out, err) == (2, "", "error: need at least one example\n")


@pytest.mark.parametrize(
    "bad",
    [
        ["--epsilon", "2"],
        ["--gamma", "0"],
        ["--delta", "1"],
        ["--epsilon", "1/20", "--gamma", "1/10"],  # epsilon - gamma < 0
    ],
)
def test_decide_checks_the_pac_parameters_before_any_example(bad, aviary, tmp_path, capsys, monkeypatch):
    events = []
    draw, parse = cli.draw_masked_examples, formats.parse_pasgns

    def counted_draw(*args):
        events.append("draw")
        return draw(*args)

    def counted_parse(*args):
        events.append("parse")
        return parse(*args)

    monkeypatch.setattr(cli, "draw_masked_examples", counted_draw)
    monkeypatch.setattr(formats, "parse_pasgns", counted_parse)
    samples = write(tmp_path / "obs.pasgn", "p pasgn 2 3\n1*\n1*\n1*\n")
    params = {"--epsilon": "1/10", "--gamma": "1/10", "--delta": "1/20"}
    params.update(zip(bad[::2], bad[1::2]))
    base = ["decide", "--system", "res-space", "--s", "1", "--kb", aviary["kb"],
            "--query", aviary["query"], *(arg for item in params.items() for arg in item)]
    drawn = ["--dist", aviary["dist"], "--mask", "fixed:01", "--seed", "7"]
    errors = set()
    for extra in (drawn, drawn + ["--m", "5"], ["--samples", samples]):
        code, out, err = run_cli(base + extra, capsys)
        assert (code, out) == (2, "")
        errors.add(err)
    assert events == []
    assert len(errors) == 1 and errors.pop().startswith("error: ")


# the budget check of each system, which the CLI runs once per invocation on
# the unrestricted instance and no decider repeats
BUDGET_CHECKS = {
    "res-space": (resolution, "check_space_bound"),
    "res-k-width": (res_k, "check_budget"),
    "pc": (polycalc, "check_inputs"),
    "pcr": (polycalc, "check_inputs"),
    "cp": (cutting_planes, "check_target"),
}


@pytest.mark.parametrize("m", [1, 40])
@pytest.mark.parametrize("system", SYSTEMS)
def test_decide_checks_the_budget_once_before_drawing(system, m, tmp_path, capsys, monkeypatch):
    events = []
    package = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "pacreason"]
    for module, name in set(BUDGET_CHECKS.values()):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            events.append(_name)
            return _original(*args)

        # every module holding the check gets the counting one, so a decider
        # that called it would be counted too
        for mod in package:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    draw = cli.draw_masked_examples

    def counted_draw(*args):
        events.append("draw")
        return draw(*args)

    monkeypatch.setattr(cli, "draw_masked_examples", counted_draw)
    _, flags, kb_text, query_text = PROVE_CASES[system]
    n = int(kb_text.split()[2])
    code, out, _ = run_cli(
        ["decide", "--system", system, *flags, "--epsilon", "1/2", "--gamma", "1/10",
         "--delta", "1/20", "--kb", write(tmp_path / "kb.txt", kb_text),
         "--query", write(tmp_path / "query.txt", query_text),
         "--dist", uniform_dist(tmp_path, n), "--mask", "iid:1/2", "--seed", "5", "--m", str(m)],
        capsys,
    )
    assert code in (0, 1) and f"m={m}\n" in out
    assert events == [BUDGET_CHECKS[system][1], "draw"]


# an instance over a budget and two sample sets: where a line is over the
# budget, every example of the first restricts it under, the second leaves it;
# both, and examples drawn at several seeds, must give the same input error
OVER_BUDGET_CASES = {
    "res-space-s0": (
        "res-space", ["--s", "0"], "p cnf 2 1\n1 2 0\n", "p cnf 2 1\n1 0\n", ("1*", "10"), ("1*", "**")
    ),
    "res-k-width-w-negative": (
        "res-k-width", ["--k", "1", "--w", "-1"], "p kdnf 2 1 1\nx1\n", "p cnf 2 1\n2 0\n",
        ("1*", "0*"), ("**",),
    ),
    "res-k-width-k-below-kb": (
        "res-k-width", ["--k", "1", "--w", "2"], "p kdnf 2 2 1\nx1&x2\n", "p cnf 2 1\n2 0\n",
        ("1*",), ("**",),
    ),
    "res-k-width-query-wider-than-k": (
        "res-k-width", ["--k", "1", "--w", "2"], "p kdnf 2 1 1\nx1\n", "p cnf 2 1\n1 2 0\n",
        ("0*",), ("**",),
    ),
    "cp-query-too-sparse": (
        "cp", ["--w", "2", "--L", "3"], "p cp 3 1\nx1:1 >= 0\n", "p cp 3 1\nx1:1 x2:1 x3:1 >= 1\n",
        ("0**", "00*"), ("0**", "***"),
    ),
    "cp-query-l1": (
        "cp", ["--w", "2", "--L", "3"], "p cp 2 1\nx1:1 >= 0\n", "p cp 2 1\nx1:2 x2:1 >= 1\n",
        ("0*",), ("**",),
    ),
    "pc-kb-degree": (
        "pc", ["--d", "1"], "p poly 2 1\n1 x1 x2\n", "p poly 2 1\n1 x1\n", ("*0",), ("**",)
    ),
    "pc-kb-duals": (
        "pc", ["--d", "1"], "p poly 2 1\n1 ~x2\n", "p poly 2 1\n1 x1\n", ("*1",), ("**",)
    ),
    "pc-query-degree": (
        "pc", ["--d", "1"], "p poly 2 1\n1 x1\n", "p poly 2 1\n1 x1 x2\n", ("*1",), ("**",)
    ),
    "pcr-kb-degree": (
        "pcr", ["--d", "1"], "p poly 2 1\n1 x1 ~x2\n", "p poly 2 1\n1 x1\n", ("*0",), ("**",)
    ),
}


@pytest.mark.parametrize("case", sorted(OVER_BUDGET_CASES))
def test_budget_errors_do_not_depend_on_the_examples(case, tmp_path, capsys):
    system, flags, kb_text, query_text, *sample_sets = OVER_BUDGET_CASES[case]
    kb = write(tmp_path / "kb.txt", kb_text)
    query = write(tmp_path / "query.txt", query_text)
    errors = []
    for i, rows in enumerate(sample_sets):
        n = len(rows[0])
        samples = write(tmp_path / f"{i}.pasgn", f"p pasgn {n} {len(rows)}\n" + "".join(r + "\n" for r in rows))
        code, out, err = run_cli(
            ["decide", "--system", system, *flags, "--epsilon", "1/2", "--gamma", "1/10",
             "--delta", "1/20", "--kb", kb, "--query", query, "--samples", samples],
            capsys,
        )
        assert (code, out) == (2, "")
        errors.append(err)
    dist = uniform_dist(tmp_path, n)
    for seed in range(1, 4):
        code, out, err = run_cli(
            ["decide", "--system", system, *flags, "--epsilon", "1/2", "--gamma", "1/10",
             "--delta", "1/20", "--kb", kb, "--query", query, "--dist", dist,
             "--mask", "iid:1/2", "--seed", str(seed), "--m", "5"],
            capsys,
        )
        assert (code, out) == (2, "")
        errors.append(err)
    assert len(set(errors)) == 1 and errors[0].startswith("error:")


# an input that parses but does not fit the instance: the arguments, with
# each upper-case token a file holding the text given for it, and the error
KB2, QUERY2, DIST2 = "p cnf 2 1\n-1 2 0\n", "p cnf 2 1\n2 0\n", "p dist 2 1\n1/1 11\n"
DECIDE = ["decide", "--system", "res-space", "--s", "1", "--epsilon", "1/2", "--gamma", "1/10",
          "--delta", "1/20", "--kb", "KB", "--query", "QUERY"]
INSTANCE_REFUSALS = {
    "res-space-query-of-0-clauses": (
        ["prove", "--system", "res-space", "--s", "1", "--kb", "KB", "--query", "QUERY"],
        {"KB": KB2, "QUERY": "p cnf 2 0\n"},
        "res-space queries are a single clause (one-clause cnf file)",
    ),
    "res-space-query-of-2-clauses": (
        ["prove", "--system", "res-space", "--s", "1", "--kb", "KB", "--query", "QUERY"],
        {"KB": KB2, "QUERY": "p cnf 2 2\n1 0\n2 0\n"},
        "res-space queries are a single clause (one-clause cnf file)",
    ),
    "res-space-query-n": (
        ["prove", "--system", "res-space", "--s", "1", "--kb", "KB", "--query", "QUERY"],
        {"KB": KB2, "QUERY": "p cnf 3 1\n2 0\n"},
        "query n=3 does not match kb n=2",
    ),
    "res-k-width-query-n": (
        ["prove", "--system", "res-k-width", "--k", "1", "--w", "2", "--kb", "KB", "--query", "QUERY"],
        {"KB": "p kdnf 2 1 1\nx1\n", "QUERY": "p cnf 3 1\n2 0\n"},
        "query n=3 does not match kb n=2",
    ),
    "pc-query-n": (
        ["prove", "--system", "pc", "--d", "1", "--kb", "KB", "--query", "QUERY"],
        {"KB": "p poly 2 1\n1 x1\n", "QUERY": "p poly 3 1\n1 x1\n"},
        "query n=3 does not match kb n=2",
    ),
    "pcr-query-n": (
        ["prove", "--system", "pcr", "--d", "1", "--kb", "KB", "--query", "QUERY"],
        {"KB": "p poly 2 1\n1 ~x1\n", "QUERY": "p poly 3 1\n1 x1\n"},
        "query n=3 does not match kb n=2",
    ),
    "cp-query-n": (
        ["prove", "--system", "cp", "--w", "1", "--L", "2", "--kb", "KB", "--query", "QUERY"],
        {"KB": "p cp 2 1\nx1:1 >= 0\n", "QUERY": "p cp 3 1\nx1:1 >= 1\n"},
        "query n=3 does not match kb n=2",
    ),
    "pc-query-of-2-records": (
        ["prove", "--system", "pc", "--d", "1", "--kb", "KB", "--query", "QUERY"],
        {"KB": "p poly 2 1\n1 x1\n", "QUERY": "p poly 2 2\n1 x1\n1 x2\n"},
        "pc/pcr queries are a single polynomial",
    ),
    "pcr-query-of-2-records": (
        ["prove", "--system", "pcr", "--d", "1", "--kb", "KB", "--query", "QUERY"],
        {"KB": "p poly 2 1\n1 ~x1\n", "QUERY": "p poly 2 2\n1 x1\n1 ~x2\n"},
        "pc/pcr queries are a single polynomial",
    ),
    "cp-query-of-2-records": (
        ["prove", "--system", "cp", "--w", "1", "--L", "2", "--kb", "KB", "--query", "QUERY"],
        {"KB": "p cp 2 1\nx1:1 >= 0\n", "QUERY": "p cp 2 2\nx1:1 >= 1\nx2:1 >= 1\n"},
        "cp queries are a single inequality",
    ),
    "samples-n": (
        DECIDE + ["--samples", "SAMPLES"],
        {"KB": KB2, "QUERY": QUERY2, "SAMPLES": "p pasgn 3 1\n1**\n"},
        "samples n=3 does not match instance n=2",
    ),
    "dist-n": (
        DECIDE + ["--dist", "DIST", "--mask", "fixed:010", "--seed", "1", "--m", "1"],
        {"KB": KB2, "QUERY": QUERY2, "DIST": "p dist 3 1\n1/1 111\n"},
        "distribution n=3 does not match instance n=2",
    ),
    "no-dist": (
        DECIDE + ["--mask", "fixed:01", "--seed", "1"],
        {"KB": KB2, "QUERY": QUERY2},
        "need either --samples or all of --dist, --mask and --seed",
    ),
    "no-mask": (
        DECIDE + ["--dist", "DIST", "--seed", "1"],
        {"KB": KB2, "QUERY": QUERY2, "DIST": DIST2},
        "need either --samples or all of --dist, --mask and --seed",
    ),
    "no-seed": (
        DECIDE + ["--dist", "DIST", "--mask", "fixed:01"],
        {"KB": KB2, "QUERY": QUERY2, "DIST": DIST2},
        "need either --samples or all of --dist, --mask and --seed",
    ),
    "oracle-entails-n": (
        ["oracle", "entails", "--kb", "KB", "--query", "QUERY"],
        {"KB": KB2, "QUERY": "p cnf 3 1\n2 0\n"},
        "query n=3 does not match kb n=2",
    ),
    "oracle-validity-n": (
        ["oracle", "validity", "--dist", "DIST", "--query", "QUERY"],
        {"DIST": DIST2, "QUERY": "p cnf 3 1\n2 0\n"},
        "query n=3 does not match dist n=2",
    ),
}


@pytest.mark.parametrize("case", sorted(INSTANCE_REFUSALS))
def test_an_input_that_does_not_fit_the_instance_is_refused(case, tmp_path, capsys):
    argv, files, error = INSTANCE_REFUSALS[case]
    paths = {name: write(tmp_path / name.lower(), text) for name, text in files.items()}
    code, out, err = run_cli([paths.get(arg, arg) for arg in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_prove_res_space_shows_proof(aviary, capsys):
    code, out, _ = run_cli(
        [
            "prove",
            "--system", "res-space",
            "--s", "2",
            "--kb", aviary["kb"],
            "--query", aviary["query"],
            "--show-proof",
        ],
        capsys,
    )
    # KB alone does not prove x2: (not-x1 or x2) has a model with x2=0
    assert code == 1
    assert "verdict=Reject" in out


def test_prove_cp_accepts_contradiction(tmp_path, capsys):
    code, out, _ = prove("cp", tmp_path, capsys, ["--show-proof"])
    assert code == 0
    assert "verdict=Accept" in out
    assert "AddStep" in out


def test_prove_res_k_width(tmp_path, capsys):
    code, out, _ = prove("res-k-width", tmp_path, capsys, ["--show-proof"])
    assert code == 0
    assert "verdict=Accept" in out


def test_prove_pcr(tmp_path, capsys):
    code, out, _ = prove("pcr", tmp_path, capsys)
    assert code == 0
    assert "verdict=Accept" in out


@pytest.mark.parametrize(
    "case, certificate",
    [
        ("res-space", ["(cut x1 (weaken x1|x2 (leaf x1)) (leaf -x1|x2) x2)"]),
        (
            "res-k-width",
            [
                "hypothesis: KDnf([[1]])",
                "hypothesis: KDnf([[-1], [2]])",
                "hypothesis: KDnf([[-2]])",
                "cut: KDnf([[-1]])",
                "cut: KDnf([])",
            ],
        ),
        (
            "cp",
            [
                "0: HypothesisStep LinIneq(1*x1 >= 1)",
                "1: HypothesisStep LinIneq(-1*x1 >= 0)",
                "2: AddStep LinIneq(0 >= 1)",
            ],
        ),
        ("pc", []),  # polynomial calculus prints no proof lines
        ("pcr", []),
        ("res-space-unused-var", ["(cut x2 (leaf x2|x3) (leaf -x2|x3) x3)"]),
        (
            "cp-divide",
            ["0: HypothesisStep LinIneq(2*x1 + 2*x2 >= 1)", "1: DivideStep LinIneq(1*x1 + 1*x2 >= 1)"],
        ),
        (
            "cp-multiply",
            ["0: HypothesisStep LinIneq(1*x1 + 1*x2 >= 1)", "1: MultiplyStep LinIneq(3*x1 + 3*x2 >= 3)"],
        ),
        (
            "res-k-width-chain",
            [
                "hypothesis: KDnf([[1]])",
                "hypothesis: KDnf([[-1], [2]])",
                "hypothesis: KDnf([[-2], [3]])",
                "cut: KDnf([[-1], [3]])",
                "cut: KDnf([[3]])",
                "hypothesis: KDnf([[-3], [4]])",
                "hypothesis: KDnf([[-4], [5]])",
                "cut: KDnf([[-3], [5]])",
                "hypothesis: KDnf([[-5], [6]])",
                "hypothesis: KDnf([[-6]])",
                "cut: KDnf([[-5]])",
                "cut: KDnf([[-3]])",
                "cut: KDnf([])",
            ],
        ),
        (
            "cp-chain",
            [
                "0: HypothesisStep LinIneq(-1*x1 + 1*x2 >= 0)",
                "1: HypothesisStep LinIneq(-1*x2 + 1*x3 >= 0)",
                "2: HypothesisStep LinIneq(-1*x3 + 1*x4 >= 0)",
                "3: AddStep LinIneq(-1*x2 + 1*x4 >= 0)",
                "4: AddStep LinIneq(-1*x1 + 1*x4 >= 0)",
                "5: HypothesisStep LinIneq(-1*x4 + 1*x5 >= 0)",
                "6: HypothesisStep LinIneq(-1*x5 >= 0)",
                "7: AddStep LinIneq(-1*x4 >= 0)",
                "8: HypothesisStep LinIneq(2*x1 >= 1)",
                "9: DivideStep LinIneq(1*x1 >= 1)",
                "10: AddStep LinIneq(1*x1 + -1*x4 >= 1)",
                "11: AddStep LinIneq(0 >= 1)",
            ],
        ),
        (
            "res-k-width-birds",
            [
                "hypothesis: KDnf([[1]])",
                "hypothesis: KDnf([[-1], [3]])",
                "cut: KDnf([[3]])",
                "hypothesis: KDnf([[-3], [2]])",
                "hypothesis: KDnf([[-2]])",
                "cut: KDnf([[-3]])",
                "cut: KDnf([])",
            ],
        ),
    ],
)
def test_prove_show_proof_prints_the_certificate(case, certificate, tmp_path, capsys):
    code, out, _ = prove(case, tmp_path, capsys, ["--show-proof"])
    assert code == 0
    assert out.splitlines() == certificate + ["verdict=Accept"]


@pytest.mark.parametrize("case", sorted(PROVE_CASES))
def test_prove_verdict_does_not_depend_on_show_proof(case, tmp_path, capsys):
    code, out, _ = prove(case, tmp_path, capsys)
    shown_code, shown_out, _ = prove(case, tmp_path, capsys, ["--show-proof"])
    assert out == ("verdict=Accept\n" if code == 0 else "verdict=Reject\n")
    assert shown_code == code
    assert shown_out.endswith(out)


@pytest.mark.parametrize(
    "case, checker",
    [("res-space", "check_proof"), ("res-k-width", "check_resk_trace"), ("cp", "check_cp_trace")],
)
def test_prove_rejected_replay_is_an_error(case, checker, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(backends, checker, lambda *args, **kwargs: False)
    for extra in ([], ["--show-proof"]):
        code, out, err = prove(case, tmp_path, capsys, extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_prove_replays_a_res_space_proof_against_the_space_bound(tmp_path, capsys, monkeypatch):
    # a search that overshoots --s finds a space-2 proof of x2; the replay
    # checks its clause space against --s 1 and refuses it
    monkeypatch.setattr(
        backends, "search_space", lambda phi, s, target: resolution.search_space(phi, 2, target)
    )
    kb = write(tmp_path / "kb.cnf", "p cnf 2 2\n1 0\n-1 2 0\n")
    query = write(tmp_path / "query.cnf", "p cnf 2 1\n2 0\n")
    for extra in ([], ["--show-proof"]):
        code, out, err = run_cli(
            ["prove", "--system", "res-space", "--s", "1", "--kb", kb, "--query", query, *extra],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: res-space certificate failed its replay check\n")


def test_sample_emits_pasgn(aviary, capsys):
    code, out, _ = run_cli(
        ["sample", "--dist", aviary["dist"], "--mask", "fixed:01",
         "--seed", "3", "--m", "2"],
        capsys,
    )
    assert code == 0
    assert out == "p pasgn 2 2\n1*\n1*\n"


# one `decide` instance per system whose query x3 the rule x1 -> x2 does not
# give: an example accepts exactly when it shows x3 = 1 or falsifies the rule
UNSETTLED_CASES = {
    "res-space": (["--s", "2"], "p cnf 3 1\n-1 2 0\n", "p cnf 3 1\n3 0\n"),
    "res-k-width": (["--k", "1", "--w", "2"], "p kdnf 3 1 1\n-x1|x2\n", "p cnf 3 1\n3 0\n"),
    "pc": (["--d", "2"], "p poly 3 1\n1 x1 x2; -1 x1\n", "p poly 3 1\n1 x3; -1\n"),
    "pcr": (["--d", "2"], "p poly 3 1\n1 x1 ~x2\n", "p poly 3 1\n1 ~x3\n"),
    "cp": (["--w", "2", "--L", "3"], "p cp 3 1\nx1:-1 x2:1 >= 0\n", "p cp 3 1\nx3:1 >= 1\n"),
}


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_sampled_pasgn_file_decides_as_the_drawn_examples_do(system, tmp_path, capsys):
    # the examples that `sample --out` writes and `decide --samples` reads
    # back are those `decide --dist` draws at the same seed and m
    flags, kb_text, query_text = UNSETTLED_CASES[system]
    kb = write(tmp_path / "kb.txt", kb_text)
    query = write(tmp_path / "query.txt", query_text)
    source = ["--dist", uniform_dist(tmp_path, 3), "--mask", "iid:1/3", "--seed", "11", "--m", "40"]
    samples = str(tmp_path / "f.pasgn")
    assert run_cli(["sample", *source, "--out", samples], capsys) == (0, "", "")
    decide = ["decide", "--system", system, *flags, "--epsilon", "1/2", "--gamma", "1/10",
              "--delta", "1/10", "--kb", kb, "--query", query, "--per-example"]
    code, out, _ = run_cli([*decide, "--samples", samples], capsys)
    lines = (tmp_path / "f.pasgn").read_text().splitlines()[1:]
    accepted = [line[2] == "1" or line[:2] == "10" for line in lines]
    assert len(lines) == 40 and 0 < sum(accepted) < 40
    assert "".join(
        f"example={i} verdict={'accept' if ok else 'reject'}\n" for i, ok in enumerate(accepted)
    ) in out
    assert run_cli([*decide, *source], capsys)[:2] == (code, out)


def test_oracle_commands(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run_cli(["oracle", "sat", "--cnf", cnf], capsys)
    assert code == 1 and out == "unsat\n"

    kb = write(tmp_path / "kb.cnf", "p cnf 2 2\n-1 2 0\n1 0\n")
    query = write(tmp_path / "q.cnf", "p cnf 2 1\n2 0\n")
    code, out, _ = run_cli(["oracle", "entails", "--kb", kb, "--query", query], capsys)
    assert code == 0 and out == "entails\n"

    dist = write(tmp_path / "d.dist", "p dist 2 2\n1/4 00\n3/4 11\n")
    code, out, _ = run_cli(["oracle", "validity", "--dist", dist, "--query", query], capsys)
    assert code == 0 and out == "validity=3/4\n"


def test_oracle_exit_code_follows_the_answer(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", "p cnf 2 2\n1 0\n-1 -2 0\n")
    assert run_cli(["oracle", "sat", "--cnf", cnf], capsys) == (0, "sat 10\n", "")

    kb = write(tmp_path / "kb.cnf", "p cnf 2 1\n-1 2 0\n")
    query = write(tmp_path / "q.cnf", "p cnf 2 1\n2 0\n")
    code, out, _ = run_cli(["oracle", "entails", "--kb", kb, "--query", query], capsys)
    assert (code, out) == (1, "does-not-entail\n")


def test_encode_pcr_negates_each_clause_into_a_monomial(tmp_path, capsys):
    # a positive literal becomes its dual indeterminate and a negative one the
    # plain indeterminate; each monomial prints by variable, x before ~x
    cnf = write(tmp_path / "f.cnf", "p cnf 4 5\n3 -2 1 0\n-4 -1 0\n4 2 0\n-3 1 -4 0\n0\n")
    code, out, _ = run_cli(["encode", "pcr", "--cnf", cnf], capsys)
    assert (code, out) == (0, "p poly 4 5\n1 ~x1 x2 ~x3\n1 x1 x4\n1 ~x2 ~x4\n1 ~x1 x3 x4\n1\n")


def test_encode_commands(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", "p cnf 2 2\n1 -2 0\n2 0\n")
    code, out, _ = run_cli(["encode", "pcr", "--cnf", cnf], capsys)
    assert code == 0 and out == "p poly 2 2\n1 ~x1 x2\n1 ~x2\n"
    code, out, _ = run_cli(["encode", "cp", "--cnf", cnf], capsys)
    assert code == 0 and out == "p cp 2 2\nx1:1 x2:-1 >= 0\nx2:1 >= 1\n"


@pytest.mark.parametrize("command", ["sample", "encode"])
def test_out_writes_what_stdout_shows(command, aviary, tmp_path, capsys):
    argv = {
        "sample": ["sample", "--dist", aviary["dist"], "--mask", "fixed:01", "--seed", "3", "--m", "2"],
        "encode": ["encode", "cp", "--cnf", aviary["kb"]],
    }[command]
    code, shown, _ = run_cli(argv, capsys)
    out = tmp_path / "out.txt"
    assert run_cli(argv + ["--out", str(out)], capsys) == (0, "", "")
    assert code == 0 and out.read_text() == shown


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["oracle", "sat", "--cnf", str(tmp_path / "missing.cnf")], capsys
    )
    assert code == 2
    assert "error:" in err


# a variable token is `x` and ASCII digits: `x²` has no integer value and
# `x٣` (an Arabic-Indic three) is not `x3`
@pytest.mark.parametrize("token", ["x²", "x٣"], ids=["superscript-two", "arabic-indic-three"])
@pytest.mark.parametrize(
    "system, flags, kb_text, query_text, error",
    [
        ("res-k-width", ["--k", "1", "--w", "2"], "p kdnf 3 1 1\n{}\n", "p cnf 3 1\n2 0\n",
         "bad literal '{}'"),
        ("pc", ["--d", "2"], "p poly 3 1\n1 {}; -1\n", "p poly 3 1\n1 x2; -1\n",
         "bad indeterminate '{}'"),
        ("cp", ["--w", "1", "--L", "2"], "p cp 3 1\n{}:1 >= 1\n", "p cp 3 1\nx1:1 >= 1\n",
         "bad coefficient token '{}:1'"),
    ],
    ids=["kdnf", "poly", "cp"],
)
def test_non_ascii_digit_in_a_variable_is_a_format_error(
    token, system, flags, kb_text, query_text, error, tmp_path, capsys
):
    kb, query = tmp_path / "kb.txt", tmp_path / "query.txt"
    kb.write_bytes(kb_text.format(token).encode("utf-8"))
    query.write_bytes(query_text.encode("utf-8"))
    code, out, err = run_cli(
        ["prove", "--system", system, *flags, "--kb", str(kb), "--query", str(query)], capsys
    )
    assert (code, out, err) == (2, "", f"error: line 2: {error.format(token)}\n")


DIST = "p dist 2 1\n1/1 11\n"
SAMPLE = ["sample", "--dist", "obs.dist", "--m", "2"]


# each malformed input or option exits 2 with its one error line; argv names
# the files by their keys
@pytest.mark.parametrize(
    "files, argv, error",
    [
        ({"kb.poly": "p poly 2 1\n1 x1;\n", "query.poly": "p poly 2 1\n1 x2; -1\n"},
         ["prove", "--system", "pc", "--d", "2", "--kb", "kb.poly", "--query", "query.poly"],
         "line 2: empty term"),
        ({"kb.cp": "p cp 1 1\nx1 >= 1\n", "query.cp": "p cp 1 1\n>= 1\n"},
         ["prove", "--system", "cp", "--w", "1", "--L", "2", "--kb", "kb.cp", "--query", "query.cp"],
         "line 2: bad coefficient token 'x1'"),
        ({"obs.dist": "p dist 2 1\n1/1 11 01\n"}, [*SAMPLE, "--mask", "fixed:01", "--seed", "1"],
         "line 2: expected '<weight> <bits>'"),
        ({"obs.dist": "p dist 2 2\n0 11\n1/1 01\n"}, [*SAMPLE, "--mask", "fixed:01", "--seed", "1"],
         "invalid distribution: weight 0 of (1, 1) is not positive"),
        ({"obs.dist": DIST}, [*SAMPLE, "--mask", "iid", "--seed", "1"],
         "bad mask spec 'iid'; expected fixed:, iid: or table:"),
        ({"obs.dist": DIST}, [*SAMPLE, "--mask", "iid:3/2", "--seed", "1"],
         "hide probability 3/2 must lie in [0,1]"),
        ({"obs.dist": DIST}, [*SAMPLE, "--mask", "fixed:01", "--seed", "-1"],
         "seed must be a 64-bit unsigned integer"),
        ({"obs.dist": DIST}, [*SAMPLE, "--mask", "fixed:01", "--seed", str(2 ** 64)],
         "seed must be a 64-bit unsigned integer"),
    ],
    ids=["poly-empty-term", "cp-token-without-colon", "dist-three-fields", "dist-zero-weight",
         "mask-iid-without-colon", "mask-iid-above-one", "seed-negative", "seed-2-to-the-64"],
)
def test_a_malformed_input_exits_2_with_its_message(files, argv, error, tmp_path, capsys):
    for name, text in files.items():
        write(tmp_path / name, text)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    assert run_cli(argv, capsys) == (2, "", f"error: {error}\n")


# a number option is ASCII: a non-ASCII digit or an underscore is a usage
# error, not the number it would read as
@pytest.mark.parametrize(
    "option, value",
    [("--epsilon", "١/٢"), ("--gamma", "1_0/100"), ("--delta", "١/٢٠"), ("--s", "٣"),
     ("--k", "1_0"), ("--w", "٣"), ("--d", "٣"), ("--L", "1_0"), ("--m", "1_0"), ("--seed", "٣")],
)
def test_a_number_option_is_ascii(option, value, aviary, capsys):
    options = {"--epsilon": "1/2", "--gamma": "1/10", "--delta": "1/20", "--s": "1",
               "--m": "10", "--seed": "3"}
    options[option] = value
    argv = ["decide", "--system", "res-space", "--kb", aviary["kb"], "--query", aviary["query"],
            "--dist", aviary["dist"], "--mask", "fixed:01",
            *(arg for item in options.items() for arg in item)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    noun = "rational" if option in ("--epsilon", "--gamma", "--delta") else "integer"
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"argument {option}: bad {noun} {value!r}\n")


# a decimal exponent above formats.MAX_EXPONENT is a usage error, refused
# before the power of ten it names is built
def test_a_long_decimal_exponent_is_a_usage_error(aviary, capsys):
    too_long = "1e-3000000"
    argv = ["decide", "--system", "res-space", "--s", "1", "--kb", aviary["kb"],
            "--query", aviary["query"], "--dist", aviary["dist"], "--seed", "3", "--m", "10",
            "--gamma", "1/10", "--delta", "1/20"]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--mask", "fixed:01", "--epsilon", too_long])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"argument --epsilon: bad rational {too_long!r}\n")

    code, out, err = run_cli([*argv, "--mask", f"iid:{too_long}", "--epsilon", "1/2"], capsys)
    assert (code, out, err) == (2, "", f"error: bad hide probability {too_long!r}\n")


# a rational whose numerator or denominator has more digits than str()
# prints is refused when read, not found when its report line is written
# (the first pair fails the exponent cap, the second the digit count)
@pytest.mark.parametrize("tiny, huge", [("1e-4300", "1e4300"), ("0.1e-4299", "12e4299")])
def test_a_rational_too_long_to_print_is_a_usage_error(tiny, huge, aviary, capsys):
    argv = ["decide", "--system", "res-space", "--s", "1", "--kb", aviary["kb"],
            "--query", aviary["query"], "--dist", aviary["dist"], "--mask", "fixed:01",
            "--seed", "3", "--m", "10", "--epsilon", tiny, "--gamma", tiny, "--delta", "1/2"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"argument --epsilon: bad rational {tiny!r}\n")

    code, out, err = run_cli(
        ["sample", "--dist", aviary["dist"], "--mask", f"iid:{huge}", "--seed", "1", "--m", "2"],
        capsys,
    )
    assert (code, out, err) == (2, "", f"error: bad hide probability {huge!r}\n")


def test_a_file_that_is_not_utf8_is_an_input_error(aviary, tmp_path, capsys):
    kb = tmp_path / "bad.cnf"
    kb.write_bytes(b"p cnf 2 1\n\xff 0\n")
    code, out, err = run_cli(
        ["prove", "--system", "res-space", "--s", "2", "--kb", str(kb), "--query", aviary["query"]],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {kb}: ") and err.count("\n") == 1

    mask = tmp_path / "bad.mask"  # beside the dist file, which `table:` paths are relative to
    mask.write_bytes(b"p masktable 2 1\n\xff\n")
    code, out, err = run_cli(
        ["sample", "--dist", aviary["dist"], "--mask", "table:bad.mask", "--seed", "1", "--m", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {mask}: ") and err.count("\n") == 1


def cli_subprocess(argv, tmp_path, hash_seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "pacreason"] + argv,
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )


def test_readme_library_tour_prints_its_outcome(tmp_path):
    # the one python block of README.md, run as a script under the tests'
    # warning policy
    readme = os.path.join(os.path.dirname(SRC), "README.md")
    with open(readme, encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```$", f.read(), re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "Accept 19 30\n", "")


def test_reports_are_byte_identical_across_runs(aviary):
    argv = [
        "decide",
        "--system", "res-space",
        "--epsilon", "1/10",
        "--gamma", "1/10",
        "--delta", "1/20",
        "--s", "1",
        "--kb", aviary["kb"],
        "--query", aviary["query"],
        "--dist", aviary["dist"],
        "--mask", "iid:1/3",
        "--seed", "99",
        "--m", "40",
        "--per-example",
    ]
    first = cli_subprocess(argv, aviary["dir"])
    second = cli_subprocess(argv, aviary["dir"])
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty report


# stdout is a pure function of the configuration and seed: set and dict
# orders, which decide provenance, must not follow the string-hash seed
@pytest.mark.parametrize(
    "command, case",
    [("decide", case) for case in ("res-space", "res-k-width-chain", "pc", "pcr", "cp-chain")]
    + [("prove", "res-k-width-chain"), ("prove", "cp-chain")],
)
def test_stdout_does_not_depend_on_the_hash_seed(command, case, tmp_path):
    system, flags, kb_text, query_text = PROVE_CASES[case]
    argv = [command, "--system", system, *flags, "--kb", write(tmp_path / "kb.txt", kb_text),
            "--query", write(tmp_path / "query.txt", query_text)]
    if command == "decide":
        n = int(kb_text.split()[2])
        argv += ["--epsilon", "1/2", "--gamma", "1/10", "--delta", "1/20",
                 "--dist", uniform_dist(tmp_path, n), "--mask", "iid:1/3", "--seed", "5",
                 "--m", "30", "--per-example"]
    else:
        argv.append("--show-proof")
    first, second = (cli_subprocess(argv, tmp_path, seed) for seed in ("0", "12345"))
    assert first.returncode == second.returncode in (0, 1)
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") > 5
