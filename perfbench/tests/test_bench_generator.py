"""The workload generator is byte-deterministic and keeps its promises."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import workloads  # noqa: E402
from pacreason import formats  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_writes_identical_files(tmp_path, name):
    first = workloads.generate(name, 5, tmp_path / "a")
    second = workloads.generate(name, 5, tmp_path / "b")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    other = workloads.generate(name, 6, tmp_path / "c")
    assert other.invocations != first.invocations  # the seed draws the example stream


@pytest.mark.parametrize("name, dist_file", [("iid-probe", "probe.dist"),
                                             ("wide-samples", "wide.dist")])
def test_support_satisfies_the_kb(tmp_path, name, dist_file):
    workloads.generate(name, 3, tmp_path)
    kb = formats.parse_cnf((tmp_path / "kb.cnf").read_text())
    dist = formats.parse_dist((tmp_path / dist_file).read_text())
    for x, _ in dist.support:
        for clause in kb.clauses:
            assert any((x[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)


def test_dual_free_pc_encoding_vanishes_exactly_on_satisfying_points():
    clause = frozenset({-1, 2, 3})
    poly = workloads.dual_free_pc(clause)
    assert poly.degree == 3 and not poly.has_duals()
    for bits in range(8):
        x = tuple((bits >> i) & 1 for i in range(3))
        satisfied = any((x[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)
        assert (poly.evaluate(x) == 0) == satisfied
