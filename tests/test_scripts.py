"""Smoke tests of the scripts under scripts/: they run and print what they claim."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import corpus
import polyserend

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(text: str) -> list[list[float]]:
    """The numeric rows of the markdown tables in ``text``."""
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            continue
    return rows


def test_coefficient_blowup_tables(capsys):
    script = load_script("coefficient_blowup")
    script.main(["--t-values", "0.3,0.03,0.003", "--regular-n", "5,6,8"])
    out = capsys.readouterr().out
    rows = table_rows(out)
    blowup = [row for row in rows if len(row) == 4 and row[0] < 1.0]
    regular = [row for row in rows if len(row) == 4 and row[0] >= 5.0]
    assert [row[0] for row in blowup] == [0.3, 0.03, 0.003]
    assert [row[0] for row in regular] == [5.0, 6.0, 8.0]
    # Part 1: max s grows as the edges at the diagonal's ends shrink.
    s_max = [row[2] for row in blowup]
    assert all(b > a for a, b in zip(s_max, s_max[1:]))
    assert s_max[-1] > 100.0
    # Part 2: regular polygons never exceed the sharp bound.
    assert all(0.0 < row[3] <= 1.0 for row in regular)


PAIRED_METRICS = [
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def fixed_pairs() -> list[tuple[dict, dict]]:
    """Ten pairs: op_p50_s 0.06 s better in nine of them and 0.01 s worse in
    the last, ops_per_s tied everywhere, setup_s better by 1 ms in every pair."""
    pairs = []
    for i in range(10):
        p50 = 0.25 + 0.01 * i
        change = p50 - 0.06 if i < 9 else p50 + 0.01
        pairs.append(({"op_p50_s": p50, "ops_per_s": 4.0, "setup_s": p50},
                      {"op_p50_s": change, "ops_per_s": 4.0, "setup_s": p50 - 0.001}))
    return pairs


def ops(parent: tuple[int, int], change: tuple[int, int]) -> dict:
    """Each side's attempted and failed operations, from (attempted, failed)."""
    return {side: {"attempted": a, "failed": f}
            for side, (a, f) in (("parent", parent), ("change", change))}


NO_FAILURES = ops((100, 0), (100, 0))


def test_paired_bench_summary():
    script = load_script("paired_bench")
    p50, ops, setup = script.summarize(fixed_pairs(), PAIRED_METRICS, NO_FAILURES)
    # Parent 0.25 ... 0.34: quartiles 0.2725 / 0.295 / 0.3175, so an IQR of 0.045.
    assert p50["parent"] == pytest.approx((0.2725, 0.295, 0.3175))
    assert p50["change"][1] == pytest.approx(0.235)
    assert p50["relative"] == pytest.approx(-0.06 / 0.295)
    # Nine wins of ten and medians 0.06 apart, beyond the parent's IQR.
    assert (p50["wins"], p50["pairs"], p50["claimable"]) == (9, 10, True)
    # Ties count for neither side.
    assert (ops["wins"], ops["claimable"]) == (0, False)
    # Ten wins, but 1 ms is inside the parent's spread.
    assert (setup["wins"], setup["claimable"]) == (10, False)
    # Better or tied medians, with spreads of 15-19% of the medians: all within the bound.
    assert [row["within_bound"] for row in (p50, ops, setup)] == ["yes"] * 3
    table = script.render([p50, ops, setup]).splitlines()
    assert len(table) == 5
    assert table[2].startswith("| op_p50_s (s) | 0.2725 / 0.295 / 0.3175 | ")
    assert table[2].endswith("| -20.3% | 9/10 | yes | yes |")


@pytest.mark.parametrize("parent, change, better, verdict", [
    # Medians 1.0 and 1.2 of a lower-is-better metric: 20% worse, inside a 25% bound.
    ([1.0] * 10, [1.2] * 10, "lower", "yes"),
    # 30% worse is outside it, however the runs spread.
    ([1.0] * 10, [1.3] * 10, "lower", "no"),
    ([0.5, 1.0, 1.5] * 3 + [1.0], [1.3] * 10, "lower", "no"),
    # Higher is better: 4.0 to 3.1 is 22.5% worse, 4.0 to 2.9 27.5%.
    ([4.0] * 10, [3.1] * 10, "higher", "yes"),
    ([4.0] * 10, [2.9] * 10, "higher", "no"),
    # The parent's quartiles 0.5 and 1.5 lie a whole median apart: a 10% worse
    # median cannot be told from no change.
    ([0.5, 1.0, 1.5] * 3 + [1.0], [1.1] * 10, "lower", "unresolved"),
    # So can a wide spread of the change's own runs.
    ([1.0] * 10, [0.5, 1.0, 1.5] * 3 + [1.0], "lower", "unresolved"),
    # Unless every run of the change beats every run of the parent.
    ([0.5, 1.0, 1.5] * 3 + [1.0], [0.4, 0.3] * 5, "lower", "yes"),
])
def test_paired_bench_within_bound(parent, change, better, verdict):
    script = load_script("paired_bench")
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    pairs = [({"m": p}, {"m": c}) for p, c in zip(parent, change)]
    [row] = script.summarize(pairs, [metric], NO_FAILURES)
    assert row["within_bound"] == verdict
    assert script.render([row]).splitlines()[2].endswith(f"| {verdict} |")


def test_paired_bench_claims_nothing_from_fewer_pairs_or_more_failures():
    """The op_p50_s gain of ``fixed_pairs`` stops being claimable when the
    change fails a larger share of its operations, or when fewer than ten
    pairs ran, even if the change wins every one of them."""
    script = load_script("paired_bench")
    p50 = script.summarize(fixed_pairs(), PAIRED_METRICS, ops((100, 1), (100, 2)))[0]
    assert (p50["wins"], p50["claimable"]) == (9, False)
    p50 = script.summarize(fixed_pairs()[:9], PAIRED_METRICS, NO_FAILURES)[0]
    assert (p50["wins"], p50["pairs"], p50["claimable"]) == (9, 9, False)


@pytest.mark.parametrize("parent, change, claimable", [
    # Twice the operations at the parent's failure rate: more failures, same share.
    ((100, 1), (200, 2), True),
    # A slower change that fails no more operations, but a larger share of them.
    ((200, 2), (100, 2), False),
])
def test_paired_bench_compares_failure_shares(parent, change, claimable):
    script = load_script("paired_bench")
    p50 = script.summarize(fixed_pairs(), PAIRED_METRICS, ops(parent, change))[0]
    assert (p50["wins"], p50["claimable"]) == (9, claimable)


@pytest.mark.parametrize("change_failed, claim", [(0, "yes"), (1, "no")])
def test_paired_bench_alternates_sides(tmp_path, monkeypatch, capsys, change_failed, claim):
    """Pair i runs the parent first when i is even, every run for the
    benchmark's own run length; no benchmark runs here."""
    script = load_script("paired_bench")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 7, "end_to_end": PAIRED_METRICS}))
    order = []

    def fake_run(checkout, workload, seed, seconds):
        assert (workload, seed, seconds) == ("w", 3, 7)
        order.append(checkout.name)
        value, failed = (1.0, 0) if checkout == parent else (0.5, change_failed)
        return {"attempted": 4, "failed": failed,
                "metrics": {m["name"]: {"value": value} for m in PAIRED_METRICS}}

    monkeypatch.setattr(script, "run_once", fake_run)
    script.main([str(parent), str(change), "--workload", "w", "--seed", "3"])
    assert order == ["parent", "change", "change", "parent"] * 5
    out = capsys.readouterr().out
    assert "w, seed 3, 10 pairs of 7 s; " in out
    assert (f"failed operations: parent 0/40 (0.00%), "
            f"change {10 * change_failed}/40 ({change_failed / 4:.2%})") in out
    assert f"| op_p50_s (s) | 1 / 1 / 1 | 0.5 / 0.5 / 0.5 | -50.0% | 10/10 | {claim} | yes |" in out


@pytest.mark.parametrize("parent, change, verdict, relative", [
    (np.array([1.0, -2.0]), np.array([1.0, -2.0]), "bitwise", 0.0),
    # Moves are relative to the parent's largest entry, not entry by entry.
    (np.array([1e-17, -2.0]), np.array([2e-17, -2.0]), "5e-18", 5e-18),
    (np.array([4.0, 1.0]), np.array([4.0, 1.5]), "0.125", 0.125),
    # Equal values in another dtype are not bitwise.
    (np.array([0, 3], np.int32), np.array([0, 3], np.int64), "0 (dtype int32 -> int64)", 0.0),
    (np.array(697), np.array(698), "0.00143", 1 / 697),
    (np.zeros(2), np.zeros(3), "shape (2,) -> (3,)", None),
    (np.zeros(2), np.array([0.0, 1e-300]), "inf", float("inf")),
    # -0.0 equals 0.0 but has other bits.
    (np.array([0.0]), np.array([-0.0]), "0", 0.0),
])
def test_accuracy_diff_compare(parent, change, verdict, relative):
    script = load_script("accuracy_diff")
    assert script.compare(parent, change) == (verdict, relative)


def fixed_records() -> tuple[dict, dict]:
    """A parent and a change: a bitwise stiffness, a direct L2 error that
    moves by 5e-11 (inside its gate) and one by 2e-10 (outside), a CG error
    that moves by 1e-7 (ungated), a rate that moves by 2e-6 and an array
    that only the parent has."""
    parent = {"a/stiffness_data": np.array([4.0, -1.0]), "a/direct_l2": np.array(1.0),
              "b/direct_l2": np.array(1.0), "a/cg_l2": np.array(1.0),
              "rates/direct_l2_rate": np.array([3.0, 3.0]), "a/load": np.ones(2)}
    change = {"a/stiffness_data": np.array([4.0, -1.0]), "a/direct_l2": np.array(1.0 + 5e-11),
              "b/direct_l2": np.array(1.0 + 2e-10), "a/cg_l2": np.array(1.0 + 1e-7),
              "rates/direct_l2_rate": np.array([3.0, 3.0 + 6e-6])}
    return parent, change


def test_accuracy_diff_rows_and_table():
    script = load_script("accuracy_diff")
    rows = script.diff_rows(*fixed_records())
    assert [(row["name"], row["gate"]) for row in rows] == [
        ("a/cg_l2", "-"), ("a/direct_l2", "ok"), ("a/load", "-"), ("a/stiffness_data", "-"),
        ("b/direct_l2", "FAIL"), ("rates/direct_l2_rate", "FAIL")]
    verdicts = {row["name"]: row["verdict"] for row in rows}
    assert verdicts["a/stiffness_data"] == "bitwise"
    assert verdicts["a/load"] == "only in parent"
    assert float(verdicts["a/direct_l2"]) == pytest.approx(5e-11, rel=1e-3)
    assert float(verdicts["a/cg_l2"]) == pytest.approx(1e-7, rel=1e-3)
    table = script.render(rows).splitlines()
    assert table[:2] == ["| array | parent -> change | gate |", "|---|---|---|"]
    assert table[3].startswith("| a/direct_l2 | 5e-11") and table[3].endswith("| ok |")
    assert table[-1] == ("1 of 6 arrays bitwise; gates failed: b/direct_l2, "
                         "rates/direct_l2_rate")
    parent, _ = fixed_records()
    assert script.render(script.diff_rows(parent, parent)).splitlines()[-1] == (
        "6 of 6 arrays bitwise; every gate passed")


def test_accuracy_diff_one_ulp_is_symmetric_and_seeded():
    script = load_script("accuracy_diff")
    matrix = sp.random(7, 7, density=0.5, random_state=3, format="csr")
    matrix = (matrix + matrix.T).tocsr()
    moved = script.one_ulp(matrix, 0)
    assert (moved.indices.tobytes(), moved.indptr.tobytes()) == (matrix.indices.tobytes(),
                                                                 matrix.indptr.tobytes())
    assert np.array_equal(np.abs(moved.data - matrix.data), np.spacing(np.abs(matrix.data)))
    step = (moved - matrix).toarray()
    assert np.array_equal(step, step.T)
    assert np.array_equal(script.one_ulp(matrix, 0).data, moved.data)
    assert not np.array_equal(script.one_ulp(matrix, 1).data, moved.data)


def test_accuracy_diff_records_the_floor_beside_the_gated_errors():
    """A case records the relative floor of each direct-solve error, ungated,
    and the table prints the change's floor beside each gated error."""
    script = load_script("accuracy_diff")
    case = script.record_case(polyserend.fem, polyserend.trapezoid_mesh(4), "meanvalue")
    records = {f"t4/{name}": value for name, value in case.items()}
    for norm in ("l2", "h1"):
        floor = float(case[f"direct_{norm}_floor"])
        assert 0.0 < floor < 1e-12
    rows = {row["name"]: row for row in script.diff_rows(records, records)}
    assert rows["t4/direct_l2_floor"]["gate"] == rows["t4/direct_h1_floor"]["gate"] == "-"
    assert rows["t4/direct_l2"]["floor"] == float(case["direct_l2_floor"])
    assert rows["t4/cg_l2"]["floor"] is None
    table = script.render(list(rows.values())).splitlines()
    assert (f"| t4/direct_h1 | bitwise | ok (floor {float(case['direct_h1_floor']):.3g}) |"
            in table)


def test_accuracy_diff_records_the_element_kernel():
    """The kernel cases: every n of 3-10, alone and as a batch of three,
    with every kind, give coordinates, products and basis with their
    gradients, in the shapes of the public functions."""
    script = load_script("accuracy_diff")
    arrays = script.record_kernels(corpus, polyserend)
    kinds = [kind.value for kind in polyserend.CoordinateKind]
    assert set(arrays) == {f"kernel-n{n}-batch{size}-{kind}/{name}"
                           for n in range(3, 11) for size in (1, 3) for kind in kinds
                           for name in ("lam", "dlam", "mu", "dmu", "psi", "dpsi")}
    m = script.KERNEL_POINTS
    for kind in kinds:
        assert arrays[f"kernel-n7-batch1-{kind}/lam"].shape == (m, 7)
        assert arrays[f"kernel-n7-batch3-{kind}/dmu"].shape == (3, m, 28, 2)
        assert arrays[f"kernel-n7-batch3-{kind}/dpsi"].shape == (3, m, 14, 2)
    assert script.render(script.diff_rows(arrays, arrays)).splitlines()[-1] == (
        f"{len(arrays)} of {len(arrays)} arrays bitwise; every gate passed")


def test_accuracy_diff_records_each_checkout_apart(tmp_path, monkeypatch, capsys):
    """Each checkout is recorded on its own, the parent first, and the exit
    code says whether a gate failed; no case is computed here."""
    script = load_script("accuracy_diff")
    parent, change = fixed_records()
    seen = []

    def fake_record(checkout, out):
        seen.append((checkout.name, out.name))
        return parent if checkout.name == "p" else change

    monkeypatch.setattr(script, "record_in_subprocess", fake_record)
    assert script.main([str(tmp_path / "p"), str(tmp_path / "c")]) == 1
    assert seen == [("p", "parent.npz"), ("c", "change.npz")]
    assert "gates failed: b/direct_l2" in capsys.readouterr().out
    change.update({k: v for k, v in parent.items()})
    assert script.main([str(tmp_path / "p"), str(tmp_path / "c")]) == 0
