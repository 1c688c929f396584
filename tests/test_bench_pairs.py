"""scripts/bench_pairs.py on synthetic run JSONs: side by commit prefix,
pair wins (ties are nobody's), quartiles, the digest check and the
traced block with its figures in reference jobs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = "fedcba9876543210fedcba9876543210fedcba98"
CHANGE = "0123456789abcdef0123456789abcdef01234567"
GATES = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def write_run(
    directory: Path,
    commit: str,
    seed: int,
    campaign_ref: float,
    digest: str = "d",
    reference_ms: float = 250.0,
    src_lines: int = 3000,
    verify_calls: int = 100,
) -> Path:
    metrics = {gate["name"]: {"value": 1.0, "unit": gate["unit"]} for gate in GATES}
    metrics["campaign_ref"]["value"] = campaign_ref
    doc = {
        "trace": 0,
        "workload": "train",
        "seed": seed,
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": metrics,
        "counts": {"digest": f"{digest}{seed}", "verify_calls": verify_calls},
        "extra": {"reference_ms": reference_ms},
        "environment": {"commit": commit, "src_lines": src_lines},
    }
    path = directory / f"{commit[:7]}-{seed}.json"
    path.write_text(json.dumps(doc))
    return path


def summarize(tmp_path, runs):
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", PARENT[:7], "--out", str(out), *map(str, runs)]) == 0
    return json.loads(out.read_text())


def test_sides_wins_and_ties(tmp_path):
    # seed 1: change lower (a win); seed 2: equal (nobody's); seed 3: change higher
    runs = [
        write_run(tmp_path, PARENT, 1, 400.0),
        write_run(tmp_path, CHANGE, 1, 300.0),
        write_run(tmp_path, CHANGE, 2, 350.0),
        write_run(tmp_path, PARENT, 2, 350.0),
        write_run(tmp_path, PARENT, 3, 410.0),
        write_run(tmp_path, CHANGE, 3, 420.0),
    ]
    doc = summarize(tmp_path, runs)
    assert [(run["order"], run["side"], run["seed"]) for run in doc["runs"]] == [
        (1, "parent", 1),
        (2, "change", 1),
        (3, "change", 2),
        (4, "parent", 2),
        (5, "parent", 3),
        (6, "change", 3),
    ]
    entry = doc["summary"]["train"]
    assert entry["pairs"] == 3 and entry["digests_match"]
    assert entry["campaign_ref"]["change_wins"] == 1
    assert entry["campaign_ref"]["parent"]["median"] == 400.0
    # every other metric is equal on both sides: no wins at all
    assert entry["yield"]["change_wins"] == 0


def test_src_lines_of_each_side_at_the_top_level(tmp_path):
    # read from the environment blocks, traced runs included
    traced = write_run(tmp_path, CHANGE, 2, 0.0, src_lines=3789)
    doc = json.loads(traced.read_text())
    doc["trace"] = 1
    layers = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    doc["metrics"] = {metric["name"]: {"value": 0.5, "unit": metric["unit"]} for metric in layers}
    traced = traced.with_name(f"traced-{traced.name}")
    traced.write_text(json.dumps(doc))
    runs = [write_run(tmp_path, PARENT, 1, 400.0, src_lines=3805), write_run(tmp_path, CHANGE, 1, 300.0, src_lines=3789)]
    assert summarize(tmp_path, [*runs, traced])["src_lines"] == {"parent": 3805, "change": 3789}
    # one side's runs from two trees: no single count to report
    runs.append(write_run(tmp_path, PARENT, 2, 400.0, src_lines=3804))
    with pytest.raises(ValueError, match="3804, 3805"):
        summarize(tmp_path, runs)


def test_a_repeated_seed_is_refused(tmp_path):
    # the parent ran 100 then 100 and the change 90 then 120 at one seed:
    # pairing by seed would keep only the second runs and lose the win
    runs = []
    for directory, parent_ref, change_ref in (("first", 100.0, 90.0), ("second", 100.0, 120.0)):
        (tmp_path / directory).mkdir()
        runs += [write_run(tmp_path / directory, PARENT, 1, parent_ref), write_run(tmp_path / directory, CHANGE, 1, change_ref)]
    with pytest.raises(ValueError, match="^two untraced parent runs of train at seed 1$"):
        summarize(tmp_path, runs)
    assert summarize(tmp_path, runs[:2])["summary"]["train"]["campaign_ref"]["change_wins"] == 1


def test_verify_calls_of_each_run_and_side(tmp_path):
    # each run carries the count its result reports; each side gets the
    # median, so a verified_per_ref fall at equal digests reads as fewer calls
    runs = [
        write_run(tmp_path, PARENT, 1, 400.0, verify_calls=13802),
        write_run(tmp_path, CHANGE, 1, 380.0, verify_calls=10497),
        write_run(tmp_path, PARENT, 2, 400.0, verify_calls=13900),
        write_run(tmp_path, CHANGE, 2, 380.0, verify_calls=10500),
        write_run(tmp_path, PARENT, 3, 400.0, verify_calls=13700),
    ]
    doc = summarize(tmp_path, runs)
    assert [run["verify_calls"] for run in doc["runs"]] == [13802, 10497, 13900, 10500, 13700]
    assert doc["summary"]["train"]["verify_calls"] == {"parent": 13802, "change": 10498.5}
    assert summarize(tmp_path, runs[:1])["summary"]["train"]["verify_calls"] == {"parent": 13802}


def test_spread_quartiles():
    assert bench_pairs.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0]) == {"n": 4, "median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.spread([7.0]) == {"n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_digest_mismatch_in_one_pair(tmp_path):
    runs = [
        write_run(tmp_path, PARENT, 1, 400.0),
        write_run(tmp_path, CHANGE, 1, 300.0),
        write_run(tmp_path, PARENT, 2, 400.0),
        write_run(tmp_path, CHANGE, 2, 300.0, digest="other"),
    ]
    assert summarize(tmp_path, runs)["summary"]["train"]["digests_match"] is False


@pytest.mark.parametrize("edit", [{"correct": False}, {"failed": 1}])
def test_all_correct_names_a_refused_run(tmp_path, edit):
    # every run correct with nothing failed, on either side, or not
    runs = [write_run(tmp_path, PARENT, 1, 400.0), write_run(tmp_path, CHANGE, 1, 300.0)]
    assert summarize(tmp_path, runs)["summary"]["train"]["all_correct"] is True
    doc = json.loads(runs[0].read_text())
    runs[0].write_text(json.dumps({**doc, **edit}))
    assert summarize(tmp_path, runs)["summary"]["train"]["all_correct"] is False


def test_traced_runs_collected_apart(tmp_path):
    # a traced run adds no end-to-end figure; it lands in the traced block
    # with the per-layer metrics, by workload and side, in run order
    layers = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    traced = []
    for commit, calls in ((PARENT, 13802), (CHANGE, 13801)):
        path = write_run(tmp_path, commit, 1, 0.0)
        doc = json.loads(path.read_text())
        doc["trace"] = 1
        doc["metrics"] = {metric["name"]: {"value": 0.5, "unit": metric["unit"]} for metric in layers}
        doc["metrics"]["verdicts.verify_all.calls"]["value"] = calls
        path = path.with_name(f"traced-{path.name}")
        path.write_text(json.dumps(doc))
        traced.append(path)
    runs = [write_run(tmp_path, PARENT, 1, 400.0), write_run(tmp_path, CHANGE, 1, 300.0)]
    doc = summarize(tmp_path, [runs[0], traced[0], traced[1], runs[1]])
    assert [run["order"] for run in doc["runs"]] == [1, 4]
    entry = doc["summary"]["train"]
    assert entry["pairs"] == 1 and entry["campaign_ref"]["parent"]["n"] == 1
    block = doc["traced"]["train"]
    assert [run["order"] for run in block["parent"]] == [2]
    assert [run["order"] for run in block["change"]] == [3]
    change = block["change"][0]
    assert change["verdicts.verify_all.calls"] == 13801 and change["trace.overhead"] == 0.5
    assert set(change) >= {metric["name"] for metric in layers} | {"seed", "digest", "failed"}
    assert "campaign_ref" not in change


def test_untraced_only_has_no_traced_block(tmp_path):
    runs = [write_run(tmp_path, PARENT, 1, 400.0), write_run(tmp_path, CHANGE, 1, 300.0)]
    assert "traced" not in summarize(tmp_path, runs)


def test_traced_seconds_are_also_given_in_reference_jobs(tmp_path):
    # each traced run carries its reference job; every per-layer figure in
    # seconds or microseconds gains a <name>_ref twin divided by that job
    # (in the figure's unit), no other does
    layers = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    seconds = {metric["name"] for metric in layers if metric["unit"] == "s"}
    micros = {metric["name"] for metric in layers if metric["unit"] == "us"}
    assert {"qnet.train_step.self_s", "campaign.probe_s", "trace.campaign_s"} <= seconds
    assert {"certs.encode_der.us_p50", "certs.encode_der.us_p99", "actions.apply.us_p50"} <= micros
    traced = []
    for commit, reference_ms in ((PARENT, 250.0), (CHANGE, 500.0)):
        path = write_run(tmp_path, commit, 1, 0.0, reference_ms=reference_ms)
        doc = json.loads(path.read_text())
        doc["trace"] = 1
        doc["metrics"] = {metric["name"]: {"value": 2.0, "unit": metric["unit"]} for metric in layers}
        path.write_text(json.dumps(doc))
        traced.append(path)
    block = summarize(tmp_path, traced)["traced"]["train"]
    parent, change = block["parent"][0], block["change"][0]
    assert parent["reference_ms"] == 250.0 and change["reference_ms"] == 500.0
    assert {key for key in change if key.endswith("_ref")} == {f"{name}_ref" for name in seconds | micros}
    for name in seconds:
        assert parent[f"{name}_ref"] == 8.0 and change[f"{name}_ref"] == 4.0
        assert parent[name] == change[name] == 2.0
    # 2 us of a 250 ms job is 8e-6 jobs; of a 500 ms job, 4e-6
    for name in micros:
        assert parent[f"{name}_ref"] == pytest.approx(8e-6) and change[f"{name}_ref"] == pytest.approx(4e-6)
        assert parent[name] == change[name] == 2.0


def test_traced_summary_gives_the_spread_of_each_side(tmp_path):
    # four traced runs a side: the median and quartiles of the reference
    # job and of every figure in reference jobs, the traced block as it was
    layers = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    timed = {metric["name"] for metric in layers if metric["unit"] in ("s", "us")}
    traced = []
    for seed, reference_ms in enumerate((100.0, 400.0, 200.0, 500.0), 1):
        for commit in (PARENT, CHANGE):
            path = write_run(tmp_path, commit, seed, 0.0, reference_ms=reference_ms)
            doc = json.loads(path.read_text())
            doc["trace"] = 1
            doc["metrics"] = {metric["name"]: {"value": 1.0, "unit": metric["unit"]} for metric in layers}
            doc["metrics"]["campaign.self_s"]["value"] = 2.0 if commit == CHANGE else 1.0
            path = path.with_name(f"traced-{path.name}")
            path.write_text(json.dumps(doc))
            traced.append(path)
    doc = summarize(tmp_path, traced)
    assert [len(doc["traced"]["train"][side]) for side in ("parent", "change")] == [4, 4]
    summary = doc["traced_summary"]["train"]
    assert set(summary) == {"parent", "change"}
    assert set(summary["change"]) == {"reference_ms"} | {f"{name}_ref" for name in timed}
    assert summary["parent"]["reference_ms"] == {"n": 4, "median": 300.0, "q1": 175.0, "q3": 425.0}
    # 1 s over jobs of 0.1, 0.4, 0.2 and 0.5 s: 10, 2.5, 5 and 2 jobs
    assert summary["parent"]["campaign.self_s_ref"] == pytest.approx({"n": 4, "median": 3.75, "q1": 2.375, "q3": 6.25})
    assert summary["change"]["campaign.self_s_ref"]["median"] == pytest.approx(7.5)
    assert "traced_summary" not in summarize(tmp_path, [write_run(tmp_path, PARENT, 9, 400.0)])


@pytest.mark.parametrize("change_ref, within", [(480.0, True), (510.0, False)], ids=["inside", "outside"])
def test_bounds_are_checked(tmp_path, change_ref, within):
    # campaign_ref is better lower with a 0.25 bound: 400 -> 480 is a 20%
    # move the worse way, inside it; 400 -> 510 is 27.5%, outside it
    runs = [write_run(tmp_path, PARENT, seed, 400.0) for seed in (1, 2, 3)]
    runs += [write_run(tmp_path, CHANGE, seed, change_ref) for seed in (1, 2, 3)]
    entry = summarize(tmp_path, runs)["summary"]["train"]
    assert entry["campaign_ref"]["bound"] == 0.25
    assert entry["campaign_ref"]["bad_move"] == pytest.approx(change_ref / 400.0 - 1)
    assert entry["campaign_ref"]["within_bound"] is within
    # every other metric is equal on both sides: no move at all
    assert entry["yield"]["bad_move"] == 0.0 and entry["yield"]["within_bound"] is True
    assert entry["no_regression"] is within


def test_bound_of_a_higher_is_better_metric(tmp_path):
    # yield is better higher: 1.0 -> 0.5 is a 50% move the worse way;
    # with no change runs there is no verdict
    runs = [write_run(tmp_path, PARENT, 1, 400.0), write_run(tmp_path, CHANGE, 1, 400.0)]
    doc = json.loads(runs[1].read_text())
    doc["metrics"]["yield"]["value"] = 0.5
    runs[1].write_text(json.dumps(doc))
    entry = summarize(tmp_path, runs)["summary"]["train"]
    assert entry["yield"]["bad_move"] == 0.5 and entry["yield"]["within_bound"] is False
    assert "no_regression" not in summarize(tmp_path, runs[:1])["summary"]["train"]


def test_bad_move_from_a_zero_parent():
    # no relative move exists; any move the worse way is outside the bound
    assert bench_pairs.bad_move(0.0, 0.0, "higher", 0.25) == {"bound": 0.25, "bad_move": None, "within_bound": True}
    assert bench_pairs.bad_move(0.0, 0.1, "lower", 0.25)["within_bound"] is False
    assert bench_pairs.bad_move(0.0, 0.1, "higher", 0.25)["within_bound"] is True
