"""Smoke test of the benchmark: every workload at ``--scale tiny``.

Each run is a fresh subprocess, exactly as the driver starts it; the whole
module takes a few seconds.  No timing is asserted, only that every metric
of ``BENCHMARK.json`` is emitted with its unit and every output is correct.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perf import gen
from perf.harness import Context
from perf.workloads import WORKLOADS, live_cohort, push_gateway, retro_fig3, tenant_churn

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, tmp_path) -> tuple[dict, dict]:
    out = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def check_metrics(emitted: dict, expected: list, positive: bool) -> None:
    assert set(emitted) >= {m["name"] for m in expected}
    for metric in expected:
        entry = emitted[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert np.isfinite(entry["value"]), metric["name"]
        if positive:
            assert entry["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_metric(workload, tmp_path):
    line, record = run_tiny(workload, 1, tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert record["values"]["failed_share"]["value"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    check_metrics(line["metrics"], SPEC["per_layer"], positive=False)
    # A traced run still measures end to end (its overhead is the ratio).
    check_metrics(record["values"], SPEC["end_to_end"], positive=True)

    # Each layer shows up only on the workloads that use it.
    layer = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert (layer["lang.compile_text.calls"] > 0) == (workload == "tenant_churn")
    assert (layer["cache.misses"] > 0) == (workload == "tenant_churn")
    assert (layer["runtime.run.calls"] > 0) == (workload == "retro_fig3")
    assert (layer["session.tick.calls"] > 0) == (workload != "retro_fig3")
    assert (layer["ingest.push.calls"] > 0) == (workload == "push_gateway")
    if workload == "live_cohort":
        assert layer["serve.prefix_ticks"] == record["info"]["sharing_groups"]


def test_untraced_run_prints_the_end_to_end_metrics(tmp_path):
    line, _record = run_tiny("tenant_churn", 0, tmp_path)
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    check_metrics(line["metrics"], SPEC["end_to_end"], positive=True)


def input_digests(seed: int) -> dict:
    ctx = Context(seed=seed, seconds=1, tiny=True)
    ecg, abp = retro_fig3.make_inputs(seed, retro_fig3.sizes(ctx)["seconds"])
    cohort = live_cohort.make_inputs(seed, live_cohort.sizes(ctx))
    churn = tenant_churn.make_inputs(seed, tenant_churn.sizes(ctx))
    return {
        "retro_fig3": gen.digest(*ecg, *abp),
        "live_cohort": gen.digest(
            *(a for c in cohort for t, v, _p in c["arrays"].values() for a in (t, v))
        ),
        "tenant_churn": gen.digest(churn["programs"], churn["streams"],
                                   *(a for t, v, _p in churn["pool"]["s"] for a in (t, v))),
        "push_gateway": gen.digest(push_gateway.make_inputs(seed, push_gateway.sizes(ctx))),
    }


def test_generators_are_deterministic_per_seed():
    first, again, other = input_digests(5), input_digests(5), input_digests(6)
    assert first == again
    for workload in WORKLOADS:
        assert first[workload] != other[workload]
