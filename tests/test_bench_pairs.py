"""tools/bench_pairs.py: alternating pairs and the summary it writes."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_checkout(root, rate, log):
    """A checkout whose bench/run.py logs its call and prints fixed metrics."""
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(
        "import json, sys\n"
        f"open({str(log)!r}, 'a').write({root.name!r} + ' ' + sys.argv[sys.argv.index('--seed') + 1] + '\\n')\n"
        "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0, 'metrics': {\n"
        f"    'train_clips_per_s': {{'value': {rate} + int(sys.argv[sys.argv.index('--seed') + 1]) % 2, 'unit': 'clips/s'}},\n"
        "    'peak_rss_mb': {'value': 40, 'unit': 'MB'}}}))\n")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w1"}],
        "end_to_end": [{"name": "train_clips_per_s", "better": "higher"},
                       {"name": "peak_rss_mb", "better": "lower"}]}))
    return root


def test_alternates_sides_and_counts_wins(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "FIRST_SEED", 4)
    log = tmp_path / "calls.txt"
    base = fake_checkout(tmp_path / "base", 10, log)
    head = fake_checkout(tmp_path / "head", 12, log)
    assert bench_pairs.main([str(base), str(head), "--tag", "t", "--pairs", "3",
                             "--out", str(tmp_path)]) == 0
    assert log.read_text().split("\n")[:-1] == [
        "base 4", "head 4", "head 5", "base 5", "base 6", "head 6"]
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert {"numpy", "blas", "nproc", "python"} <= set(report["environment"])
    assert report["environment"]["head"] == dict(commit=None, src_tree=None, dirty=None)
    assert (report["seconds"], report["first_seed"]) == (1, 4)
    entry = report["workloads"]["w1"]
    assert entry["base"] == entry["head"] == dict(runs=3, errors=0, all_correct=True,
                                                  attempted=9, failed=0)
    rate = entry["metrics"]["train_clips_per_s"]
    assert rate["base"] == dict(median=10, q1=10, q3=10.5, n=3)
    assert rate["head"]["median"] == 12 and rate["change_pct"] == 20.0
    assert (rate["head_wins"], rate["pairs"]) == (3, 3)
    rss = entry["metrics"]["peak_rss_mb"]
    assert (rss["head_wins"], rss["change_pct"]) == (0, 0.0)


def test_failed_run_is_recorded_not_summarized(bench_pairs, tmp_path):
    log = tmp_path / "calls.txt"
    base = fake_checkout(tmp_path / "base", 10, log)
    head = fake_checkout(tmp_path / "head", 12, log)
    (head / "bench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    bench_pairs.main([str(base), str(head), "--tag", "t", "--pairs", "2",
                      "--out", str(tmp_path)])
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w1"]
    assert entry["head"]["errors"] == 2 and not entry["head"]["all_correct"]
    assert entry["runs"][0]["head"]["error"].startswith("exit 3")
    assert entry["metrics"]["train_clips_per_s"]["head"] is None
    assert entry["metrics"]["train_clips_per_s"]["pairs"] == 0


def test_git_state_marks_a_dirty_tree(bench_pairs, tmp_path):
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "src" / "a.py").write_text("x = 1\n")

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=root, check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "one")
    clean = bench_pairs.git_state(root)
    assert clean == dict(commit=git("rev-parse", "HEAD"), src_tree=git("rev-parse", "HEAD:src"),
                         dirty=False)
    (root / "src" / "a.py").write_text("x = 2\n")
    assert bench_pairs.git_state(root) == dict(clean, dirty=True)
