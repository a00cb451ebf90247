"""``tools/bench_pairs.py``'s summary and claim verdict on hand-made pairs,
the checkouts it names by path or by git revision, and its counting pass. An
export never holds its archive in memory."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER_BETTER = {"trials_per_s": True, "trial_ms_p50": False}
PAIRS = [
    {"parent": {"trials_per_s": p, "trial_ms_p50": pm}, "change": {"trials_per_s": c, "trial_ms_p50": cm}}
    for p, c, pm, cm in [(100, 150, 5.0, 4.0), (110, 160, 4.0, 4.0), (120, 100, 6.0, 3.0), (130, 170, 5.0, 5.5)]
]


def test_summary_counts_wins_by_the_metrics_direction():
    summary = bench_pairs.summarise(PAIRS, HIGHER_BETTER)
    assert summary["trials_per_s"] == {
        "parent_median": 115.0,
        "change_median": 155.0,
        "ratio": 1.3478,
        "pairs_won": "3/4",
        "parent_iqr": 15.0,  # inclusive quartiles 107.5 and 122.5
        "parent_spread": 0.2609,
    }
    p50 = summary["trial_ms_p50"]
    assert (p50["parent_median"], p50["change_median"], p50["ratio"]) == (5.0, 4.0, 0.8)
    assert p50["pairs_won"] == "2/4"  # a tie counts for neither side


def test_claim_is_met_when_the_median_ratio_reaches_the_target():
    summary = {"apartments": bench_pairs.summarise(PAIRS, HIGHER_BETTER)}
    faster = bench_pairs.claim(summary, "apartments", "trials_per_s", 1.3, True)
    assert faster["met"] is True and faster["pairs_won"] == "3/4"
    assert faster["target"] == ">= 1.3x the parent's median"
    assert bench_pairs.claim(summary, "apartments", "trials_per_s", 1.4, True)["met"] is False
    assert bench_pairs.claim(summary, "apartments", "trial_ms_p50", 0.8, False)["met"] is True
    assert bench_pairs.claim(summary, "apartments", "trial_ms_p50", 0.75, False)["met"] is False


def _git_repo(path: Path) -> list[str]:
    """A git command line for ``path``, made a repository, with an identity."""
    git = ["git", "-C", str(path), "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run([*git, "init", "-q"], check=True, capture_output=True)
    return git


def test_a_revision_is_exported_and_named_by_its_commit(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "marker.txt").write_text("exported\n")
    package = repo / "src" / "homeloop"
    (package / "planning").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "planning" / "b.py").write_text("three\n\nfive\n")
    (package / "data.json").write_text("{}\n")  # not Python: not counted
    git = _git_repo(repo)
    for cmd in (["add", "."], ["commit", "-q", "-m", "a marker and a package"]):
        subprocess.run([*git, *cmd], check=True, capture_output=True)
    commit = subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip()

    with bench_pairs.checkout("HEAD", repo=str(repo)) as (tree, name):
        assert name == commit and len(name) == 40
        assert (Path(tree) / "marker.txt").read_text() == "exported\n"
        assert not (Path(tree) / ".git").exists()
        assert bench_pairs.src_lines(tree) == 5
    assert not Path(tree).exists()

    plain = tmp_path / "plain"  # a directory keeps its record: here its path, as it is no git checkout
    plain.mkdir()
    with bench_pairs.checkout(str(plain), repo=str(repo)) as (root, name):
        assert (root, name) == (str(plain), str(plain))
        assert bench_pairs.src_lines(root) == 0
    assert plain.exists()


# Every run.py that bench_pairs starts inherits its peak RSS, so an archive
# read into this process would floor the peak_rss_mb of the runs.
EXPORT_PEAK = """
import importlib.util, resource, sys
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with bench_pairs.export("HEAD", repo=sys.argv[2]) as (tree, _):
    pass
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_an_export_does_not_raise_the_peak_rss_by_its_archive(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "blob.bin").write_bytes(os.urandom(16 * 2**20))
    git = _git_repo(repo)
    for cmd in (["add", "."], ["commit", "-q", "-m", "a 16 MiB blob"]):
        subprocess.run([*git, *cmd], check=True, capture_output=True)
    script = os.path.join(ROOT, "tools", "bench_pairs.py")
    # started from a shell that waits for it, so it does not inherit pytest's peak
    cmd = ["sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-c", EXPORT_PEAK, script, str(repo)]
    grown_kib = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    assert int(grown_kib) < 4 * 1024


def test_the_counting_pass_gives_the_same_counts_twice_under_hash_seeds_0_and_1():
    runs = [bench_pairs.count_work(ROOT, "apartments", 31, 1, env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
    assert runs[0] == runs[1]
    counts = runs[0]
    assert set(counts["bfs_layers"]) == {"_sense", "nearest", "flood_fill"}
    assert counts["trace_lines"]["header"] == counts["trace_lines"]["trial_end"] == 10  # one unit's ten trials
    assert set(counts["trace_bytes"]) == set(counts["trace_lines"])
