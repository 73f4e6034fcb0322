"""Every benchmark artifact a test or a CI gate reads is tracked in git.

An artifact under ``benchmarks/results/`` that a tier-1 test opens, or
that a CI job hands to a validator without producing it earlier in the
same job, has to come from the checkout.  If it is only on the machine
that generated it, a fresh clone fails.
"""

import re
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CI = REPO / ".github" / "workflows" / "ci.yml"

#: ``benchmarks/results/<name>.json`` in any source text.
RESULT_PATH = re.compile(r"benchmarks/results/([\w.-]+\.json)")
#: The validator tests' ``RESULTS / "<name>.json"`` idiom.
RESULTS_JOIN = re.compile(r'RESULTS\s*/\s*"([\w.-]+\.json)"')
#: A path a command writes: an output flag or a shell redirect before it.
WRITE_PREFIX = re.compile(r"(--out|--json|>)\s*$")
#: A benchmark script a command runs, or a results path it names.
MENTION = re.compile(
    r"(benchmarks/\w+\.py)|benchmarks/results/([\w.-]+\.json)"
)
#: The start of the next command in a step.
COMMAND = re.compile(r"\b(python3?|repro|cmp)\s")
#: A quoted JSON file name in a benchmark script's source.
JSON_LITERAL = re.compile(r'"([\w.-]+\.json)"')
#: A job header in the workflow: two-space indented key under ``jobs:``.
JOB_HEADER = re.compile(r"^  ([\w-]+):\s*$", re.MULTILINE)


def tracked_results():
    try:
        listed = subprocess.run(
            ["git", "ls-files", "benchmarks/results"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    return {Path(line).name for line in listed.splitlines()}


def read_by_tests():
    names = set()
    for path in (REPO / "tests").rglob("*.py"):
        text = path.read_text()
        names.update(RESULT_PATH.findall(text))
        names.update(RESULTS_JOIN.findall(text))
    return names


def ci_jobs():
    """Job name -> the job's text with comment lines dropped."""
    text = CI.read_text().split("\njobs:\n", 1)[1]
    headers = list(JOB_HEADER.finditer(text))
    jobs = {}
    for header, following in zip(headers, headers[1:] + [None]):
        end = following.start() if following else len(text)
        body = text[header.end():end]
        jobs[header.group(1)] = "\n".join(
            line for line in body.splitlines()
            if not line.lstrip().startswith("#")
        )
    return jobs


def read_by_ci():
    """(job, name) for each results artifact a job reads before writing it.

    A command writes a path it names after an output flag or a redirect;
    a benchmark script run without ``--out`` writes the JSON files its
    source names (its default artifacts).
    """
    reads = set()
    for job, body in ci_jobs().items():
        written = set()
        for match in MENTION.finditer(body):
            script, name = match.groups()
            if script:
                following = COMMAND.search(body, match.end())
                end = following.start() if following else len(body)
                if "--out" not in body[match.end():end]:
                    written.update(
                        JSON_LITERAL.findall((REPO / script).read_text())
                    )
            elif WRITE_PREFIX.search(body[: match.start()]):
                written.add(name)
            elif name not in written:
                reads.add((job, name))
    return reads


def test_artifacts_read_by_tests_are_tracked():
    missing = read_by_tests() - tracked_results()
    assert not missing, f"tests read untracked artifacts: {sorted(missing)}"


def test_artifacts_read_by_ci_are_tracked():
    tracked = tracked_results()
    missing = sorted(
        (job, name) for job, name in read_by_ci() if name not in tracked
    )
    assert not missing, f"CI jobs read untracked artifacts: {missing}"


def test_the_scans_see_the_known_readers():
    # Guard the guard: an empty scan would pass vacuously.
    assert {"micro.json", "scenarios.json", "fleet.json"} <= read_by_tests()
    assert ("bench-fleet", "fleet.json") in read_by_ci()
    assert ("scenario-sweep", "scenarios.json") in read_by_ci()
    # Written earlier in its job by the overhead benchmark: not a read.
    assert not any(
        name == "telemetry_overhead.json" for __, name in read_by_ci()
    )
