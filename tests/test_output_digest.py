"""tools/output_digest.py: the digests it prints are a function of the
checkout alone, so two runs print the same lines."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"
CORPUS = ROOT / "tests" / "golden" / "cli_argv.json"


def test_output_digest_prints_the_same_digests_twice():
    argv = [sys.executable, str(TOOL), "--leg", "1,3,1/4", "--no-report",
            "--requests", "40"]
    runs = [subprocess.run(argv, capture_output=True, text=True, check=True)
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert [line.split("  ", 1)[1] for line in lines] == [
        "verify-stability --g 1 --mu-max 3 --step 1/4 --json  [pinned]",
        "40 plan --json requests, seed 2028",
        f"{len(json.loads(CORPUS.read_text()))} argv of"
        " tests/golden/cli_argv.json"]
