"""Every CLI output, byte for byte, against the committed pipeline digest."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "tests" / "data" / "pipeline_digest.json"


def test_pipeline_outputs_match_committed_listing():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "pipeline_digest.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got, want = json.loads(done.stdout), json.loads(LISTING.read_text())
    differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not differ, (f"outputs differ from {LISTING.name} (regenerate it only for an "
                        f"intended change): {differ}")
