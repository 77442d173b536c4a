"""The public API surface matches its checked-in snapshot.

The kwargs-drift regression gate: ``tools/check_api_surface.py``
snapshots every ``repro.__all__`` export's signature; this test (and
the CI docs job) fails when the live package diverges, so signature
changes are always an explicit, reviewed ``--update`` commit.
"""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_api_surface.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_api_surface", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_exists():
    assert (REPO_ROOT / "tools" / "api_surface.json").exists()


def test_live_surface_matches_snapshot():
    tool = _load_tool()
    import json

    snapshot = json.loads(
        (REPO_ROOT / "tools" / "api_surface.json").read_text()
    )
    problems = tool.diff(snapshot, tool.current_surface())
    assert not problems, "\n".join(problems)


def test_diff_reports_changes():
    tool = _load_tool()
    live = tool.current_surface()
    mutated = dict(live)
    mutated["execute"] = "(relations)"  # pretend the signature shrank
    del mutated["output_bound"]
    mutated["brand_new"] = "(x)"
    problems = tool.diff(mutated, live)
    kinds = {p.split(":")[0] for p in problems}
    assert kinds == {"added", "removed", "changed"}
