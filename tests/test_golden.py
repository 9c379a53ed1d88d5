"""Golden timeline corpus: every scenario cell still digests the same.

The digests in ``tests/golden/timelines.json`` pin the controller's
determinism contract across the migration-mode x executor x fault x
detection x population matrix defined in ``tools/golden_timelines.py``.
A deliberate behaviour change regenerates them with
``PYTHONPATH=src python tools/golden_timelines.py --write``.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_timelines.py"


def _golden_tool():
    spec = importlib.util.spec_from_file_location("golden_timelines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_cell_reproduces_its_digest():
    tool = _golden_tool()
    golden = tool.load()
    assert len(golden) == len(tool.CELLS)
    assert tool.moved(golden, tool.compute()) == []
