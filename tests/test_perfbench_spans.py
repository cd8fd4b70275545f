"""The benchmark tracer patches bosonet functions by name; every name must exist.

``perfbench/spans.py`` skips a place it cannot find and records it as missing,
so a rename in the package would silently zero that layer's counters.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_place_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    places = [place for _, layer_places in spans.LAYERS for place in layer_places]
    missing = []
    for place in places:
        module_name, attr = place.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(place)
    assert places
    assert missing == []
