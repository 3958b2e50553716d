"""Regenerate the golden fixtures in ``tests/golden/`` (deliberate use only).

Run after an *intended* output change::

    PYTHONPATH=src python tests/regen_golden.py

and commit the diff alongside the change that caused it.
"""

import json
from pathlib import Path

from repro.scenarios import Runner

#: Single source of truth for the fixture set — tests/test_golden.py
#: imports these so the regenerator and the assertions cannot drift.
GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixture name -> the overrides it runs under. The packet rows (fig07,
#: fig09, fig11_dynamic) are pinned at ci scale with their seeds fixed by
#: the registry defaults; they freeze what py == c cannot catch — a change
#: to the forwarding tables or closures that moves both kernels together.
#: ``fig11_dynamic`` also pins the failure-armed route fallback.
GOLDEN_OVERRIDES: dict[str, dict] = {
    "fig04": {},
    "table1": {},
    "table2": {},
    "fig07": {"networks": ("opera", "rotornet-hybrid"), "scale": "ci"},
    "fig09": {"networks": ("expander", "clos"), "scale": "ci"},
    "fig11_dynamic": {"scale": "ci"},
}
GOLDEN_NAMES = tuple(GOLDEN_OVERRIDES)
#: The fixtures that run the packet engine (checked under both kernels).
PACKET_GOLDEN_NAMES = ("fig07", "fig09", "fig11_dynamic")


def golden_document(result) -> dict:
    """The exact JSON document a fixture freezes for one ScenarioResult."""
    return {
        "scenario": result.name,
        "params": result.params,
        "rows": result.rows,
        "payload": result.payload,
    }


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    runner = Runner(cache=None)
    for name in GOLDEN_NAMES:
        doc = golden_document(
            runner.run(names=[name], overrides=GOLDEN_OVERRIDES[name])[0]
        )
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
