"""Golden regression tests: frozen scenario outputs vs the live runner.

``tests/golden/<name>.json`` freezes one scenario's exact output (rows +
canonical JSON payload) under the overrides ``GOLDEN_OVERRIDES`` gives it:
three cheap analysis scenarios at their registry defaults, plus seeded
ci-scale packet rows (fig07, fig09, fig11_dynamic). The runner must
reproduce them bit-for-bit live, through a cold cache write, and through a
warm cache read — any drift in the experiment code, the parameter schema,
the encoder, or the cache layer fails here first. The packet fixtures are
also checked under each engine kernel explicitly, so a change that moves
the pure-Python oracle and the compiled kernel together still fails.

Regenerate deliberately (after an intended change) with::

    PYTHONPATH=src python tests/regen_golden.py
"""

import json

import pytest
from regen_golden import (
    GOLDEN_DIR,
    GOLDEN_NAMES,
    GOLDEN_OVERRIDES,
    PACKET_GOLDEN_NAMES,
)

from repro.net.kernel import compiled_available
from repro.scenarios import ResultCache, Runner


def load_golden(name):
    with (GOLDEN_DIR / f"{name}.json").open() as fh:
        return json.load(fh)


def test_every_fixture_on_disk_is_in_the_golden_set():
    """A fixture the regenerator no longer produces must not linger."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(GOLDEN_NAMES)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
class TestGoldenOutputs:
    def test_cache_off_reproduces_fixture(self, name):
        golden = load_golden(name)
        res = Runner(cache=None).run(names=[name], overrides=GOLDEN_OVERRIDES[name])[0]
        assert res.cached is False
        assert res.rows == golden["rows"]
        assert res.payload == golden["payload"]

    def test_cache_on_reproduces_fixture_cold_and_warm(self, name, tmp_path):
        golden = load_golden(name)
        runner = Runner(cache=ResultCache(tmp_path))
        cold = runner.run(names=[name], overrides=GOLDEN_OVERRIDES[name])[0]
        warm = runner.run(names=[name], overrides=GOLDEN_OVERRIDES[name])[0]
        assert (cold.cached, warm.cached) == (False, True)
        for res in (cold, warm):
            assert res.rows == golden["rows"]
            assert res.payload == golden["payload"]
        # The cache round-trips the exact parameter binding too.
        assert warm.params == cold.params

    def test_fixture_params_match_current_schema(self, name):
        """A schema-default change must be a conscious fixture regeneration."""
        golden = load_golden(name)
        res = Runner(cache=None).resolve(
            names=[name], overrides=GOLDEN_OVERRIDES[name]
        )[0]
        assert json.loads(json.dumps(res.params)) == golden["params"]


@pytest.mark.parametrize("name", PACKET_GOLDEN_NAMES)
@pytest.mark.parametrize(
    "kernel",
    [
        "py",
        pytest.param(
            "c",
            marks=pytest.mark.skipif(
                not compiled_available(),
                reason="compiled kernel (_ckernel) not built in this environment",
            ),
        ),
    ],
)
def test_packet_fixture_under_each_kernel(name, kernel, monkeypatch):
    golden = load_golden(name)
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    res = Runner(cache=None).run(names=[name], overrides=GOLDEN_OVERRIDES[name])[0]
    assert res.rows == golden["rows"]
    assert res.payload == golden["payload"]
