"""The chaos-net driver script: pure, deterministic, catalog-shaped."""

from __future__ import annotations

from repro.loadgen.netchaos import ScriptPersona, build_script
from repro.loadgen.personas import Catalog

_CATALOG = Catalog(
    providers=("alexa", "umbrella"), days=4, experiments=("nc1", "nc2")
)


class TestBuildScript:
    def test_is_deterministic(self):
        a = build_script(_CATALOG, 60)
        b = build_script(_CATALOG, 60)
        assert a == b

    def test_length_and_shape(self):
        script = build_script(_CATALOG, 60)
        assert len(script) == 60
        kinds = {r.kind for r in script}
        assert kinds == {"experiment", "lists", "lists-index", "health"}
        assert all(not r.conditional for r in script)
        assert all(r.think_seconds == 0.0 for r in script)

    def test_covers_experiments_and_providers(self):
        script = build_script(_CATALOG, 60)
        paths = [r.path for r in script]
        for name in _CATALOG.experiments:
            assert any(p == f"/v1/experiments/{name}" for p in paths)
        for provider in _CATALOG.providers:
            assert any(f"/v1/lists/{provider}/" in p for p in paths)

    def test_prefix_stability(self):
        # A longer script extends, never reshuffles, a shorter one —
        # the property that keeps quick and full runs comparable.
        short = build_script(_CATALOG, 30)
        long = build_script(_CATALOG, 90)
        assert long[:30] == short


class TestScriptPersona:
    def _persona(self):
        return ScriptPersona("netchaos-driver", 7, _CATALOG)

    def test_accepts_json_objects(self):
        assert self._persona().validate(None, {"status": "alive"}) is None

    def test_rejects_non_objects(self):
        persona = self._persona()
        assert persona.validate(None, [1, 2]) is not None
        assert persona.validate(None, "alive") is not None
