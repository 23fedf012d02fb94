"""Tests for the unified EngineOptions value object (repro.gdb.engines).

The redesign folds the former scatter of engine keyword arguments
(``faults_enabled`` / ``gate_scale`` / ``restart`` / ``execution_mode``)
into one frozen dataclass accepted everywhere engines are built; the old
keywords are gone.
"""

import pytest

from repro.gdb import EngineOptions, create_engine
from repro.gdb.engines import FalkorDBSim, ReferenceGDB
from repro.graph import GraphGenerator


def small_graph():
    return GraphGenerator(seed=3).generate_with_schema()


class TestEngineOptions:
    def test_defaults(self):
        options = EngineOptions()
        assert options.faults_enabled is True
        assert options.gate_scale == 1.0
        assert options.restart is True
        assert options.execution_mode == "interpreted"

    def test_frozen_value_object(self):
        options = EngineOptions()
        with pytest.raises(AttributeError):
            options.gate_scale = 0.5
        assert EngineOptions(gate_scale=0.5) == EngineOptions(gate_scale=0.5)

    def test_invalid_execution_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            EngineOptions(execution_mode="quantum")


class TestEngineConstruction:
    def test_create_engine_accepts_options(self):
        engine = create_engine(
            "falkordb",
            EngineOptions(gate_scale=0.04, execution_mode="compiled"),
        )
        assert engine.gate_scale == 0.04
        assert engine.execution_mode == "compiled"
        assert engine.faults_enabled is True

    def test_legacy_kwargs_equal_options_form(self):
        via_keyword = create_engine(
            "neo4j", options=EngineOptions(faults_enabled=False,
                                           gate_scale=0.1)
        )
        via_options = create_engine(
            "neo4j", EngineOptions(faults_enabled=False, gate_scale=0.1)
        )
        assert via_keyword.options == via_options.options
        assert via_keyword.gate_scale == via_options.gate_scale == 0.1
        assert via_keyword.faults_enabled is via_options.faults_enabled is False

    def test_legacy_kwargs_rejected(self):
        # Tuning arrives only as an EngineOptions value.
        with pytest.raises(TypeError):
            create_engine("neo4j", faults_enabled=False, gate_scale=0.1)
        with pytest.raises(TypeError):
            FalkorDBSim(gate_scale=0.5)

    def test_positional_scalars_still_rejected(self):
        # The scalar tuning flags remain keyword-only; the options slot
        # accepts exactly one thing, an EngineOptions.
        with pytest.raises(TypeError, match="EngineOptions"):
            create_engine("neo4j", False)
        with pytest.raises(TypeError, match="EngineOptions"):
            FalkorDBSim(0.5)

    def test_subclass_direct_construction(self):
        engine = FalkorDBSim(options=EngineOptions(faults_enabled=False))
        assert engine.faults_enabled is False
        assert ReferenceGDB().faults_enabled is False

    def test_restart_default_comes_from_options(self):
        schema, graph = small_graph()
        engine = create_engine("falkordb", EngineOptions(restart=False))
        engine.load_graph(graph, schema)  # first load, no explicit restart
        engine.load_graph(graph, schema, restart=True)
        assert engine.options.restart is False

    def test_campaign_identical_across_construction_forms(self):
        from repro.core.reporting import campaign_to_dict
        from repro.core.runner import GQSTester

        keyword = GQSTester().run(
            create_engine("falkordb", options=EngineOptions(gate_scale=0.05)),
            5.0, seed=4,
        )
        positional = GQSTester().run(
            create_engine("falkordb", EngineOptions(gate_scale=0.05)),
            5.0, seed=4,
        )
        assert campaign_to_dict(keyword) == campaign_to_dict(positional)


class TestEngineSpecBridge:
    """``GraphDatabase.spec()`` is the bundle's ``engine_spec`` recipe."""

    def test_round_trip_through_options(self):
        options = EngineOptions(
            faults_enabled=False, gate_scale=0.2, execution_mode="dual"
        )
        engine = create_engine("memgraph", options)
        assert engine.name == "memgraph"
        assert engine.faults_enabled is False
        assert engine.gate_scale == 0.2
        assert engine.execution_mode == "dual"
        spec = engine.spec()
        name = spec.pop("name")
        assert create_engine(name, EngineOptions(**spec)).spec() == {
            "name": "memgraph", **spec}

    def test_pickled_field_layout_unchanged(self):
        # The spec rides inside flight-recorder bundles; its field set is
        # part of the bundle format and must not grow silently.
        spec = create_engine("neo4j", EngineOptions(gate_scale=0.3)).spec()
        assert set(spec) == {
            "name", "faults_enabled", "gate_scale", "execution_mode"
        }
