"""Simulated GDBs under test: dialects, fault injection, engines."""

from repro.gdb.catalog import all_faults, build_catalog, faults_for, gqs_scope_faults
from repro.gdb.dialects import DIALECTS, FALKORDB, KUZU, MEMGRAPH, NEO4J, Dialect
from repro.gdb.engines import (
    ALL_ENGINE_NAMES,
    EngineOptions,
    FalkorDBSim,
    GraphDatabase,
    KuzuSim,
    MemgraphSim,
    Neo4jSim,
    ReferenceGDB,
    create_engine,
)
from repro.gdb.faults import Fault, FaultEffect, QueryFeatures, extract_features

__all__ = [
    "Dialect",
    "DIALECTS",
    "NEO4J",
    "MEMGRAPH",
    "KUZU",
    "FALKORDB",
    "GraphDatabase",
    "Neo4jSim",
    "MemgraphSim",
    "KuzuSim",
    "FalkorDBSim",
    "ReferenceGDB",
    "EngineOptions",
    "create_engine",
    "ALL_ENGINE_NAMES",
    "Fault",
    "FaultEffect",
    "QueryFeatures",
    "extract_features",
    "all_faults",
    "build_catalog",
    "faults_for",
    "gqs_scope_faults",
]
