"""Query evaluation engines: native personalities, SQL generation, SQLite."""

from .evaluator import (
    NATIVE_HASH,
    NATIVE_MERGE,
    AnswerSet,
    Engine,
    EngineFailure,
    EngineProfile,
    EngineTimeout,
    NativeEngine,
)
from .explain import EngineCostEstimator, InternalCostConstants
from .plans import PlanCompiler, PlanNode, compile_query
from .relation import Relation
from .sql import cq_to_sql, jucq_to_sql, to_sql, ucq_to_sql
from .sqlite_backend import SQLiteEngine

__all__ = [
    "AnswerSet",
    "Engine",
    "EngineCostEstimator",
    "EngineFailure",
    "EngineProfile",
    "EngineTimeout",
    "InternalCostConstants",
    "NATIVE_HASH",
    "NATIVE_MERGE",
    "NativeEngine",
    "PlanCompiler",
    "PlanNode",
    "Relation",
    "SQLiteEngine",
    "compile_query",
    "cq_to_sql",
    "jucq_to_sql",
    "to_sql",
    "ucq_to_sql",
]
