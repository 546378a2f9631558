"""Peeling substrates: support structures, the update routine and baselines."""

from .base import PeelingCounters, TipDecompositionResult
from .bup import bup_decomposition, peel_sequential
from .minheap import LazyMinHeap
from .parbutterfly import parbutterfly_decomposition
from .update import SupportUpdate, peel_batch, peel_vertex

__all__ = [
    "PeelingCounters",
    "TipDecompositionResult",
    "bup_decomposition",
    "peel_sequential",
    "LazyMinHeap",
    "parbutterfly_decomposition",
    "SupportUpdate",
    "peel_batch",
    "peel_vertex",
]
