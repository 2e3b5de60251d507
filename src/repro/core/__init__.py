"""DESKS core: the direction-aware index and its search algorithms."""

from .bruteforce import brute_force_search
from .dynamic import MutableDesksIndex
from .estimate import CardinalityEstimator
from .incremental import CachedAnswer, IncrementalSearcher
from .index import (
    AnchorIndex,
    DesksIndex,
    recommended_bands,
    recommended_wedges,
)
from .persistence import (
    MissingPersistenceFile,
    PersistenceError,
    SavedScrubReport,
    load_index,
    load_sharded,
    repair_interrupted_swap,
    save_index,
    save_sharded,
    scrub_saved,
)
from .mindist import (
    BasicQueryGeometry,
    annulus_mindist,
    band_mindist,
    basic_geometry,
    polar_point,
    subregion_mindist,
)
from .query import DirectionalQuery, MatchMode, QueryResult, ResultEntry
from .regions import AnchorRegions, Band, Subregion
from .search import DesksSearcher, PruningMode, SupportsExpired
from .stores import (
    CompressedDiskKeywordStore,
    DiskKeywordStore,
    MemoryKeywordStore,
    build_term_layout,
)

__all__ = [
    "AnchorIndex",
    "AnchorRegions",
    "Band",
    "BasicQueryGeometry",
    "CachedAnswer",
    "CardinalityEstimator",
    "CompressedDiskKeywordStore",
    "DesksIndex",
    "DesksSearcher",
    "DirectionalQuery",
    "DiskKeywordStore",
    "IncrementalSearcher",
    "MatchMode",
    "MemoryKeywordStore",
    "MissingPersistenceFile",
    "MutableDesksIndex",
    "PersistenceError",
    "PruningMode",
    "SavedScrubReport",
    "QueryResult",
    "ResultEntry",
    "Subregion",
    "SupportsExpired",
    "annulus_mindist",
    "band_mindist",
    "basic_geometry",
    "brute_force_search",
    "load_index",
    "load_sharded",
    "repair_interrupted_swap",
    "save_index",
    "save_sharded",
    "scrub_saved",
    "build_term_layout",
    "polar_point",
    "recommended_bands",
    "recommended_wedges",
    "subregion_mindist",
]
