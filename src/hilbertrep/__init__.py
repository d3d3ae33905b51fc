"""Hilbert spacefilling curve through four cross-verified representations.

The same curve is computed four ways: by expanding the stage recurrence
(oracle), by a base-4 automaton with per-state outputs that maps digit
strings to letters (dfao), by exact rational linear representations of
the coordinate sequence (linrep), and by a lockstep automaton relating
the base-4 index to base-2 coordinates (sync).  The verify module replays
the defining identities and space-filling properties as bounded
exhaustive checks, and bitmap renders stage images from the automatic
bitmap, a two-dimensional automaton derived from the sync machine.

Importing the package loads none of its modules: an exported name loads
its defining module on first use (PEP 562), so a command loads only what it runs.
"""

from importlib import import_module

# defining module -> the names the package exports from it
_EXPORTS = {
    "bitmap": (
        "Bitmap",
        "bitmap_dfao",
        "render_from_walk",
        "render_generation",
        "render_pbm",
        "write_pbm",
    ),
    "dfao": (
        "Dfao",
        "coords_by_letters",
        "dfao_equal",
        "dfao_from_text",
        "dfao_to_text",
        "dfao_walk",
        "eval_dfao",
        "eval_dfao_digits",
        "from_base",
        "hilbert_dfao",
        "to_base",
    ),
    "linrep": (
        "GuessedLinearRep",
        "InsufficientDataError",
        "LinearRep",
        "NonFunctionalTransducerError",
        "StateBudgetExceededError",
        "Transducer",
        "difference_rep",
        "eval_linrep",
        "eval_linrep_digits",
        "guess_linrep",
        "hilbert_linrep",
        "hilbert_step_rep",
        "increment_transducer",
        "linrep_from_text",
        "linrep_to_text",
        "linrep_walk",
        "minimize_rep",
        "semigroup_trick",
        "transduce_rep",
        "transducer_outputs",
    ),
    "oracle": (
        "DEFAULT_MAX_GENERATION",
        "Coding",
        "Direction",
        "GenerationBudgetError",
        "NegativeCoordinateError",
        "Point",
        "STEP",
        "apply_coding",
        "generate_generation",
        "hc_prefix",
        "recode",
        "walk",
        "word_from_str",
        "word_to_str",
    ),
    "sync": (
        "MultipleAcceptingPathsError",
        "NoAcceptingPathError",
        "SyncAutomaton",
        "accepts",
        "hilbert_sync",
        "lookup_paths",
        "sync_coords",
        "sync_from_text",
        "sync_locate",
        "sync_locate_walk",
        "sync_to_text",
        "sync_walk",
    ),
    "textfmt": ("ParseError",),
    "verify": ("VerifyReport", "format_report", "verify_cross", "verify_identities",
               "verify_sync_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
