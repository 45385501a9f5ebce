"""spanex: compile capture regexes, variable-set automata and spanner
algebra expressions into a deterministic sequential extended automaton,
then enumerate or count the output mappings of a document with linear
preprocessing and constant-delay, duplicate-free streaming.
"""

from .algebra import (
    AlgebraExpr,
    Atom,
    Join,
    Project,
    Union,
    compile_expr,
    compile_spanner,
    join_eva,
    parse_expr,
    project_eva,
    union_eva_deterministic,
    union_eva_linear,
)
from .automata import (
    EVA,
    VA,
    ClassificationReport,
    automaton_json,
    brute_enumerate_va,
    classify,
    dump_automaton,
    load_automaton,
)
from .counting import count_det_seva
from .engine import (
    DagNode,
    EvaluationState,
    NodeList,
    enumerate_raw,
    enumerate_stream,
    evaluate_preprocess,
    measure_delay,
)
from .errors import (
    ClassificationTooLarge,
    FormatError,
    InputError,
    PreconditionError,
    RegexSyntaxError,
    SpanexError,
)
from .instrument import DelayReport, OpCounter
from .model import Document, Mapping, Marker, Span
from .rgx import RegexAst, parse_rgx, rgx_eval_reference, rgx_to_va
from .transform import (
    bisimulation_quotient,
    determinize_eva,
    functional_eva,
    functional_va_to_det_seva,
    trim,
    va_to_det_seva_general,
    va_to_eva,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
