"""modgrow: a framework that grows a library of executable visual-reasoning
modules from few training examples.

A symbolic program language binds module calls over images, boxes and text;
a deterministic scene-graph backend stands in for perception models; an LLM
gateway (with record/replay caching) proposes and implements new modules,
which are gated on training-derived test cases before joining the library.
"""

__version__ = "0.1.0"

from .dsl import (  # noqa: F401
    Arg,
    Diagnostic,
    ModuleSignature,
    Program,
    Statement,
    parse_program,
    parse_signature_block,
    serialize_program,
    validate_program,
)
from .executor import ExecutionResult  # noqa: F401
from .registry import Library, ModuleRecord, builtin_library, load_library, save_library  # noqa: F401
from .values import Value  # noqa: F401
