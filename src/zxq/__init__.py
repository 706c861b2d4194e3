"""zxq: a ZX-diagram engine.

Diagrams are open multigraphs of phased spiders and Hadamard boxes,
evaluated to complex matrices by tensor contraction and rewritten by a
library of local rules, all checked up to a nonzero scalar against the
gate-matrix oracle.
"""

from .circuits import (
    Circuit,
    Gate,
    RelationFixture,
    circuit_matrix,
    circuit_to_diagram,
    format_circuit,
    gate_matrix,
    parse_circuit,
    selinger_bian_fixtures,
)
from .diagram import (
    Diagram,
    InvalidDiagramError,
    Signature,
    VertexKind,
    cap_diagram,
    cup_diagram,
    empty_diagram,
    hadamard_diagram,
    identity_diagram,
    spider_diagram,
)
from .diagram_io import deserialize, load, save, serialize
from .harness import (
    VerificationReport,
    random_clifford_t_circuit,
    verify_p_formulas,
    verify_relations,
    verify_rules,
)
from .phase import Phase
from .phase_algebra import (
    EulerTriple,
    GeneralPhaseTriple,
    SingularConfiguration,
    SwapSolution,
    euler_xzx_extract,
    generalized_color_swap,
    p_rule_angles,
)
from .rewrite import (
    RULES,
    RewriteRule,
    RewriteTrace,
    simplify,
)
from .semantics import (
    ResourceLimitError,
    ScalarVerdict,
    equal_up_to_scalar,
    evaluate,
    matrix_to_text,
)

__version__ = "0.1.0"
