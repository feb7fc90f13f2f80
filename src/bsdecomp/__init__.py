"""Exact-rational decomposition of Betti diagrams into pure diagrams."""

from .diagram import (
    Diagram,
    format_betti,
    format_fraction,
    parse_betti,
    parse_fraction,
    render_grid,
)
from .errors import (
    BettiFormatError,
    BsdecompError,
    EmptyColumn,
    LengthMismatch,
    NonPositiveDegree,
    NotADegreeSequence,
    NotInCone,
    NotWeaklyIncreasing,
    RequiresStrictDegrees,
    SizeExceeded,
    UnsupportedCodimension,
)
from .pure import (
    PureSum,
    check_degree_sequence,
    format_sequence,
    min_degree_sequence,
    parse_sequence,
    pure,
)
from .koszul import CIType, koszul_betti, normalize
from .greedy import EliminationTable, greedy_decompose
from .closed_forms import closed_form_decomposition, first_elimination
from .shuffle import (
    ci_shuffle_decomposition,
    multiply,
    quotient_by_regular_element,
    shuffle_count,
    shuffle_product,
    shuffles,
    tensor,
)
from .census import (
    CensusReport,
    EliminationSignature,
    run_census,
    signature_of,
)

__version__ = "0.1.0"
