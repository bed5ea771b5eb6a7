"""Rich nowhere-zero flows on multigraphs: constructive synthesis with full
verification, plus independent exact brute-force oracles.

The package exports README's library entry points and the types and errors
they take or return; everything else is imported from its submodule.
"""

from .errors import (
    AdmissibilityError,
    BudgetExhaustedError,
    GraphInputError,
    InternalDefectError,
    PreconditionError,
)
from .multigraph import AdmissibilityVerdict, Multigraph, is_rich_flow_admissible, parse_multigraph
from .flowalg import AdjacentPair, Flow, GroupTag
from .seymour import flow_avoiding_confluence, nowhere_zero_z6
from .synthesis import (
    BuildingPhiResult,
    RichFlowCertificate,
    RichModFlowResult,
    building_phi,
    rich_mod_flow,
    synthesize_rich_flow,
)
from .oracle import (
    ExactResult,
    SearchBudget,
    brute_force_flow,
    chromatic_index,
    exact_rich_flow_number,
)

__version__ = "0.1.0"
