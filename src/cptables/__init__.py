"""Sampling and counting zero-one multiway contingency tables with all
(d-1)-way marginal sums fixed.

Proposals are built column by column from conditional Poisson draws whose
weights come from the residual margins, interleaved with structure
detection (cells pinned by the margins alone).  Importance weights 1/q
estimate the number of tables; an exact depth-first enumerator covers desk
scale for validation.
"""

from .cpdist import (
    CPInfeasibleError,
    CPSample,
    cp_draft_sample,
    cp_log_pmf,
    log_esym,
    log_esym_table,
    odds,
    success_prob_3way,
    success_prob_multiway,
)
from .estimator import (
    BootstrapCI,
    EstimateReport,
    bootstrap_ci,
    cv_squared,
    estimate_log_count,
    estimate_table_count,
    format_count_from_log,
    percentile_nearest_rank,
    summarize,
)
from .expand import PathExpansion, expand_paths
from .fixtures import fixture, fixture_names, semimagic_margins
from .layers import descending_order, line_weights, sample_layer
from .marginfile import (
    MarginalFileError,
    format_marginals,
    parse_marginal_file,
    parse_marginal_text,
    write_marginal_file,
)
from .oracle import EnumerationBudgetError, exact_count, exact_enumerate
from .reduction import (
    ReducedProblem,
    StructurallyInfeasibleError,
    TableState,
    detect_structures,
    structural_zero_count,
)
from .sis import SisConfig, draw_accepted_tables, run_sis, sample_table3, sample_table_d
from .tables import (
    BinaryTable,
    CPTablesError,
    Dims,
    InvariantError,
    MarginalSet,
    MarginalValidationError,
    SampleOutcome,
    StructureMasks,
    marginals3,
    marginals_of,
    permute_marginal_axes,
    permute_table_axes,
    validate_marginals,
)
from .ucinet import RelationStack, UcinetFormatError, parse_ucinet_dl, parse_ucinet_dl_text

__version__ = "0.1.0"

__all__ = [
    "BinaryTable",
    "BootstrapCI",
    "CPInfeasibleError",
    "CPSample",
    "CPTablesError",
    "Dims",
    "EnumerationBudgetError",
    "EstimateReport",
    "InvariantError",
    "MarginalFileError",
    "MarginalSet",
    "MarginalValidationError",
    "PathExpansion",
    "ReducedProblem",
    "RelationStack",
    "SampleOutcome",
    "SisConfig",
    "StructurallyInfeasibleError",
    "StructureMasks",
    "TableState",
    "UcinetFormatError",
    "bootstrap_ci",
    "cp_draft_sample",
    "cp_log_pmf",
    "cv_squared",
    "descending_order",
    "detect_structures",
    "draw_accepted_tables",
    "estimate_log_count",
    "estimate_table_count",
    "exact_count",
    "exact_enumerate",
    "expand_paths",
    "fixture",
    "fixture_names",
    "format_count_from_log",
    "format_marginals",
    "line_weights",
    "log_esym",
    "log_esym_table",
    "marginals3",
    "marginals_of",
    "odds",
    "parse_marginal_file",
    "parse_marginal_text",
    "parse_ucinet_dl",
    "parse_ucinet_dl_text",
    "percentile_nearest_rank",
    "permute_marginal_axes",
    "permute_table_axes",
    "run_sis",
    "sample_layer",
    "sample_table3",
    "sample_table_d",
    "semimagic_margins",
    "structural_zero_count",
    "success_prob_3way",
    "success_prob_multiway",
    "summarize",
    "validate_marginals",
    "write_marginal_file",
]
