"""Sampling and counting zero-one multiway contingency tables with all
(d-1)-way marginal sums fixed.

Proposals are built column by column from conditional Poisson draws whose
weights come from the residual margins, interleaved with structure
detection (cells pinned by the margins alone).  Importance weights 1/q
estimate the number of tables; an exact depth-first enumerator covers desk
scale for validation.
"""

from .cpdist import CPInfeasibleError, cp_draft_sample, cp_log_pmf
from .estimator import (
    BootstrapCI,
    EstimateReport,
    bootstrap_ci,
    cv_squared,
    estimate_log_count,
    estimate_table_count,
    format_count_from_log,
    summarize,
)
from .expand import PathExpansion, expand_paths
from .fixtures import fixture, fixture_names, semimagic_margins
from .layers import WalkOptionError
from .marginfile import (
    MarginalFileError,
    format_marginals,
    parse_marginal_file,
    parse_marginal_text,
    write_marginal_file,
)
from .oracle import EnumerationBudgetError, exact_count, exact_enumerate
from .sis import SisConfig, draw_accepted_tables, run_sis, sample_table
from .tables import (
    BinaryTable,
    CPTablesError,
    Dims,
    InvariantError,
    MarginalSet,
    MarginalValidationError,
    SampleOutcome,
    marginals3,
    marginals_of,
    permute_marginal_axes,
    validate_marginals,
)
from .ucinet import RelationStack, UcinetFormatError, parse_ucinet_dl, parse_ucinet_dl_text

__version__ = "0.1.0"

__all__ = [
    "BinaryTable",
    "BootstrapCI",
    "CPInfeasibleError",
    "CPTablesError",
    "Dims",
    "EnumerationBudgetError",
    "EstimateReport",
    "InvariantError",
    "MarginalFileError",
    "MarginalSet",
    "MarginalValidationError",
    "PathExpansion",
    "RelationStack",
    "SampleOutcome",
    "SisConfig",
    "UcinetFormatError",
    "WalkOptionError",
    "bootstrap_ci",
    "cp_draft_sample",
    "cp_log_pmf",
    "cv_squared",
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
    "marginals3",
    "marginals_of",
    "parse_marginal_file",
    "parse_marginal_text",
    "parse_ucinet_dl",
    "parse_ucinet_dl_text",
    "permute_marginal_axes",
    "run_sis",
    "sample_table",
    "semimagic_margins",
    "summarize",
    "validate_marginals",
    "write_marginal_file",
]
