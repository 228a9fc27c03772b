"""The design-choice study: configurations, runner, tables and figures."""

from .collectives import coll_study, format_coll_study
from .configs import CONFIGS, ExperimentConfig, config
from .experiment import ExperimentRunner, run_families
from .figures import (
    FIGURE3_APPS,
    FIGURE4_PAPER_IMPROVEMENT,
    figure3,
    figure4_du_au,
    figure4_svm,
    format_figure3,
    format_figure4_du_au,
    format_figure4_svm,
)
from .largemesh import format_largemesh_study, largemesh_study
from .micro import format_micro_study, micro_study
from .platforms import (
    myrinet_nic_config,
    myrinet_params,
    shrimp_nic_config,
    shrimp_params,
)
from .reliability import (
    DROP_PLANS,
    au_loss_run,
    du_reliability_run,
    format_reliability_study,
    reliability_study,
)
from .report import format_series, format_table
from .serving import format_serving_study, serving_study
from .suite import SUITE, SVM_PARAMS, AppSpec, spec
from .tables import (
    TABLE2_PAPER,
    TABLE3_PAPER,
    TABLE4_PAPER,
    combining_study,
    fifo_study,
    format_combining_study,
    format_fifo_study,
    format_queueing_study,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    queueing_study,
    table1,
    table2,
    table3,
    table4,
)

__all__ = [
    "ExperimentConfig",
    "CONFIGS",
    "config",
    "ExperimentRunner",
    "run_families",
    "AppSpec",
    "SUITE",
    "SVM_PARAMS",
    "spec",
    "table1",
    "table2",
    "table3",
    "table4",
    "combining_study",
    "fifo_study",
    "queueing_study",
    "reliability_study",
    "format_reliability_study",
    "serving_study",
    "format_serving_study",
    "coll_study",
    "format_coll_study",
    "largemesh_study",
    "format_largemesh_study",
    "du_reliability_run",
    "au_loss_run",
    "DROP_PLANS",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table4",
    "format_combining_study",
    "format_fifo_study",
    "format_queueing_study",
    "figure3",
    "figure4_svm",
    "figure4_du_au",
    "format_figure3",
    "format_figure4_svm",
    "format_figure4_du_au",
    "FIGURE3_APPS",
    "FIGURE4_PAPER_IMPROVEMENT",
    "TABLE2_PAPER",
    "TABLE3_PAPER",
    "TABLE4_PAPER",
    "micro_study",
    "format_micro_study",
    "shrimp_params",
    "shrimp_nic_config",
    "myrinet_params",
    "myrinet_nic_config",
    "format_table",
    "format_series",
]
