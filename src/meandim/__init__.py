"""meandim: entropy-, dimension- and rate-distortion-theoretic quantities
of Z and Z^2 subshifts under shift ultrametrics, with exactly tractable
fixture families and an end-to-end verification CLI."""

__version__ = "0.1.0"

from .errors import (EmptyLanguageError, MeandimError, NonConvergenceError,
                     NotTotallyOrderedError, ParseError, ResourceGuardError)
from .estimates import DimensionEstimate, fit_limit
from .lattice import (IntRect, LatticeSet, greedy_disjoint_subcover, lambda_count,
                      lambda_density, lambda_set, norm_ball, rect_leq, rect_triple)
from .subshift import (Alphabet, Pattern, SftSpec, alphabet,
                       base_of_row_lift, box_entropy_estimate, certificate_of,
                       count_locally_admissible, enumerate_locally_admissible,
                       full_shift, golden_mean_1d, row_interval,
                       row_lift, three_dot, transfer_matrix_entropy_1d,
                       word_count_1d)
from .dimensions import (ActionSpec, BowenTable, MetricSpec, MetricValue,
                         bowen_table, bowen_window, covering_number,
                         hausdorff_bracket_1d, metric_eval, mhdim_bounds,
                         minkowski_estimate_1d, minkowski_sequence_1d,
                         mmdim_estimate, tame_growth_check, verify_theorem)
from .information import (FiniteDistribution, JointDistribution, MeasureSpec,
                          binary_entropy, check_support, default_rdim_schedule,
                          ks_entropy, max_cylinder_log2_prob, mi_lower_bound_lemma,
                          mutual_information, mutual_information_of, parry_measure,
                          rd_lower_bound,
                          rd_upper_bound, rd_upper_limit, rdim_bounds,
                          window_entropy, window_marginal)
from .ratedistortion import (RdPoint, RdProblem, binary_hamming_problem,
                             blahut_arimoto, rd_curve, rd_problem_from_measure,
                             slope_for_hamming_distortion)
from .files import (parse_measure, parse_measure_text, parse_rects,
                    parse_rects_text, parse_sft, parse_sft_text)
from .cli import run_command
