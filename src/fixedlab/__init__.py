"""fixedlab: an empirical laboratory for averaged fixed-point iteration.

The package has three layers:

  geometry    vecspace (domains, norms, deterministic sampling) and
              mappings (registered self-maps, families, commuting checks)
  analysis    conditions (sampled nonexpansiveness-type checks and the
              two-parameter sweep) and schedules (blend-weight sequences)
  experiments iterate (the averaged iteration engines and trace
              diagnostics) and harness (the JSON-config CLI, the only
              module that reads configs)

Everything is deterministic: grid sampling is lexicographic, random
sampling is seeded, and every engine records enough per step that a trace
can be replayed and re-verified offline.
"""

from .errors import (ConfigError, ContractViolation, DomainError,
                     FixedLabError, InvalidInputError, InvariantError,
                     IterationRuntimeError, PreconditionError)
from .vecspace import (Domain, NormKind, SamplePlan, Vector, as_vector,
                       convex_combination, dist, norm, pairwise_norm, sample)
from .verdicts import Verdict, Witness
from .mappings import (GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT,
                       GALLERY_BALL, GALLERY_BOX, Mapping, MappingFamily,
                       affine_map, builtin_gallery,
                       check_commuting, common_fixed_points, compose,
                       constant_map, evaluate, example1_map, identity_map,
                       make_family, piecewise_map, register_mapping,
                       rotation_scaling_map, scaling_map, translation_map)
from .conditions import (BGammaMu, SweepCell, SweepTable, check_condition_B,
                         check_condition_C, check_condition_C_lambda,
                         check_lemma3, check_nonexpansive, check_prop1,
                         check_quasi_nonexpansive, sweep_condition_B)
from .schedules import (DEFAULT_TENT, AlphaSchedule, ConstantSchedule,
                        DecaySchedule, ScheduleReport, TentSchedule,
                        verify_schedule)
from .iterate import (GapReport, IterationConfig, Trace, TraceStep,
                      asymptotic_radius, goebel_kirk_gap, krasnoselskii_run,
                      monotone_distance_check, multi_map_run,
                      multi_map_weights, replay_trace,
                      residual_vanishes_check, trace_to_csv,
                      truncated_family_run, truncated_weights)
from .harness import (ExperimentConfig, build_mapping, load_config, main,
                      run_command)

__version__ = "0.1.0"
