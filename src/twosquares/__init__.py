"""Sums of two squares: sieves, residue statistics, singular series,
Selberg-Delange constants, conjectural predictions and table reproduction."""

from .constants import ConstantsBundle, build_bundle, landau_ramanujan
from .errors import AccuracyError, ArgumentError, ResourceError, TwoSquaresError
from .predictors import (PredictorContext, ap_prediction, asymptotic_S,
                         hl_pair_prediction, landau_refined, make_context,
                         pair_conjecture, pipeline_D012, tuple_conjecture)
from .quadrature import (QuadratureConfig, integral_S, integral_count,
                         integral_ktuple_average)
from .sieve import count_up_to, is_sum_of_two_squares
from .singular import (ck_singular_series, ms_sum, singular_series_general,
                       weighted_sum_S)
from .tables import reproduce_table

__version__ = "1.0.0"

__all__ = [
    "AccuracyError", "ArgumentError", "ConstantsBundle", "PredictorContext",
    "QuadratureConfig", "ResourceError", "TwoSquaresError", "__version__",
    "ap_prediction", "asymptotic_S", "build_bundle", "ck_singular_series",
    "count_up_to", "hl_pair_prediction", "integral_S", "integral_count",
    "integral_ktuple_average", "is_sum_of_two_squares", "landau_ramanujan",
    "landau_refined", "make_context", "ms_sum", "pair_conjecture",
    "pipeline_D012", "reproduce_table", "singular_series_general",
    "tuple_conjecture", "weighted_sum_S",
]
