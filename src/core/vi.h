#ifndef CPA_CORE_VI_H_
#define CPA_CORE_VI_H_

/// \file vi.h
/// \brief Offline variational inference for the CPA model (Algorithm 1).
///
/// Coordinate ascent on the mean-field ELBO: local responsibilities
/// (κ per worker — Eq. 2, ϕ per item — Eq. 3 with the answer-evidence term
/// restored, DESIGN.md §4.1), then the global stick/Dirichlet parameters
/// (Eqs. 4–7), then the unsupervised label evidence ỹ (DESIGN.md §4.2).
///
/// `FitCpa` is the orchestration loop only; the sweep bodies live in
/// `core/sweep/` (shared with the SVI local phase of svi.h): the kernels in
/// `core/sweep/sweep_kernels.h` run over a flat `AnswerView`
/// (`core/sweep/answer_view.h`) and are sharded across the `Executor` by
/// a `SweepScheduler` (`core/sweep/sweep_scheduler.h`). Both the local MAP
/// phase and the global REDUCE accumulations are parallel and bit-identical
/// for any thread count.

#include <cstddef>
#include <vector>

#include "core/cpa_model.h"
#include "data/answer_matrix.h"
#include "data/label_set.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cpa {

/// \brief Diagnostics of a fit.
struct FitStats {
  std::size_t iterations = 0;
  /// The last sweep's change max(max|Δκ|, max|Δϕ|) over every entry — the
  /// statistic compared against `CpaOptions::tolerance`. The ϕ part is
  /// reported by the ϕ writers row by row, yet equals the dense
  /// max |ϕ_new − ϕ_old| over the whole I×T matrix bit for bit.
  double final_change = 0.0;
  bool converged = false;

  /// Wall-clock seconds of the prediction phase behind this solution's
  /// labels (`PredictLabels` for offline solves, the snapshot predict for
  /// the online learner); 0 when no prediction ran. Fig 7 reports it as
  /// the `prediction_ms` column.
  double prediction_seconds = 0.0;

  /// ELBO after each sweep (filled only when requested — the trace costs
  /// one extra data pass per sweep).
  std::vector<double> elbo_trace;
};

/// \brief Options of a single Fit call that are not model properties.
struct FitOptions {
  /// Observed true labels (semi-supervised setting); nullptr for the
  /// paper's fully unsupervised y = ∅.
  const std::vector<LabelSet>* observed_truth = nullptr;

  /// Pool for the parallel sweeps; nullptr = sequential. Results are
  /// bit-identical either way (see core/sweep/sweep_scheduler.h).
  Executor* pool = nullptr;

  /// Record the ELBO after every sweep into `FitStats::elbo_trace`.
  bool track_elbo = false;
};

/// \brief Fits the CPA model to `answers` by offline VI.
Result<CpaModel> FitCpa(const AnswerMatrix& answers, std::size_t num_labels,
                        const CpaOptions& options, const FitOptions& fit = {},
                        FitStats* stats = nullptr);

}  // namespace cpa

#endif  // CPA_CORE_VI_H_
