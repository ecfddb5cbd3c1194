// Training-point acquisition policies.
//
// Every policy serves the learner's one acquisition loop a round at a time:
// begin_round() scores the uncollected pool once, draw() hands out pool
// entries not yet drawn this round from the learner's serial rng, and
// accept() turns a draw the collection scheduler placed into the point to
// benchmark, before the next draw. A draw the scheduler could not place is
// dropped: its candidate stays in the pool for the next round.
//
//  * AcclaimAcquisition — the paper's contribution (§IV-A/§IV-B): jackknife
//    variance on the *primary* model's own trees scores the pool; every
//    `nonp2_cadence`-th accepted pick swaps the point's message size for a
//    random non-P2 size adjacent to it (80-20 split).
//  * SurrogateAcquisition — the FACT baseline (§III-A): a *second*,
//    independently trained forest (standing in for the DeepHyper surrogate)
//    is retrained on everything collected so far and its own jackknife
//    variance scores the pool; the primary model never informs it.
//  * RandomAcquisition — Hunold-style random sampling, also the ablation
//    contrast that isolates the value of variance-guided selection.
#pragma once

#include <memory>
#include <vector>

#include "core/env.hpp"
#include "core/model.hpp"

namespace acclaim::core {

/// How a variance-guided policy turns per-candidate variances into a pick.
///
/// The paper states "select the point with highest variance" (Argmax). On
/// our simulated machine the measured response surface has sharper cliffs
/// than Theta's, and pure argmax exhibits the classic noise-chasing failure:
/// it drills into intrinsically rough regions and starves the rest of the
/// space. WeightedSampling draws the next point with probability
/// proportional to its variance — the same signal, robust to roughness —
/// and is the default; Argmax remains available for the ablation bench.
/// (See DESIGN.md "deviations".)
enum class VariancePick { WeightedSampling, Argmax };

/// Strategy interface. The learner starts each round with begin_round(),
/// pulls draws for the scheduler, accepts the ones it placed, and reports
/// every measurement through observe() so stateful policies (the surrogate)
/// can learn.
class AcquisitionPolicy {
 public:
  virtual ~AcquisitionPolicy() = default;

  struct Pick {
    std::size_t pool_index = 0;          ///< candidate consumed from the pool
    bench::BenchmarkPoint point;         ///< point to actually benchmark
  };

  /// Starts a round over a pool of candidate ids: `pool[i]` is row
  /// `pool[i]` of `grid`, the encoded candidates (FeatureSpace::grid), and
  /// entry `pool[i]` of `candidates` (FeatureSpace::candidates). All three
  /// must stay unchanged until the round's last accept(). Scores every pool
  /// entry once by its row's jackknife variance, or none when the policy
  /// draws uniformly (random sampling, an untrained scoring model).
  /// `model_variances`, when not empty, holds `model`'s variance of every
  /// row of `grid`, from a sweep the caller already ran under it; a policy
  /// that scores with `model` itself reads its pool's entries there instead
  /// of sweeping again. Otherwise the policy sweeps the grid with its
  /// scoring model and keeps that sweep until the model's forest or the
  /// grid changes, so FACT's surrogate is swept once per training.
  void begin_round(const CollectiveModel& model, const ml::ProductGrid& grid,
                   const std::vector<bench::BenchmarkPoint>& candidates,
                   const std::vector<std::size_t>& pool,
                   const std::vector<double>& model_variances = {});

  /// Draws a pool index not yet drawn this round: with probability ∝ score
  /// (WeightedSampling), the top score (Argmax), or uniformly when the round
  /// has no scores. Requires an undrawn entry.
  std::size_t draw(util::Rng& rng);

  /// The point to benchmark for a placed draw: every nonp2_cadence-th
  /// accepted pick is swapped to a non-P2 size near its own (§IV-B). Counts
  /// the pick and emits its point_acquired event and Acquisition record.
  bench::BenchmarkPoint accept(std::size_t pool_index, TuningEnvironment& env, util::Rng& rng);

  /// A round of one: begin_round(), draw(), accept().
  Pick next(const CollectiveModel& model, const ml::ProductGrid& grid,
            const std::vector<bench::BenchmarkPoint>& candidates,
            const std::vector<std::size_t>& pool, TuningEnvironment& env, util::Rng& rng);

  virtual void observe(const bench::BenchmarkPoint& point, double time_us);

  virtual const char* name() const = 0;

 protected:
  AcquisitionPolicy(VariancePick pick, int nonp2_cadence);

 private:
  /// The model whose jackknife variances score this round, given the
  /// learner's primary model; nullptr draws uniformly.
  virtual const CollectiveModel* scorer(const CollectiveModel& primary) = 0;

  VariancePick pick_;
  int nonp2_cadence_;
  int picks_ = 0;  ///< accepted picks over the policy's life (the cadence counter)
  // The current round.
  const std::vector<bench::BenchmarkPoint>* candidates_ = nullptr;
  const std::vector<std::size_t>* pool_ = nullptr;
  std::vector<double> var_;        ///< per-entry scores; empty = uniform draws
  std::vector<std::size_t> left_;  ///< entries not yet drawn, ascending
  std::int64_t sweep_evals_ = 0;   ///< the round's scoring, charged to its first record
  // The policy's own last sweep: a copy of the model swept (it shares the
  // swept forest), the grid, and the variances.
  CollectiveModel swept_model_;
  ml::ProductGrid swept_grid_;
  std::vector<double> swept_var_;
};

class RandomAcquisition final : public AcquisitionPolicy {
 public:
  RandomAcquisition() : AcquisitionPolicy(VariancePick::WeightedSampling, 0) {}
  const char* name() const override { return "random"; }

 private:
  const CollectiveModel* scorer(const CollectiveModel&) override { return nullptr; }
};

struct AcclaimAcquisitionConfig {
  /// Every n-th pick becomes a non-P2 message-size variant; 5 gives the
  /// paper's 80-20 split, 0 disables non-P2 sampling entirely.
  int nonp2_cadence = 5;
  VariancePick pick = VariancePick::WeightedSampling;
};

class AcclaimAcquisition final : public AcquisitionPolicy {
 public:
  explicit AcclaimAcquisition(AcclaimAcquisitionConfig config = {})
      : AcquisitionPolicy(config.pick, config.nonp2_cadence) {}
  const char* name() const override { return "acclaim-jackknife"; }

 private:
  const CollectiveModel* scorer(const CollectiveModel& primary) override {
    return primary.trained() ? &primary : nullptr;
  }
};

struct SurrogateAcquisitionConfig {
  ml::ForestParams surrogate = default_forest_params();
  /// Retrain the surrogate after this many new observations (1 = every
  /// iteration, matching FACT; larger values trade fidelity for speed in
  /// long traces).
  int refresh_every = 1;
};

/// FACT is modeled as published: DeepHyper hands back the maximizer of its
/// acquisition, so the surrogate's pick is always the Argmax (unlike
/// ACCLAiM's weighted adaptation — see DESIGN.md deviations).
class SurrogateAcquisition final : public AcquisitionPolicy {
 public:
  SurrogateAcquisition(coll::Collective c, std::uint64_t seed,
                       SurrogateAcquisitionConfig config = {});

  void observe(const bench::BenchmarkPoint& point, double time_us) override;
  const char* name() const override { return "fact-surrogate"; }

  /// Number of times the surrogate has been (re)trained — FACT's structural
  /// overhead, visible to the benches.
  int surrogate_trainings() const noexcept { return trainings_; }

 private:
  /// Refreshes the surrogate; the primary model is deliberately unused:
  /// FACT's selections are blind to the model they serve (§III-A).
  const CollectiveModel* scorer(const CollectiveModel& primary) override;

  CollectiveModel surrogate_;
  std::vector<LabeledPoint> seen_;
  SurrogateAcquisitionConfig config_;
  std::uint64_t seed_;
  int since_refresh_ = 0;
  int trainings_ = 0;
};

}  // namespace acclaim::core
