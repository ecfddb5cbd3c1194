// Tuning environments: where benchmark measurements come from and how their
// collection time is accounted.
//
// The paper uses two settings (Fig. 1):
//  (a) simulated experiments that look results up in a precollected dataset
//      (DatasetEnvironment), charging the recorded collection cost, and
//  (b) production runs that execute microbenchmarks inside the job's
//      allocation (LiveEnvironment), optionally several in parallel on
//      disjoint machine regions (§IV-D).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "benchdata/dataset.hpp"
#include "benchdata/microbenchmark.hpp"
#include "benchdata/point.hpp"
#include "simnet/allocation.hpp"
#include "simnet/network.hpp"
#include "simnet/topology.hpp"
#include "util/rng.hpp"

namespace acclaim::core {

/// One benchmark placed at a node offset within the job allocation (the
/// output of the topology-aware CollectionScheduler).
struct ScheduledBenchmark {
  bench::BenchmarkPoint point;
  int first_node = 0;  ///< index into the job allocation's node list
};

/// Abstract measurement source with a collection-time clock.
class TuningEnvironment {
 public:
  virtual ~TuningEnvironment() = default;

  /// Benchmarks one point and advances the collection clock by its cost.
  virtual bench::Measurement measure(const bench::BenchmarkPoint& point) = 0;

  /// Runs a pre-placed batch concurrently if the environment supports it;
  /// the clock advances by the batch *makespan*, not the cost sum. The
  /// default implementation measures sequentially.
  virtual std::vector<bench::Measurement> measure_scheduled(
      const std::vector<ScheduledBenchmark>& batch);

  /// Accumulated collection time in seconds.
  double clock_s() const noexcept { return clock_s_; }
  void reset_clock() noexcept { clock_s_ = 0.0; }

  /// A measurable non-power-of-two message size whose closest P2 value is
  /// `p2_anchor` (§IV-B), or nullopt if the environment has none.
  virtual std::optional<std::uint64_t> nonp2_msg_near(std::uint64_t p2_anchor,
                                                      util::Rng& rng) = 0;

  /// Topology/allocation context for the parallel-collection scheduler;
  /// nullptr when the environment cannot co-schedule (dataset lookups).
  virtual const simnet::Topology* topology() const { return nullptr; }
  virtual const simnet::Allocation* allocation() const { return nullptr; }

 protected:
  void charge_s(double seconds) { clock_s_ += seconds; }

 private:
  double clock_s_ = 0.0;
};

/// Fig. 1(a): measurements come from a precollected dataset.
class DatasetEnvironment final : public TuningEnvironment {
 public:
  explicit DatasetEnvironment(const bench::Dataset& dataset);

  bench::Measurement measure(const bench::BenchmarkPoint& point) override;
  std::optional<std::uint64_t> nonp2_msg_near(std::uint64_t p2_anchor,
                                              util::Rng& rng) override;

  const bench::Dataset& dataset() const noexcept { return dataset_; }

 private:
  const bench::Dataset& dataset_;
  // Message sizes per collective, cached sorted. Ordered map: the non-P2
  // candidate pool is built by iterating this container, so its traversal
  // order must not depend on hashing (det-unordered-iter).
  std::map<int, std::vector<std::uint64_t>> msgs_;
};

/// Fig. 1(b): measurements execute on the simulated machine inside the job's
/// allocation; co-scheduled batches run concurrently on the simulated clock
/// and interfere when they share racks or pairs.
///
/// The host simulates a batch's microbenchmarks one after another, in batch
/// order. Measurement noise comes from counter-derived per-measurement
/// streams (Rng::stream over a serial measurement sequence number), so a
/// batch consumes exactly the streams its items would have consumed if
/// measured one by one.
class LiveEnvironment final : public TuningEnvironment {
 public:
  /// The environment references `topo` and `alloc`; both must outlive it.
  /// `job_seed` fixes this job's network realization and noise streams.
  LiveEnvironment(const simnet::Topology& topo, const simnet::Allocation& alloc,
                  std::uint64_t job_seed);

  bench::Measurement measure(const bench::BenchmarkPoint& point) override;
  std::vector<bench::Measurement> measure_scheduled(
      const std::vector<ScheduledBenchmark>& batch) override;
  std::optional<std::uint64_t> nonp2_msg_near(std::uint64_t p2_anchor,
                                              util::Rng& rng) override;

  const simnet::Topology* topology() const override { return &topo_; }
  const simnet::Allocation* allocation() const override { return &alloc_; }
  const simnet::NetworkModel& network() const noexcept { return net_; }

  /// Deterministic predicted solo runtime of one placed benchmark (the
  /// schedule priced against this job's network, no noise, no launch cost).
  double predicted_solo_us(const ScheduledBenchmark& item) const;

 private:
  const simnet::Topology& topo_;
  const simnet::Allocation& alloc_;
  simnet::NetworkModel net_;
  bench::Microbenchmark mb_;
  std::uint64_t noise_seed_ = 0;
  /// Serial measurement sequence number: the next measurement's noise
  /// stream id.
  std::uint64_t measure_seq_ = 0;
};

}  // namespace acclaim::core
