// Collective operations, their algorithms, and the registry.
//
// The four most popular collectives from Chunduri et al. (the paper's §II-A)
// — allgather, allreduce, bcast, reduce — carry the paper's ten MPICH-style
// algorithms:
//   bcast:     binomial, scatter_recursive_doubling_allgather,
//              scatter_ring_allgather
//   reduce:    binomial, reduce_scatter_gather
//   allreduce: recursive_doubling, reduce_scatter_allgather (Rabenseifner)
//   allgather: ring, recursive_doubling, bruck
// The library additionally implements the rest of the MPICH family —
// gather, scatter, alltoall, reduce_scatter_block, barrier — so the
// registry-driven autotuner covers the full collective set a production MPI
// exposes ("MPI libraries sport a growing set of algorithms", §I):
//   gather:    binomial, linear
//   scatter:   binomial, linear
//   alltoall:  bruck, pairwise
//   reduce_scatter_block: recursive_halving, pairwise
//   barrier:   dissemination, recursive_doubling
//
// Buffer conventions (what DataExecutor must initialize / check; `n` =
// nranks, `count` elements of `type_size` bytes):
//   bcast:     payload in Recv (root holds it; all ranks end with it)
//   reduce:    input in Send on all ranks; result in Recv at root
//   allreduce: input in Send; result in Recv on all ranks
//   allgather: input in Send (count); result in Recv (n*count); bruck also
//              uses Tmp (n*count)
//   gather:    input in Send (count); result in root's Recv (n*count,
//              actual-rank order); Tmp (n*count) staging on all ranks
//   scatter:   input in root's Send (n*count, actual-rank order); result in
//              every Recv (count); Tmp (n*count) staging
//   alltoall:  input Send (n*count, block i destined to rank i); result
//              Recv (n*count, block i received from rank i); Tmp (n*count)
//   reduce_scatter_block: input Send (n*count); result Recv (count = own
//              block, reduced across ranks); Tmp (n*count) accumulator
//   barrier:   token exchanges over Recv (count elements); no data result
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minimpi/schedule.hpp"

namespace acclaim::coll {

enum class Collective : int {
  Allgather = 0,
  Allreduce = 1,
  Bcast = 2,
  Reduce = 3,
  Gather = 4,
  Scatter = 5,
  Alltoall = 6,
  ReduceScatterBlock = 7,
  Barrier = 8,
};

constexpr int kNumCollectives = 9;

/// All collectives, in enum order.
const std::vector<Collective>& all_collectives();

/// The four collectives the paper evaluates (Chunduri et al.'s most
/// popular): allgather, allreduce, bcast, reduce. The bench harnesses tune
/// exactly this set; the library supports all of all_collectives().
const std::vector<Collective>& paper_collectives();

const char* collective_name(Collective c);

/// Parses "bcast"/"allreduce"/... (case-sensitive); throws InvalidArgument.
Collective parse_collective(const std::string& name);

enum class Algorithm : int {
  BcastBinomial = 0,
  BcastScatterRecursiveDoublingAllgather,
  BcastScatterRingAllgather,
  ReduceBinomial,
  ReduceScatterGather,
  AllreduceRecursiveDoubling,
  AllreduceReduceScatterAllgather,
  AllgatherRing,
  AllgatherRecursiveDoubling,
  AllgatherBruck,
  GatherBinomial,
  GatherLinear,
  ScatterBinomial,
  ScatterLinear,
  AlltoallBruck,
  AlltoallPairwise,
  ReduceScatterBlockRecursiveHalving,
  ReduceScatterBlockPairwise,
  BarrierDissemination,
  BarrierRecursiveDoubling,
  // SMP-aware (hierarchical) family — experimental, see AlgorithmInfo.
  BcastSmpBinomial,
  ReduceSmpBinomial,
  AllreduceSmp,
  BarrierSmp,
  // Pipelined chain family — experimental, see AlgorithmInfo.
  BcastPipelineChain,
  ReducePipelineChain,
};

constexpr int kNumAlgorithms = 26;

/// Parameters of one collective invocation.
///
/// `count` is in elements of `type_size` bytes. For bcast/reduce/allreduce it
/// is the full vector length; for allgather it is the per-rank contribution
/// (OSU benchmark convention, which is also what the autotuner's
/// "message size" feature means: count * type_size).
struct CollParams {
  int nranks = 1;
  std::uint64_t count = 1;
  std::uint64_t type_size = 8;
  int root = 0;
  /// Ranks per node under the block mapping (rank r lives on node r/ppn).
  /// Only the SMP-aware (hierarchical) algorithms consult it; 1 means every
  /// rank is its own node and SMP algorithms degenerate to their flat
  /// inter-node phase.
  int ppn = 1;

  std::uint64_t message_bytes() const { return count * type_size; }

  /// Node index of a rank under the block mapping.
  int node_of(int rank) const { return rank / ppn; }
  /// Number of nodes the ranks span.
  int num_nodes() const { return (nranks + ppn - 1) / ppn; }
  /// The lowest rank of a node — the SMP algorithms' per-node leader.
  int leader_of(int node) const { return node * ppn; }

  /// Validates ranges (nranks >= 1, count >= 1, root in range); throws.
  void validate() const;
};

/// Buffer sizes (bytes) the DataExecutor needs for a collective.
struct BufferSizes {
  std::uint64_t send_bytes = 0;
  std::uint64_t recv_bytes = 0;
  std::uint64_t tmp_bytes = 0;
};

BufferSizes buffer_requirements(Collective c, const CollParams& p);

/// Static description of one algorithm.
struct AlgorithmInfo {
  Algorithm alg;
  Collective collective;
  const char* name;  ///< MPICH-style CVAR name, e.g. "scatter_ring_allgather"
  /// Whether the algorithm's schedule degrades on non-power-of-two rank
  /// counts (extra fold/unfold phases). Used by docs and tests; the paper's
  /// §III-B observation that some algorithms "favor P2 feature values".
  bool p2_favoring;
  void (*build)(const CollParams&, minimpi::RoundSink&);
  /// Gated behind an opt-in, like a disabled-by-default MPICH CVAR: the
  /// autotuner and benches only see experimental algorithms when asked.
  bool experimental = false;
};

/// All registered algorithms in enum order (experimental ones included).
const std::vector<AlgorithmInfo>& all_algorithms();

const AlgorithmInfo& algorithm_info(Algorithm a);

/// Algorithms implementing one collective, in enum order. Experimental
/// algorithms (the SMP-aware family) are excluded unless requested. The
/// lists are built once; a position in the default list is the
/// algorithm's one-hot slot in the model's feature row.
const std::vector<Algorithm>& algorithms_for(Collective c, bool include_experimental = false);

/// Parses an algorithm by its CVAR name within a collective; throws
/// NotFoundError if no such algorithm.
Algorithm parse_algorithm(Collective c, const std::string& name);

/// Emits the algorithm's schedule into the sink. Validates params.
void build_schedule(Algorithm a, const CollParams& p, minimpi::RoundSink& sink);

}  // namespace acclaim::coll
