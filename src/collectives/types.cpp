#include "collectives/types.hpp"

#include <array>

#include "collectives/builders.hpp"
#include "util/error.hpp"

namespace acclaim::coll {

const std::vector<Collective>& all_collectives() {
  static const std::vector<Collective> kAll = {
      Collective::Allgather, Collective::Allreduce,          Collective::Bcast,
      Collective::Reduce,    Collective::Gather,             Collective::Scatter,
      Collective::Alltoall,  Collective::ReduceScatterBlock, Collective::Barrier};
  return kAll;
}

const std::vector<Collective>& paper_collectives() {
  static const std::vector<Collective> kPaper = {Collective::Allgather, Collective::Allreduce,
                                                 Collective::Bcast, Collective::Reduce};
  return kPaper;
}

const char* collective_name(Collective c) {
  switch (c) {
    case Collective::Allgather: return "allgather";
    case Collective::Allreduce: return "allreduce";
    case Collective::Bcast: return "bcast";
    case Collective::Reduce: return "reduce";
    case Collective::Gather: return "gather";
    case Collective::Scatter: return "scatter";
    case Collective::Alltoall: return "alltoall";
    case Collective::ReduceScatterBlock: return "reduce_scatter_block";
    case Collective::Barrier: return "barrier";
  }
  return "?";
}

Collective parse_collective(const std::string& name) {
  for (Collective c : all_collectives()) {
    if (name == collective_name(c)) {
      return c;
    }
  }
  throw InvalidArgument("unknown collective '" + name + "'");
}

void CollParams::validate() const {
  require(nranks >= 1, "collective requires nranks >= 1");
  require(count >= 1, "collective requires count >= 1");
  require(type_size >= 1, "collective requires type_size >= 1");
  require(root >= 0 && root < nranks, "collective root out of range");
}

BufferSizes buffer_requirements(Collective c, const CollParams& p) {
  const std::uint64_t vec = p.count * p.type_size;
  const std::uint64_t all = vec * static_cast<std::uint64_t>(p.nranks);
  switch (c) {
    case Collective::Bcast: return {0, vec, 0};
    case Collective::Reduce: return {vec, vec, 0};
    case Collective::Allreduce: return {vec, vec, 0};
    case Collective::Allgather: return {vec, all, all};
    case Collective::Gather: return {vec, all, all};
    case Collective::Scatter: return {all, vec, all};
    case Collective::Alltoall: return {all, all, all};
    case Collective::ReduceScatterBlock: return {all, vec, all};
    case Collective::Barrier: return {0, vec, 0};
  }
  throw InvalidArgument("unknown collective");
}

const std::vector<AlgorithmInfo>& all_algorithms() {
  using detail::build_allgather_bruck;
  using detail::build_allgather_recursive_doubling;
  using detail::build_allgather_ring;
  using detail::build_alltoall_bruck;
  using detail::build_alltoall_pairwise;
  using detail::build_barrier_dissemination;
  using detail::build_barrier_recursive_doubling;
  using detail::build_barrier_smp;
  using detail::build_bcast_pipeline_chain;
  using detail::build_reduce_pipeline_chain;
  using detail::build_allreduce_smp;
  using detail::build_bcast_smp_binomial;
  using detail::build_reduce_smp_binomial;
  using detail::build_gather_binomial;
  using detail::build_gather_linear;
  using detail::build_reduce_scatter_block_pairwise;
  using detail::build_reduce_scatter_block_recursive_halving;
  using detail::build_scatter_binomial;
  using detail::build_scatter_linear;
  using detail::build_allreduce_recursive_doubling;
  using detail::build_allreduce_reduce_scatter_allgather;
  using detail::build_bcast_binomial;
  using detail::build_bcast_scatter_rdbl_allgather;
  using detail::build_bcast_scatter_ring_allgather;
  using detail::build_reduce_binomial;
  using detail::build_reduce_scatter_gather;
  static const std::vector<AlgorithmInfo> kAll = {
      {Algorithm::BcastBinomial, Collective::Bcast, "binomial", false, build_bcast_binomial},
      {Algorithm::BcastScatterRecursiveDoublingAllgather, Collective::Bcast,
       "scatter_recursive_doubling_allgather", true, build_bcast_scatter_rdbl_allgather},
      {Algorithm::BcastScatterRingAllgather, Collective::Bcast, "scatter_ring_allgather", false,
       build_bcast_scatter_ring_allgather},
      {Algorithm::ReduceBinomial, Collective::Reduce, "binomial", false, build_reduce_binomial},
      {Algorithm::ReduceScatterGather, Collective::Reduce, "reduce_scatter_gather", true,
       build_reduce_scatter_gather},
      {Algorithm::AllreduceRecursiveDoubling, Collective::Allreduce, "recursive_doubling", true,
       build_allreduce_recursive_doubling},
      {Algorithm::AllreduceReduceScatterAllgather, Collective::Allreduce,
       "reduce_scatter_allgather", true, build_allreduce_reduce_scatter_allgather},
      {Algorithm::AllgatherRing, Collective::Allgather, "ring", false, build_allgather_ring},
      {Algorithm::AllgatherRecursiveDoubling, Collective::Allgather, "recursive_doubling", true,
       build_allgather_recursive_doubling},
      {Algorithm::AllgatherBruck, Collective::Allgather, "bruck", false, build_allgather_bruck},
      {Algorithm::GatherBinomial, Collective::Gather, "binomial", false, build_gather_binomial},
      {Algorithm::GatherLinear, Collective::Gather, "linear", false, build_gather_linear},
      {Algorithm::ScatterBinomial, Collective::Scatter, "binomial", false,
       build_scatter_binomial},
      {Algorithm::ScatterLinear, Collective::Scatter, "linear", false, build_scatter_linear},
      {Algorithm::AlltoallBruck, Collective::Alltoall, "bruck", false, build_alltoall_bruck},
      {Algorithm::AlltoallPairwise, Collective::Alltoall, "pairwise", true,
       build_alltoall_pairwise},
      {Algorithm::ReduceScatterBlockRecursiveHalving, Collective::ReduceScatterBlock,
       "recursive_halving", true, build_reduce_scatter_block_recursive_halving},
      {Algorithm::ReduceScatterBlockPairwise, Collective::ReduceScatterBlock, "pairwise", false,
       build_reduce_scatter_block_pairwise},
      {Algorithm::BarrierDissemination, Collective::Barrier, "dissemination", false,
       build_barrier_dissemination},
      {Algorithm::BarrierRecursiveDoubling, Collective::Barrier, "recursive_doubling", true,
       build_barrier_recursive_doubling},
      {Algorithm::BcastSmpBinomial, Collective::Bcast, "smp_binomial", false,
       build_bcast_smp_binomial, /*experimental=*/true},
      {Algorithm::ReduceSmpBinomial, Collective::Reduce, "smp_binomial", false,
       build_reduce_smp_binomial, /*experimental=*/true},
      {Algorithm::AllreduceSmp, Collective::Allreduce, "smp", true, build_allreduce_smp,
       /*experimental=*/true},
      {Algorithm::BarrierSmp, Collective::Barrier, "smp", false, build_barrier_smp,
       /*experimental=*/true},
      {Algorithm::BcastPipelineChain, Collective::Bcast, "pipeline_chain", false,
       build_bcast_pipeline_chain, /*experimental=*/true},
      {Algorithm::ReducePipelineChain, Collective::Reduce, "pipeline_chain", false,
       build_reduce_pipeline_chain, /*experimental=*/true},
  };
  return kAll;
}

const AlgorithmInfo& algorithm_info(Algorithm a) {
  const auto idx = static_cast<std::size_t>(a);
  const auto& all = all_algorithms();
  require(idx < all.size(), "algorithm id out of range");
  return all[idx];
}

const std::vector<Algorithm>& algorithms_for(Collective c, bool include_experimental) {
  // [include_experimental][collective], built once: encode_point looks up
  // every sweep row's one-hot slot here.
  using Lists = std::array<std::array<std::vector<Algorithm>, kNumCollectives>, 2>;
  static const Lists kLists = [] {
    Lists lists;
    for (const AlgorithmInfo& info : all_algorithms()) {
      const auto idx = static_cast<std::size_t>(info.collective);
      lists[1][idx].push_back(info.alg);
      if (!info.experimental) {
        lists[0][idx].push_back(info.alg);
      }
    }
    return lists;
  }();
  const auto idx = static_cast<std::size_t>(c);
  require(idx < static_cast<std::size_t>(kNumCollectives), "collective id out of range");
  return kLists[include_experimental ? 1 : 0][idx];
}

Algorithm parse_algorithm(Collective c, const std::string& name) {
  for (const AlgorithmInfo& info : all_algorithms()) {
    if (info.collective == c && name == info.name) {
      return info.alg;
    }
  }
  throw NotFoundError("collective '" + std::string(collective_name(c)) +
                      "' has no algorithm named '" + name + "'");
}

void build_schedule(Algorithm a, const CollParams& p, minimpi::RoundSink& sink) {
  p.validate();
  algorithm_info(a).build(p, sink);
}

}  // namespace acclaim::coll
