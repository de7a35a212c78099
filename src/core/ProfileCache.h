//===- ProfileCache.h - Shared train-profile snapshots ----------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment grid crosses workloads with promotion configs, and the
/// train run (interpret the train-scale build, collect alias and edge
/// profiles) depends only on the workload — every config of a workload
/// interprets the identical program and collects the identical profile.
/// ProfileCache memoizes that run as an id-space snapshot (function
/// index, block index, statement position), which a later pipeline
/// rebinds onto its own ref module's pointers in one cheap sweep.
///
/// Determinism: a snapshot's content is a pure function of the cache key
/// (workload, train scale, interpreter fuel), so which worker computes
/// it cannot change any pipeline's result. core::runExperiments stays
/// byte-identical at any thread count.
///
/// Single flight: configs of one workload run concurrently under
/// core::runExperiments and srp-serve. The first to miss leads the train
/// run; the others block on a condition variable until its snapshot (or
/// its error) lands, instead of interpreting the same input again.
///
/// The same cache memoizes the ref simulation one layer down (see
/// ProfileCache::simulate).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_PROFILECACHE_H
#define SRP_CORE_PROFILECACHE_H

#include "arch/Decoded.h"
#include "core/SingleFlight.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace srp::core {

/// One workload's train-run profiles with every module pointer replaced
/// by its positional id, exactly mirroring what ProfilePass's remap
/// transfers (same function index, same block index, same statement
/// position).
struct ProfileSnapshot {
  /// Observed alias targets of one (statement, dereference level) site.
  struct AliasEntry {
    unsigned FuncIdx;
    unsigned BlockIdx;
    unsigned StmtPos;
    unsigned Level;
    std::vector<unsigned> Symbols; ///< sorted (harvested from a std::set)
  };
  /// One block's execution count and per-successor edge counts.
  struct BlockEntry {
    unsigned FuncIdx;
    unsigned BlockIdx;
    uint64_t Count;
    std::vector<uint64_t> SuccCounts; ///< by successor position
  };

  /// Block count per function at snapshot time; the rebind re-checks the
  /// ref module against these so the "workload changes CFG shape across
  /// scales" diagnostic still fires.
  std::vector<unsigned> FuncNumBlocks;
  std::vector<BlockEntry> Blocks;
  std::vector<AliasEntry> Alias;
};

/// The per-grid memo shared by all pipelines of one experiment run (and
/// by the requests of one srp-serve shard). It holds two single-flight
/// maps (SingleFlight.h):
///  * train-run profile snapshots, keyed by (workload, train scale,
///    fuel): the first pipeline to miss interprets the train input while
///    later ones for the same key block until its snapshot lands;
///  * ref simulations, keyed by arch::simulationKey — an exact encoding
///    of the decoded binary and the machine config. Conservative and
///    baseline promotion often compile a workload to the same binary, so
///    the grid simulates each distinct (binary, config) once. A
///    simulation is a pure function of its key (traps included: the
///    instruction budget is part of it), so failed runs are memoized like
///    successful ones.
/// Each map keeps at most MaxEntries finished entries, dropping the
/// oldest, so a long-lived serve shard does not grow without limit.
class ProfileCache {
public:
  using Claim = SingleFlight<ProfileSnapshot>::Claim;

  /// A grid holds at most 10 profiles and 30 simulations.
  static constexpr size_t MaxEntries = 64;

  /// Looks the train-profile \p Key up, waiting while another pipeline
  /// computes it. Records profile.cache.{hits,misses,waits}.
  Claim acquire(const std::string &Key) { return Profiles.acquire(Key); }

  /// The leader's snapshot; wakes the waiters.
  void publish(Claim &Lead, std::shared_ptr<const ProfileSnapshot> S) {
    Profiles.publish(Lead, std::move(S));
  }

  /// The leader's train run failed: its waiters get \p Error, and the key
  /// is forgotten (a later pipeline leads a fresh attempt).
  void fail(Claim &Lead, const std::string &Error) {
    Profiles.fail(Lead, Error);
  }

  /// arch::simulate(\p DM, \p Config), computed once per distinct key.
  /// Records sim.cache.{hits,misses,waits}.
  arch::SimResult simulate(const arch::DecodedModule &DM,
                           const arch::SimConfig &Config);

  /// Simulations currently held (tests of the bound).
  size_t numSimulations() const { return Sims.size(); }

private:
  SingleFlight<ProfileSnapshot> Profiles{"profile.cache", MaxEntries};
  SingleFlight<arch::SimResult> Sims{"sim.cache", MaxEntries};
};

} // namespace srp::core

#endif // SRP_CORE_PROFILECACHE_H
