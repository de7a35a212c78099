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
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_PROFILECACHE_H
#define SRP_CORE_PROFILECACHE_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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

/// Keyed snapshot store shared by all pipelines of one experiment run,
/// single-flight: the first pipeline to miss on a key computes the
/// snapshot while later ones for the same key block until it lands, so
/// a train input is interpreted once however many configs race for it.
class ProfileCache {
public:
  /// What acquire() hands a pipeline: the lead (compute the snapshot,
  /// then call publish() or fail()), a snapshot to use, or the error the
  /// leader's train run failed with.
  struct Claim {
    bool Lead = false;
    std::shared_ptr<const ProfileSnapshot> Snapshot;
    std::string Error;
  };

  /// Looks \p Key up, waiting while another pipeline computes it.
  /// Records profile.cache.{hits,misses,waits}.
  Claim acquire(const std::string &Key);

  /// The leader's snapshot for \p Key; wakes the waiters.
  void publish(const std::string &Key,
               std::shared_ptr<const ProfileSnapshot> S);

  /// The leader's train run failed: its waiters get \p Error, and the key
  /// is forgotten (a later pipeline leads a fresh attempt).
  void fail(const std::string &Key, const std::string &Error);

private:
  /// One key's computation; Done once the leader published or failed.
  struct Flight {
    bool Done = false;
    std::shared_ptr<const ProfileSnapshot> Snapshot;
    std::string Error;
  };

  void finish(const std::string &Key,
              std::shared_ptr<const ProfileSnapshot> S, std::string Error);

  std::mutex M;
  std::condition_variable Landed;
  std::map<std::string, std::shared_ptr<Flight>> Map;
};

} // namespace srp::core

#endif // SRP_CORE_PROFILECACHE_H
