//===- AlatObserver.h - IR-level ALAT observation ---------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An ALAT model the interpreter can carry alongside a run (attach with
/// Interpreter::setAlatObserver). The interpreter's functional semantics
/// make every check reload from memory, so a run can succeed even when
/// the speculation discipline is broken; the observer replays the run
/// against an adversarial ALAT and records what *hardware* would have
/// done. Its headline statistic is StaleHits: check hits where the
/// register disagreed with memory — on a real machine the stale register
/// would have been kept. analysis::SpecVerifier proves the discipline
/// statically; the differential tests cross-check the two.
///
/// The model is deliberately the worst case for the compiler:
///   - fully associative with a configurable capacity, so no conflict
///     misses hide discipline bugs behind lucky evictions;
///   - stores invalidate by full 8-byte-cell address (no partial-tag
///     false invalidations that would mask a missing check);
///   - entries are keyed by (owning function, temp) and dropped when the
///     owning activation returns — a promoted temp is never checkable
///     from another function, and dropping the residue keeps dynamic
///     entry pressure within SpecVerifier's static per-function +
///     callee-peak capacity bound.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_INTERP_ALATOBSERVER_H
#define SRP_INTERP_ALATOBSERVER_H

#include "support/Hash.h"

#include <cstdint>
#include <initializer_list>
#include <map>
#include <utility>

namespace srp::interp {

/// Counters filled during an observed run.
struct AlatObserverStats {
  uint64_t Allocations = 0;
  uint64_t StoreInvalidations = 0;
  uint64_t CapacityEvictions = 0;
  uint64_t CheckHits = 0;
  uint64_t CheckMisses = 0;
  /// Check hits with register != memory: would-be miscompiles on real
  /// hardware. Zero for any module SpecVerifier passes without errors.
  uint64_t StaleHits = 0;
};

/// The observing table. Owners are opaque pointers (the interpreter
/// passes the executing ir::Function) so the model stays IR-agnostic.
class AlatObserver {
public:
  /// \p Entries mirrors arch::AlatConfig::Entries (Itanium: 32).
  explicit AlatObserver(unsigned Entries = 32)
      : Capacity(Entries ? Entries : 1) {}

  void reset() {
    Table.clear();
    Stats = AlatObserverStats();
    Stamp = 0;
    Digest = Fnv1a64Offset;
  }

  const AlatObserverStats &stats() const { return Stats; }
  unsigned numValidEntries() const {
    return static_cast<unsigned>(Table.size());
  }
  /// FNV-1a digest of the event sequence: each event's kind, register,
  /// address and check operands, in order (owners are opaque pointers
  /// and left out). Equal digests mean the observer was driven alike.
  uint64_t eventDigest() const { return Digest; }

  /// An advanced load (ld.a / ld.sa / st.a / recovery) allocates or
  /// refreshes the entry for (\p Owner, \p Reg) covering \p Addr.
  void onAllocate(const void *Owner, unsigned Reg, uint64_t Addr);

  /// A store to \p Addr invalidates every entry covering that cell.
  void onStore(uint64_t Addr);

  /// A check of (\p Owner, \p Reg) against \p Addr. \p RegValue is the
  /// register before the check's reload, \p MemValue the current memory
  /// at \p Addr. \p Clear models the .clr completer (drop on hit; a
  /// non-clearing check re-allocates on a miss, mirroring ld.c.nc).
  /// Returns true on a hit.
  bool onCheck(const void *Owner, unsigned Reg, uint64_t Addr, bool Clear,
               uint64_t RegValue, uint64_t MemValue);

  /// invala.e drops (\p Owner, \p Reg)'s entry.
  void onInvala(const void *Owner, unsigned Reg);

  /// The activation of \p Owner returned: drop its entries (see file
  /// comment for why this is sound and desirable).
  void onReturn(const void *Owner);

private:
  struct Entry {
    uint64_t Addr = 0;
    uint64_t Stamp = 0; ///< Allocation order; smallest is evicted first.
  };
  using Key = std::pair<const void *, unsigned>;

  void insert(const void *Owner, unsigned Reg, uint64_t Addr);
  void note(std::initializer_list<uint64_t> Event) {
    for (uint64_t V : Event)
      Digest = fnv1a64(V, Digest);
  }

  unsigned Capacity;
  uint64_t Stamp = 0;
  std::map<Key, Entry> Table;
  AlatObserverStats Stats;
  uint64_t Digest = Fnv1a64Offset;
};

} // namespace srp::interp

#endif // SRP_INTERP_ALATOBSERVER_H
