//===- SingleFlight.h - Bounded single-flight memo map -----------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A keyed store of immutable values where each key is computed at most
/// once at a time. The first caller to miss on a key leads: it computes
/// the value and hands it to publish() (or reports an error to fail()).
/// Callers arriving while the leader works block on a condition variable
/// until the value or the error lands, instead of computing it again.
///
/// The store is bounded: once more than Capacity computed values are
/// held, the oldest finished entry is dropped (in-flight entries are
/// never dropped; their number is bounded by the number of callers).
/// A dropped key is simply computed again by its next caller, so the
/// bound changes cost, never results.
///
/// Counts `<prefix>.{hits,misses,waits}` in the current StatsRegistry.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_SINGLEFLIGHT_H
#define SRP_CORE_SINGLEFLIGHT_H

#include "support/Stats.h"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace srp::core {

template <typename V> class SingleFlight {
  struct Flight;
  using MapT = std::map<std::string, std::shared_ptr<Flight>>;

public:
  /// What acquire() hands a caller: the lead (compute the value, then
  /// publish() or fail() this claim), a value to use, or the error the
  /// leader failed with. A leader's claim destroyed before either call
  /// (an exception in the computation) fails the key, so waiters are
  /// never stranded.
  class Claim {
  public:
    Claim() = default;
    Claim(Claim &&O) noexcept { *this = std::move(O); }
    Claim &operator=(Claim &&O) noexcept {
      if (this == &O)
        return *this;
      abandon();
      Lead = O.Lead;
      Value = std::move(O.Value);
      Error = std::move(O.Error);
      Owner = O.Owner;
      F = std::move(O.F);
      return *this;
    }
    ~Claim() { abandon(); }

    bool Lead = false;
    std::shared_ptr<const V> Value;
    std::string Error;

  private:
    friend class SingleFlight;
    void abandon() {
      if (F)
        Owner->fail(*this, "computation abandoned");
    }
    SingleFlight *Owner = nullptr;
    std::shared_ptr<Flight> F; ///< the leader's flight until it lands
  };

  SingleFlight(const std::string &StatPrefix, size_t Capacity)
      : HitsStat(StatPrefix + ".hits"), MissesStat(StatPrefix + ".misses"),
        WaitsStat(StatPrefix + ".waits"), Capacity(Capacity) {}

  /// Looks \p Key up, waiting while another caller computes it.
  Claim acquire(std::string Key) {
    std::unique_lock<std::mutex> L(M);
    auto [It, New] = Map.try_emplace(std::move(Key));
    Claim C;
    if (New) {
      It->second = std::make_shared<Flight>();
      It->second->Pos = It;
      StatsRegistry::current().add(MissesStat, 1);
      C.Lead = true;
      C.Owner = this;
      C.F = It->second;
      return C;
    }
    std::shared_ptr<Flight> F = It->second;
    if (!F->Done) {
      StatsRegistry::current().add(WaitsStat, 1);
      Landed.wait(L, [&F] { return F->Done; });
    } else {
      StatsRegistry::current().add(HitsStat, 1);
    }
    C.Value = F->Value;
    C.Error = F->Error;
    return C;
  }

  /// The leader's value; wakes the waiters and may drop the oldest
  /// finished entry to stay within the bound.
  void publish(Claim &Lead, std::shared_ptr<const V> Value) {
    {
      std::lock_guard<std::mutex> L(M);
      Flight &F = *Lead.F;
      F.Done = true;
      F.Value = std::move(Value);
      Finished.push_back(F.Pos);
      while (Finished.size() > Capacity) {
        Map.erase(Finished.front());
        Finished.pop_front();
      }
    }
    Lead.F.reset();
    Landed.notify_all();
  }

  /// The leader failed: its waiters get \p Error, and the key is
  /// forgotten (the next caller leads a fresh attempt).
  void fail(Claim &Lead, const std::string &Error) {
    {
      std::lock_guard<std::mutex> L(M);
      Flight &F = *Lead.F;
      F.Done = true;
      F.Error = Error;
      Map.erase(F.Pos);
    }
    Lead.F.reset();
    Landed.notify_all();
  }

  /// Keys currently held, in flight or finished.
  size_t size() const {
    std::lock_guard<std::mutex> L(M);
    return Map.size();
  }

private:
  /// One key's computation; Done once the leader published or failed.
  struct Flight {
    bool Done = false;
    std::shared_ptr<const V> Value;
    std::string Error;
    typename MapT::iterator Pos; ///< this flight's entry (stable in a map)
  };

  const std::string HitsStat, MissesStat, WaitsStat;
  const size_t Capacity;
  mutable std::mutex M;
  std::condition_variable Landed;
  MapT Map;
  std::deque<typename MapT::iterator> Finished; ///< oldest first
};

} // namespace srp::core

#endif // SRP_CORE_SINGLEFLIGHT_H
