//===- ProfileCache.cpp - Shared train-profile snapshots --------------------===//

#include "core/ProfileCache.h"

#include "support/Stats.h"

using namespace srp;
using namespace srp::core;

ProfileCache::Claim ProfileCache::acquire(const std::string &Key) {
  std::unique_lock<std::mutex> L(M);
  auto [It, New] = Map.try_emplace(Key);
  if (New) {
    It->second = std::make_shared<Flight>();
    StatsRegistry::current().add("profile.cache.misses", 1);
    return Claim{true, nullptr, std::string()};
  }
  std::shared_ptr<Flight> F = It->second;
  if (!F->Done) {
    StatsRegistry::current().add("profile.cache.waits", 1);
    Landed.wait(L, [&F] { return F->Done; });
  } else {
    StatsRegistry::current().add("profile.cache.hits", 1);
  }
  return Claim{false, F->Snapshot, F->Error};
}

void ProfileCache::publish(const std::string &Key,
                           std::shared_ptr<const ProfileSnapshot> S) {
  finish(Key, std::move(S), std::string());
}

void ProfileCache::fail(const std::string &Key, const std::string &Error) {
  finish(Key, nullptr, Error);
}

void ProfileCache::finish(const std::string &Key,
                          std::shared_ptr<const ProfileSnapshot> S,
                          std::string Error) {
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Map.find(Key);
    if (It == Map.end())
      return;
    Flight &F = *It->second;
    F.Done = true;
    F.Snapshot = std::move(S);
    F.Error = std::move(Error);
    // Failures are not cached: waiters already hold the flight, and the
    // next pipeline to ask leads a new attempt.
    if (!F.Snapshot)
      Map.erase(It);
  }
  Landed.notify_all();
}
