//===- AlatObserver.cpp - IR-level ALAT observation -------------------------===//

#include "interp/AlatObserver.h"

using namespace srp::interp;

void AlatObserver::insert(const void *Owner, unsigned Reg, uint64_t Addr) {
  Key K{Owner, Reg};
  auto It = Table.find(K);
  if (It != Table.end()) {
    It->second.Addr = Addr;
    It->second.Stamp = ++Stamp;
    return;
  }
  if (Table.size() >= Capacity) {
    auto Oldest = Table.begin();
    for (auto I = Table.begin(); I != Table.end(); ++I)
      if (I->second.Stamp < Oldest->second.Stamp)
        Oldest = I;
    Table.erase(Oldest);
    ++Stats.CapacityEvictions;
  }
  Table.emplace(K, Entry{Addr, ++Stamp});
}

void AlatObserver::onAllocate(const void *Owner, unsigned Reg,
                              uint64_t Addr) {
  note({0, Reg, Addr});
  ++Stats.Allocations;
  insert(Owner, Reg, Addr);
}

void AlatObserver::onStore(uint64_t Addr) {
  note({1, Addr});
  for (auto It = Table.begin(); It != Table.end();) {
    if (It->second.Addr == Addr) {
      It = Table.erase(It);
      ++Stats.StoreInvalidations;
    } else {
      ++It;
    }
  }
}

bool AlatObserver::onCheck(const void *Owner, unsigned Reg, uint64_t Addr,
                           bool Clear, uint64_t RegValue,
                           uint64_t MemValue) {
  note({2, Reg, Addr, Clear, RegValue, MemValue});
  Key K{Owner, Reg};
  auto It = Table.find(K);
  bool Hit = It != Table.end() && It->second.Addr == Addr;
  if (Hit) {
    ++Stats.CheckHits;
    if (RegValue != MemValue)
      ++Stats.StaleHits; // Hardware would have kept the stale register.
    if (Clear)
      Table.erase(It);
  } else {
    ++Stats.CheckMisses;
    if (Clear) {
      // The .clr completer leaves no entry behind either way.
      if (It != Table.end())
        Table.erase(It);
    } else {
      // ld.c.nc re-allocates after its reload.
      ++Stats.Allocations;
      insert(Owner, Reg, Addr);
    }
  }
  return Hit;
}

void AlatObserver::onInvala(const void *Owner, unsigned Reg) {
  note({3, Reg});
  Table.erase(Key{Owner, Reg});
}

void AlatObserver::onReturn(const void *Owner) {
  note({4});
  for (auto It = Table.begin(); It != Table.end();) {
    if (It->first.first == Owner)
      It = Table.erase(It);
    else
      ++It;
  }
}
