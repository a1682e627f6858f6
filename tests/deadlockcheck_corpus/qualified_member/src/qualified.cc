#include "util/sync.h"
namespace mergepurge {
class Runner {
 public:
  void Step();
 private:
  struct Context;
  Context* ctx_ = nullptr;
};
// Runner::Context::mu is the only lock member named `mu` in this tree.
struct Runner::Context {
  Mutex mu{lockrank::kContext};
  int steps = 0;
};
// Reached through a local of the owning type: Runner::Context::mu.
void Runner::Step() {
  Context& ctx = *ctx_;
  MutexLock lock(ctx.mu);
  ++ctx.steps;
}
// An unrelated struct whose `mu` borrows a lock owned elsewhere.
struct Slot {
  Mutex* mu = nullptr;
  int value = 0;
};
class Table {
 public:
  void Swap(Slot& x, Slot& y);
 private:
  Mutex table_mu_{lockrank::kTable};
};
// `*x.mu` and `*y.mu` are not Runner::Context::mu. The checker cannot
// tell which locks they are and says so; taking them for
// Runner::Context::mu would report a rank inversion and a self-deadlock.
void Table::Swap(Slot& x, Slot& y) {
  MutexLock table(table_mu_);
  // deadlockcheck: allow(unresolved-lock)
  MutexLock first(*x.mu);
  // deadlockcheck: allow(unresolved-lock)
  MutexLock second(*y.mu);
  int v = x.value;
  x.value = y.value;
  y.value = v;
}
}  // namespace mergepurge
