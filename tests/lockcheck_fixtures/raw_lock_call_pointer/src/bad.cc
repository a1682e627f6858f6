#include "util/sync.h"
namespace mergepurge {
class Counter {
 public:
  void Bump() {
    Mutex* mu = &mu_;
    mu->lock();
    ++n_;
    mu->unlock();
  }
 private:
  Mutex mu_{lockrank::kLog};
  int n_ = 0;
};
}  // namespace mergepurge
