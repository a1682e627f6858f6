#include <thread>
namespace mergepurge {
void StartWatcher() {
  // The watcher exits on the drain signal; it must outlive this scope.
  std::thread([] {}).detach();  // deadlockcheck: allow(detached-thread)
}
}  // namespace mergepurge
