#include <thread>
namespace mergepurge {
void StartWatcher() {
  std::thread([] {}).detach();
}
}  // namespace mergepurge
