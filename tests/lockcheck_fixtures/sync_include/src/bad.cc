#include <condition_variable>
namespace mergepurge {
int Answer() { return 42; }
}  // namespace mergepurge
