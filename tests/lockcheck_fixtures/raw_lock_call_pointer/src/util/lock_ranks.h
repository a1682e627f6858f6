// This fixture's rank table: the rank of Counter::mu_.
namespace mergepurge {
namespace lockrank {
inline constexpr int kLog = 10;
}  // namespace lockrank
}  // namespace mergepurge
