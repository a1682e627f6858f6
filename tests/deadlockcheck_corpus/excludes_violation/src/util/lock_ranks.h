// This case's rank table: the rank of each lock its manifest names.
namespace mergepurge {
namespace lockrank {
inline constexpr int kA = 10;
inline constexpr int kB = 20;
}  // namespace lockrank
}  // namespace mergepurge
