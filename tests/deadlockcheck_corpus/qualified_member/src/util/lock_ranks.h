// This case's rank table: the rank of each lock its manifest names.
namespace mergepurge {
namespace lockrank {
inline constexpr int kContext = 10;
inline constexpr int kTable = 20;
}  // namespace lockrank
}  // namespace mergepurge
