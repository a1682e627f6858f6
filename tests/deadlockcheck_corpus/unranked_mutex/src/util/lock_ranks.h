// This case's rank table: the rank of each lock its manifest names.
namespace mergepurge {
namespace lockrank {
inline constexpr int kGood = 10;
}  // namespace lockrank
}  // namespace mergepurge
