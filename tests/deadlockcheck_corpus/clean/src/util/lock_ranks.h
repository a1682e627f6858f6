// This case's rank table: the rank of each lock its manifest names.
namespace mergepurge {
namespace lockrank {
inline constexpr int kOuter = 10;
inline constexpr int kInner = 20;
}  // namespace lockrank
}  // namespace mergepurge
