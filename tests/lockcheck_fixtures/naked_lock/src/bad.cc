namespace mergepurge {
template <typename M>
void Bump(M& mu, int* n) {
  std::lock_guard<M> lock(mu);
  ++*n;
}
}  // namespace mergepurge
