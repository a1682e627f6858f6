namespace mergepurge {
// deadlockcheck: allow(made-up-id)
int Answer() { return 42; }
}  // namespace mergepurge
