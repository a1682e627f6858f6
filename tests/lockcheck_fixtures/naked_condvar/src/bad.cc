namespace mergepurge {
class Queue {
 private:
  std::condition_variable cv_;
};
}  // namespace mergepurge
