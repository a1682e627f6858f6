#include "obs/drain.h"

#include <csignal>
#include <thread>
#include <unistd.h>

#include "util/logging.h"

namespace mergepurge {

SignalDrain& SignalDrain::Global() {
  static SignalDrain* instance = new SignalDrain();
  return *instance;
}

void SignalDrain::Install() {
  bool expected = false;
  if (!installed_.compare_exchange_strong(expected, true)) return;

  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  // Detached: the watcher blocks in sigwait() for the process lifetime;
  // there is nothing to join on a normal exit.
  std::thread([this] { WatcherLoop(); }).detach();  // deadlockcheck: allow(detached-thread)
}

void SignalDrain::OnSignal(std::function<void(int)> callback) {
  MutexLock lock(mu_);
  callbacks_.push_back(std::move(callback));
}

void SignalDrain::WatcherLoop() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  int signo = 0;
  if (sigwait(&set, &signo) != 0) return;
  signal_number_.store(signo, std::memory_order_release);
  LogMessage(LogLevel::kInfo,
             std::string("received ") +
                 (signo == SIGINT ? "SIGINT" : "SIGTERM") +
                 ", draining");

  std::vector<std::function<void(int)>> callbacks;
  {
    MutexLock lock(mu_);
    callbacks = callbacks_;
  }
  for (const auto& callback : callbacks) callback(signo);

  if (exit_after_callbacks_.load(std::memory_order_relaxed)) {
    _exit(128 + signo);
  }
  // Cooperative mode: a second signal should kill the process the
  // conventional way instead of being swallowed by the mask.
  pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
}

}  // namespace mergepurge
