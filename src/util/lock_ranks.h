// The process-wide lock hierarchy, as numbers. This header is the one
// source of the rank numbers (docs/concurrency.md's table lists the
// rank symbols in this order, and the checker holds it to this file).
//
// Every Mutex/SharedMutex in the codebase is constructed with one of the
// ranks below; a thread may only acquire a lock whose rank is STRICTLY
// GREATER than every lock it already holds. The rank order therefore IS
// the acquisition order: lower rank = outer lock, and the debug-build
// LockOrderValidator (util/sync.cc, MERGEPURGE_LOCK_ORDER_CHECKS) aborts
// the process on any out-of-order acquire.
//
// tools/lock_hierarchy.json holds the rest of the hierarchy: each lock's
// name and rank symbol, the allowed nestings ("order") and the
// never-nested pairs ("excludes"). tools/mergepurge_deadlockcheck reads
// the ranks from here and verifies the source tree, the manifest and
// docs/concurrency.md against them. Adding a lock means a rank here, an
// entry in the manifest and a row in the docs table; the checker fails
// CI until they agree.
//
// Ranks are spaced by 10 so a new lock can slot between two existing
// ones without renumbering the world. The coordinator's three leaf
// mutexes (routing/closure/pool) are deliberately adjacent: they are
// EXCLUDES-paired in the manifest — never held together in either
// order — so their relative ranks exist only to keep the validator's
// strict ordering total.

#ifndef MERGEPURGE_UTIL_LOCK_RANKS_H_
#define MERGEPURGE_UTIL_LOCK_RANKS_H_

namespace mergepurge {
namespace lockrank {

// A lock constructed without a rank: invisible to the runtime validator
// (and flagged by mergepurge_deadlockcheck, which requires every
// declaration in src/ to carry a rank).
inline constexpr int kUnranked = -1;

// --- Service front end (outermost) ------------------------------------------
inline constexpr int kServerConn = 10;       // Server::conn_mu_
inline constexpr int kBatcher = 20;          // UpsertBatcher::mu_
inline constexpr int kEngine = 30;           // MatchService::engine_mu_
inline constexpr int kRecovery = 40;         // MatchService::recovery_mu_
inline constexpr int kTheoryPool = 50;       // MatchService::theory_mu_
inline constexpr int kLabels = 60;           // IncrementalMergePurge::labels_mu_

// --- Durability --------------------------------------------------------------
inline constexpr int kWal = 70;              // WalWriter::mu_
inline constexpr int kSnapshotter = 80;      // Snapshotter::mu_

// --- Shard coordinator (EXCLUDES-paired leaves) ------------------------------
inline constexpr int kCoordRouting = 90;     // CoordService::routing_mu_
inline constexpr int kCoordClosure = 91;     // CoordService::closure_mu_
inline constexpr int kCoordPool = 92;        // CoordService::pool_mu_

// --- Parallel batch engine ---------------------------------------------------
inline constexpr int kResilientRun = 100;    // ResilientRunner::RunContext::mu
inline constexpr int kThreadPool = 110;      // ThreadPool::mu_

// --- Cross-cutting leaves (innermost) ----------------------------------------
inline constexpr int kFaultInjector = 120;   // FaultInjector::mu_
inline constexpr int kSnapshotRing = 130;    // SnapshotRing::mu_
inline constexpr int kProgress = 140;        // ProgressReporter::mu_
inline constexpr int kTrace = 150;           // TraceRecorder::mu_
inline constexpr int kDrain = 160;           // SignalDrain::mu_
inline constexpr int kMetricsRegistry = 170; // MetricsRegistry::mu_
inline constexpr int kLog = 180;             // logging.cc LogMutex()

// Human-readable name for validator abort messages. Returns the rank's
// lock as named in tools/lock_hierarchy.json, or "?" for a rank the
// hierarchy does not know (which deadlockcheck would reject anyway).
inline constexpr const char* LockRankName(int rank) {
  switch (rank) {
    case kServerConn: return "Server::conn_mu_";
    case kBatcher: return "UpsertBatcher::mu_";
    case kEngine: return "MatchService::engine_mu_";
    case kRecovery: return "MatchService::recovery_mu_";
    case kTheoryPool: return "MatchService::theory_mu_";
    case kLabels: return "IncrementalMergePurge::labels_mu_";
    case kWal: return "WalWriter::mu_";
    case kSnapshotter: return "Snapshotter::mu_";
    case kCoordRouting: return "CoordService::routing_mu_";
    case kCoordClosure: return "CoordService::closure_mu_";
    case kCoordPool: return "CoordService::pool_mu_";
    case kResilientRun: return "ResilientRunner::RunContext::mu";
    case kThreadPool: return "ThreadPool::mu_";
    case kFaultInjector: return "FaultInjector::mu_";
    case kSnapshotRing: return "SnapshotRing::mu_";
    case kProgress: return "ProgressReporter::mu_";
    case kTrace: return "TraceRecorder::mu_";
    case kDrain: return "SignalDrain::mu_";
    case kMetricsRegistry: return "MetricsRegistry::mu_";
    case kLog: return "LogMutex";
    default: return "?";
  }
}

}  // namespace lockrank
}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_LOCK_RANKS_H_
