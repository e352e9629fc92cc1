// annotate.hpp — shard-ownership capability annotations (sst::check).
//
// The sharded engine's concurrency contract (DESIGN.md, "Ownership
// capability model") partitions every piece of cross-thread-visible state
// into three domains:
//
//   root-only     owned by the root executor (coordinator thread): publisher
//                 table, workload, sender, shared-loss stage, warm-up
//                 baselines, the cross-shard NACK merge scratch.
//   shard-local   owned by exactly one shard worker during its epoch phase:
//                 the shard's Simulator, receiver rigs, data-channel slice,
//                 per-shard ConsistencyMonitor, probe verdicts. Between
//                 barriers the coordinator adopts this role for its
//                 reductions (the workers are parked, so ownership transfers
//                 wholesale — see ShardCrew's happens-before sandwich).
//   epoch-shared  published by the root before the start barrier, read by
//                 every worker during the epoch: the epoch log and plan.
//                 Workers get SHARED (read) access only.
//
// Until this header existed the contract was enforced only dynamically (TSan
// runs, the byte-identity matrix). The macros below make it machine-checked:
// under Clang they lower to the thread-safety-analysis attributes
// (-Wthread-safety; cmake -DSST_ANALYZE=ON turns the warnings into errors
// for src/), and everywhere they double as markers for the analyzer
// (tools/sstlint.py), whose ownership-reachability and epoch-fence rules read
// them textually — so the contract is checked even on non-Clang toolchains.
//
// The roles are "fictitious capabilities" in Clang's sense: never a runtime
// lock, only a token the analysis threads through the call graph. The
// TEMPORAL part of the protocol (who holds a role WHEN) is established by
// the phase barriers and verified by TSan + the determinism matrix; an
// assert_held() call is the in-source record of that argument, and every one
// must cite it. What the static analysis then proves is role consistency:
// no function reaches a guarded member without declaring (or asserting,
// with justification) the role it runs under — the property that keeps
// future scale-out PRs from silently coupling a worker to root state.
#pragma once

// Lower to Clang's thread-safety attributes where available; expand to
// nothing elsewhere (GCC compiles the annotated headers unchanged).
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SST_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SST_THREAD_ANNOTATION
#define SST_THREAD_ANNOTATION(x)  // non-Clang: annotations are markers only
#endif

// ------------------------------------------------------ attribute spellings
// Generic layer, one macro per Clang attribute actually used. Placement
// follows the Abseil convention: member attributes AFTER the declarator
// (`int x_ SST_GUARDED_BY(role);`), function attributes after the
// parameter list / cv-qualifiers.
#define SST_CAPABILITY(name) SST_THREAD_ANNOTATION(capability(name))
#define SST_GUARDED_BY(x) SST_THREAD_ANNOTATION(guarded_by(x))
#define SST_PT_GUARDED_BY(x) SST_THREAD_ANNOTATION(pt_guarded_by(x))
#define SST_REQUIRES(...) \
  SST_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SST_REQUIRES_SHARED(...) \
  SST_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define SST_ACQUIRE(...) SST_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SST_RELEASE(...) SST_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SST_ASSERT_CAPABILITY(x) SST_THREAD_ANNOTATION(assert_capability(x))
#define SST_ASSERT_SHARED_CAPABILITY(x) \
  SST_THREAD_ANNOTATION(assert_shared_capability(x))
#define SST_NO_THREAD_SAFETY_ANALYSIS \
  SST_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sst::check {

/// A fictitious capability: a thread ROLE, not a lock. Asserting a role
/// states (to the analysis and to the reader) that the calling context is
/// the unique owner of that role's state at this point in the protocol —
/// a claim the phase-barrier argument, not a mutex, makes true. Runtime
/// cost: none (the methods are empty and inline everywhere).
class SST_CAPABILITY("role") Role {
 public:
  constexpr Role() = default;

  /// States that this role is held EXCLUSIVELY in the current scope. Every
  /// call site must carry a comment citing the protocol argument (which
  /// barrier / construction phase makes the claim true).
  void assert_held() const SST_ASSERT_CAPABILITY(this) {}

  /// States that this role is held SHARED (read-only) in the current scope
  /// — what epoch-shared state grants the workers during an epoch.
  void assert_held_shared() const SST_ASSERT_SHARED_CAPABILITY(this) {}
};

/// Root executor role: the coordinator thread, and — in the single-queue
/// engine, where there are no workers at all — the one simulation thread.
inline constexpr Role root_role{};

/// Shard-worker role: a worker inside its epoch phase, owning its shard
/// block; adopted by the coordinator between barriers for reductions.
inline constexpr Role shard_role{};

/// Epoch-fence capability: the right to touch the barrier-published epoch
/// inputs (log, plan). Root holds it exclusively between barriers; workers
/// hold it SHARED during an epoch, so the analysis proves workers never
/// write the epoch log.
inline constexpr Role epoch_fence{};

/// Owning-engine serial role: "the thread currently driving this
/// component's Simulator". Guards single-threaded-by-design hot-path state
/// that both engines reuse (the Channel payload pool, the TwoQueueSender
/// same-instant NACK stash); the public entry points assert it (the caller
/// is the engine by construction), and the analysis then proves no internal
/// path touches the guarded state without it.
inline constexpr Role engine_role{};

}  // namespace sst::check

// ------------------------------------------------------- ownership domains
// The repo-specific vocabulary. sstlint's root-reach and fence-read rules key
// off these exact spellings, so use the domain macros (not raw
// SST_GUARDED_BY) on engine state.
#define SST_ROOT_ONLY SST_GUARDED_BY(::sst::check::root_role)
#define SST_SHARD_LOCAL SST_GUARDED_BY(::sst::check::shard_role)
#define SST_EPOCH_SHARED SST_GUARDED_BY(::sst::check::epoch_fence)
#define SST_ENGINE_SERIAL SST_GUARDED_BY(::sst::check::engine_role)

#define SST_REQUIRES_ROOT SST_REQUIRES(::sst::check::root_role)
#define SST_REQUIRES_SHARD SST_REQUIRES(::sst::check::shard_role)
#define SST_REQUIRES_FENCE SST_REQUIRES(::sst::check::epoch_fence)
#define SST_REQUIRES_FENCE_SHARED \
  SST_REQUIRES_SHARED(::sst::check::epoch_fence)
#define SST_REQUIRES_ENGINE SST_REQUIRES(::sst::check::engine_role)

// Coordinator domain (the fault path): between barriers the coordinator
// holds the root role AND — because every worker is parked — the shard role.
// Fault hooks (crash, partition, churn) run at fence-snapped instants on the
// root simulator, so they mutate root state and shard state in one scope;
// this pair is their declared requirement. sstlint's root-reach rule treats
// the pair as both domains at once.
#define SST_REQUIRES_COORDINATOR \
  SST_REQUIRES(::sst::check::root_role, ::sst::check::shard_role)
