// Clang Thread Safety Analysis annotations for the eid codebase.
//
// The engine's core guarantee — `threads=1 ≡ threads=N` bit-identical
// identification — rests on locking contracts that used to live in
// comments ("guarded by mu_") and in whatever interleavings TSan
// happened to execute. These macros turn the contracts into attributes
// the compiler checks on *every* call path, on every clang build:
// a member declared EID_GUARDED_BY(mu_) cannot be read or written
// without mu_ held, a function declared EID_REQUIRES(mu_) cannot be
// called without it, and `-Wthread-safety -Wthread-safety-beta -Werror`
// (the `thread-safety` preset, a scripts/check.sh step and a gating CI
// job) makes any violation a build error.
//
// On compilers without the capability attributes (GCC) every macro
// expands to nothing, so the annotated code is plain C++ everywhere and
// machine-checked wherever clang compiles it.
//
// Use base::Mutex / base::MutexLock / base::CondVar (base/mutex.h) —
// annotated wrappers over the std primitives — rather than std::mutex
// directly: the std types carry no capability attributes, so locking
// through them is invisible to the analysis. scripts/check.sh enforces
// that no raw std::mutex member survives outside src/base/.
//
// Beyond lock-guarded state, the determinism contract relies on two
// *lock-free* disciplines that the analysis cannot express but that the
// codebase marks with the same rigor (grep-able, defined here, policy in
// DESIGN.md §4f):
//
//   EID_PER_WORKER          — state owned by exactly one ParallelFor
//                             worker (indexed by the worker id, or one
//                             instance per worker): never shared, so
//                             never locked. Examples: ClosureEvaluator,
//                             per-chunk output buffers.
//   EID_SHARED_IMMUTABLE    — state built serially *before* a
//                             ParallelFor and read-only inside it
//                             (const access from every worker).
//                             Examples: StagedConjunction,
//                             ColumnIndex posting indexes.
//
// Both expand to nothing on every compiler; they are declarations of
// intent that reviews and TSan hold the code to, exactly like the
// capability annotations are on GCC.

#ifndef EID_BASE_THREAD_ANNOTATIONS_H_
#define EID_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define EID_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define EID_THREAD_ANNOTATION_(x)  // no-op on non-clang compilers
#endif

/// Declares a type to be a capability ("mutex"): lockable state the
/// analysis tracks acquisition of.
#define EID_CAPABILITY(x) EID_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability.
#define EID_SCOPED_CAPABILITY EID_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated member may only be accessed while `x` is held.
#define EID_GUARDED_BY(x) EID_THREAD_ANNOTATION_(guarded_by(x))

/// The data pointed to by the annotated pointer member may only be
/// accessed while `x` is held (the pointer itself is unguarded).
#define EID_PT_GUARDED_BY(x) EID_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The annotated function may only be called while holding `...`.
#define EID_REQUIRES(...) \
  EID_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The annotated function may only be called while NOT holding `...`
/// (deadlock prevention for functions that acquire it themselves).
#define EID_EXCLUDES(...) \
  EID_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The annotated function acquires the capability and holds it on return.
#define EID_ACQUIRE(...) \
  EID_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The annotated function releases the capability.
#define EID_RELEASE(...) \
  EID_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The annotated function acquires the capability iff it returns `b`.
#define EID_TRY_ACQUIRE(b, ...) \
  EID_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))

/// The annotated function returns a reference to the named capability.
#define EID_RETURN_CAPABILITY(x) EID_THREAD_ANNOTATION_(lock_returned(x))

/// Asserts (at runtime, from the analysis' point of view) that the
/// calling thread already holds the capability.
#define EID_ASSERT_CAPABILITY(x) \
  EID_THREAD_ANNOTATION_(assert_capability(x))

/// Opts one function out of the analysis. Reserve for wrappers whose
/// body manipulates locks in ways the analysis cannot follow (e.g. a
/// condition-variable wait that releases and re-acquires internally) —
/// each use must say why in a comment.
#define EID_NO_THREAD_SAFETY_ANALYSIS \
  EID_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Lock-free discipline markers (see file comment): not enforced by the
/// compiler, enforced by review + TSan + the determinism suites.
#define EID_PER_WORKER        // one owner worker; never shared, never locked
#define EID_SHARED_IMMUTABLE  // built serially, read-only during ParallelFor

#endif  // EID_BASE_THREAD_ANNOTATIONS_H_
