#ifndef RANGESYN_CORE_ANALYSIS_ANNOTATIONS_H_
#define RANGESYN_CORE_ANALYSIS_ANNOTATIONS_H_

/// Annotation vocabulary for rangesyn-analyze (tools/analyze/), the
/// AST-grounded hot-path contract checker. On Clang the macros expand to
/// `[[clang::annotate("rangesyn::<contract>")]]` so the libclang backend
/// reads them straight off the AST; on other compilers they expand to
/// nothing. The fallback (pure-Python) backend recognises the macro
/// spellings themselves, so annotated headers stay portable and the
/// contracts are enforced on every toolchain.
///
/// Place the macro at the very start of the declaration, before storage
/// specifiers:
///
///     RANGESYN_HOT_PATH double EstimateOne(int64_t a, int64_t b) const;
///     RANGESYN_CANCELLABLE static Result<DpSolution> Solve(...);
///
/// The vocabulary (DESIGN.md §6.4 has the full check catalog):
///
///  - RANGESYN_HOT_PATH: the function (and everything reachable from it
///    through the call graph) serves per-query traffic. rangesyn-analyze
///    enforces SA-101 (no heap allocation) and SA-102 (no mutex
///    acquisition or blocking call) over the reachable set.
///  - RANGESYN_COLD_PATH: terminal error arm (Status construction,
///    logging, aborts). The hot-path walk does not descend into
///    cold-annotated callees: allocating an error message once per failed
///    request is acceptable; doing it per served query is not.
///  - RANGESYN_CANCELLABLE: a builder that accepts a Deadline and
///    promises to observe it. SA-105 requires every outermost loop in the
///    function body to poll Deadline::Check()/Expired() (directly, via a
///    lambda, or by calling another cancellable/deadline-taking
///    function), so the PR-5 degradation ladder stays reachable.
///  - RANGESYN_DETERMINISTIC: the function's observable output must be
///    bit-identical across runs, thread counts, and standard libraries.
///    SA-103 flags iteration over unordered containers inside the
///    deterministic reachable set, because such order can escape into
///    results or serialized bytes.
///
/// Generation 2 (SA-2xx) adds view-lifetime and lock-free protocol
/// vocabulary for the zero-copy serving path:
///
///  - RANGESYN_VIEW_TYPE(owner): the class is a non-owning view whose
///    storage belongs to `owner` (e.g. a span-shaped handle over
///    FlatSynopsis buffers). SA-201 tracks values of view types (plus the
///    built-in std::span / std::string_view) and flags any that escape
///    the frame that owns their storage; SA-202 flags views bound to a
///    temporary owner.
///  - RANGESYN_OWNER_TYPE: the class owns the bytes its views point into
///    (heap vectors, an mmap'd RSF1 file, a shared_ptr keep-alive).
///    Methods of an owner type may store views/pointers into their own
///    members — the owner's lifetime covers them — so SA-201/SA-203 do
///    not fire inside owner-type member functions.
///  - RANGESYN_LENDS_VIEW: the function intentionally hands out a view
///    or interior pointer whose lifetime is governed by a documented
///    keep-alive contract (shared_ptr backing, catalog lending rules).
///    SA-201/SA-202/SA-203 treat lending functions as sanctioned escape
///    points instead of findings.
///  - RANGESYN_LOCK_FREE: a wait-free/lock-free region. SA-102-style
///    blocking (mutex acquisition, I/O) anywhere in its reachable set is
///    an SA-204 finding, as is a relaxed atomic load whose result is
///    dereferenced (pointer publication needs acquire).
///  - RANGESYN_SEQLOCK_READ: a speculative seqlock read section. SA-204
///    requires the acquire/validate pairing (at least two acquire-ordered
///    events: the version read that begins the section and the
///    fence/re-read that validates it); SA-205 forbids side-effecting
///    writes to non-local state inside the retry body, because the body
///    may execute any number of times before validation succeeds.
///
/// SA-104 (narrowing/overflow-prone integer arithmetic in index
/// expressions) needs no annotation: it applies inside every annotated
/// function plus the DP/wavelet index-math directories configured in
/// tools/analyze/analyze_config.toml.
///
/// Intentional violations are waived inline at the finding site:
///
///     tmp_keys.push_back(k);  // analyze: waive(SA-103) sorted below
///
/// Every waiver carries a written justification; the repo gate
/// (analyze_repo in ctest, the `analyze` CI job) fails on any unwaived
/// finding.

#if defined(__clang__) && !defined(SWIG)
#define RANGESYN_ANALYSIS_ANNOTATION_(contract) \
  [[clang::annotate("rangesyn::" contract)]]
#else
#define RANGESYN_ANALYSIS_ANNOTATION_(contract)  // no-op outside Clang
#endif

/// Serves per-query traffic: no heap allocation (SA-101), no mutex or
/// blocking call (SA-102) anywhere in the reachable call graph.
#define RANGESYN_HOT_PATH RANGESYN_ANALYSIS_ANNOTATION_("hot_path")

/// Terminal error arm; the hot-path reachability walk stops here.
#define RANGESYN_COLD_PATH RANGESYN_ANALYSIS_ANNOTATION_("cold_path")

/// Deadline-taking builder; every outermost loop must poll (SA-105).
#define RANGESYN_CANCELLABLE RANGESYN_ANALYSIS_ANNOTATION_("cancellable")

/// Output must be bit-identical across runs/threads/stdlibs; no
/// unordered-container iteration may escape (SA-103).
#define RANGESYN_DETERMINISTIC RANGESYN_ANALYSIS_ANNOTATION_("deterministic")

/// Non-owning view over storage owned by `owner`; SA-201/SA-202 track
/// values of this type for escapes and temporary binding.
#define RANGESYN_VIEW_TYPE(owner) \
  RANGESYN_ANALYSIS_ANNOTATION_("view_type:" #owner)

/// Owns the bytes its views point into; member functions may cache
/// views/pointers into the object's own members.
#define RANGESYN_OWNER_TYPE RANGESYN_ANALYSIS_ANNOTATION_("owner_type")

/// Sanctioned escape point: hands out a view/interior pointer under a
/// documented keep-alive contract (SA-201/SA-202/SA-203 exempt).
#define RANGESYN_LENDS_VIEW RANGESYN_ANALYSIS_ANNOTATION_("lends_view")

/// Lock-free region: no blocking in the reachable set, no relaxed load
/// feeding a dereference (SA-204).
#define RANGESYN_LOCK_FREE RANGESYN_ANALYSIS_ANNOTATION_("lock_free")

/// Speculative seqlock read section: acquire/validate pairing required
/// (SA-204); no non-local writes in the retry body (SA-205).
#define RANGESYN_SEQLOCK_READ RANGESYN_ANALYSIS_ANNOTATION_("seqlock_read")

#endif  // RANGESYN_CORE_ANALYSIS_ANNOTATIONS_H_
