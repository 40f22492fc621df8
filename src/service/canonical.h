// Canonical, order-independent fingerprinting of optimization requests
// (docs/SERVICE.md).
//
// Two requests that must produce identical MsriResult frontiers get the
// same canonical form; everything that can change the frontier feeds the
// form.  Covered: the rooted net topology, per-terminal electricals
// (R/C/AT/DD, source/sink roles, the default driver option), per-edge
// parasitics, the technology library (wire, repeaters, stage loading),
// and every MsriOptions field that affects results.  Deliberately
// excluded: node ids and edge declaration order (the form is built by a
// rooted traversal with children merged as a sorted multiset), plane
// coordinates (rendering only), instrument hooks (stats / trace /
// set_observer / cancel — they observe or stop the DP and never change
// its results), and library entry names.
//
// The fingerprint is a 128-bit hash of the canonical text.  The cache
// never trusts it alone: CanonicalRequest keeps the text, and equality
// compares text too, so a hash collision degrades to a miss instead of
// serving the wrong net's frontier (collision-checked equality).
#ifndef MSN_SERVICE_CANONICAL_H
#define MSN_SERVICE_CANONICAL_H

#include <cstdint>
#include <string>

#include "core/msri.h"
#include "rctree/rctree.h"
#include "tech/tech.h"

namespace msn::service {

/// 128-bit content fingerprint.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint&) const = default;
  bool operator<(const Fingerprint& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 lowercase hex digits, hi half first.
  std::string Hex() const;
};

/// Hashes an arbitrary byte string to a Fingerprint (two independently
/// seeded FNV-1a streams, finalized with splitmix64 mixing).
Fingerprint HashBytes(const std::string& bytes);

/// A canonicalized request: the fingerprint plus the canonical text it
/// hashes.  Equality is collision-checked (fingerprint AND text).
struct CanonicalRequest {
  Fingerprint fingerprint;
  std::string text;

  bool operator==(const CanonicalRequest& o) const {
    return fingerprint == o.fingerprint && text == o.text;
  }
};

/// Builds the canonical form of optimizing `tree` under `tech` with
/// `options`.  The tree is rooted exactly as RunMsri roots it
/// (options.root, else terminal 0's node); sibling subtrees are ordered
/// by their canonical encodings, so adjacency-list and edge order never
/// leak into the form.  Throws CheckError on the same structural
/// violations RunMsri would reject (via RcTree invariants).
CanonicalRequest Canonicalize(const RcTree& tree, const Technology& tech,
                              const MsriOptions& options);

}  // namespace msn::service

#endif  // MSN_SERVICE_CANONICAL_H
