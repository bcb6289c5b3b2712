// Adversary's-eye verifier of the non-exposure invariant.
//
// The observer taps every net::Network send attempt and plays the
// strongest adversary the paper's threat model admits: a wire-level
// eavesdropper who also controls every receiving endpoint. From the tagged
// payload descriptors it (1) scans each field against a TaintSet of
// registered private coordinates, catching a raw coordinate under any tag;
// and (2) reconstructs, per principal, the knowledge set the bounding
// traffic implies (knowledge.h) and flags any run that narrows a peer's
// value to below `min_interval_width` -- the protocol is only ever allowed
// to reveal a one-increment-wide interval, so a collapse means exposure.
//
// Verdicts reveal at most one bit each and regions are public by design, so
// neither trips the verifier; the OPT baseline deliberately exposes
// coordinates and is audited with `allow_declared_exposure`, which counts
// exposures instead of flagging them.

#ifndef NELA_AUDIT_OBSERVER_H_
#define NELA_AUDIT_OBSERVER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/knowledge.h"
#include "audit/taint.h"
#include "net/network.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nela::audit {

enum class ViolationKind : uint8_t {
  // A registered private coordinate bit pattern crossed the wire (under any
  // tag), or a field was explicitly tagged kRawCoordinate outside declared
  // exposure mode.
  kRawCoordinateOnWire = 0,
  // A reconstructed knowledge interval collapsed below min_interval_width:
  // some principal effectively learned another user's bounded value.
  kKnowledgeCollapse,
  // Bounding traffic without a payload descriptor: a send site bypassed the
  // observer model, so the run cannot be audited.
  kUntaggedProtocolTraffic,
};
inline constexpr int kViolationKindCount = 3;

const char* ViolationKindName(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::kRawCoordinateOnWire;
  // The principal that gained the knowledge and the user it is about.
  net::NodeId observer = net::kPublicSubject;
  net::NodeId subject = net::kPublicSubject;
  double value = 0.0;
  std::string detail;
};

struct ObserverConfig {
  // A completed knowledge interval narrower than this is a collapse. The
  // honest protocol's intervals are one policy increment wide (>= 1e-4 in
  // every test regime), orders of magnitude above this floor.
  double min_interval_width = 1e-9;
  // OPT-baseline mode: kRawCoordinate fields and region edges that match
  // the taint set are counted as declared exposures, not violations.
  bool allow_declared_exposure = false;
  // Abort via NELA_CHECK on the first violation -- the debug-wrapper mode
  // for pinpointing the offending send in a backtrace.
  bool trap_on_violation = false;
  // Optional taint set of private coordinates (not owned; must outlive the
  // observer). Null disables taint scanning.
  const TaintSet* taint = nullptr;
};

// Thread-safe: the tap is invoked outside the network mutex, and the
// observer serializes its own state, so service-driver workers may share a
// tapped network.
class AdversaryObserver : public net::TrafficTap {
 public:
  explicit AdversaryObserver(ObserverConfig config = {});

  void OnMessage(const net::Message& message, bool delivered) override
      EXCLUDES(mu_);

  // --- Results ----------------------------------------------------------

  bool clean() const EXCLUDES(mu_);
  std::vector<Violation> violations() const EXCLUDES(mu_);
  uint64_t violation_count() const EXCLUDES(mu_);
  uint64_t messages_seen() const EXCLUDES(mu_);
  uint64_t tagged_messages() const EXCLUDES(mu_);
  uint64_t declared_exposures() const EXCLUDES(mu_);

  // Width of the narrowest interval `observer` learned about `subject`;
  // +infinity when none completed.
  double LearnedIntervalWidth(net::NodeId observer,
                              net::NodeId subject) const EXCLUDES(mu_);

  // Narrowest interval ANY principal learned about ANY subject; +infinity
  // when no bounding run completed. This is the "provable adversary
  // knowledge" scalar of the comparative benchmark: mechanisms that never
  // run the bounding protocol (grid / geo-ind / dummies) leave it infinite.
  double TightestLearnedWidth() const EXCLUDES(mu_);

  // Human-readable summary of up to `max_entries` violations, for test
  // failure messages.
  std::string Report(size_t max_entries = 10) const EXCLUDES(mu_);

 private:
  void AddViolationLocked(ViolationKind kind, net::NodeId observer,
                          net::NodeId subject, double value,
                          std::string detail) REQUIRES(mu_);

  ObserverConfig config_;
  mutable util::Mutex mu_;
  std::unordered_map<net::NodeId, KnowledgeSet> knowledge_ GUARDED_BY(mu_);
  std::vector<Violation> violations_ GUARDED_BY(mu_);
  uint64_t messages_seen_ GUARDED_BY(mu_) = 0;
  uint64_t tagged_messages_ GUARDED_BY(mu_) = 0;
  uint64_t declared_exposures_ GUARDED_BY(mu_) = 0;
};

}  // namespace nela::audit

#endif  // NELA_AUDIT_OBSERVER_H_
