#ifndef SEMCLUST_CC_CC_CONFIG_H_
#define SEMCLUST_CC_CC_CONFIG_H_

#include <string>

#include "util/status.h"

/// \file
/// Configuration for the concurrency-control subsystem (src/cc/).
///
/// Header-only on purpose, mirroring dyn_config.h: `core::ModelConfig`
/// embeds a CcConfig so the scenario layer and benches can sweep the
/// contention knobs without a core -> cc library dependency. The runtime
/// machinery (LockManager) lives in the semclust_cc library and is only
/// linked where it is used (core).

namespace oodb::cc {

/// Knobs of the object-level strict-2PL lock manager. All defaults are
/// inert: with `enabled == false` no lock manager is built, no metrics
/// are registered, no random numbers are drawn, and the simulation is
/// byte-identical to a build without src/cc/.
struct CcConfig {
  bool enabled = false;

  /// Deadlock handling is deterministic wait-timeout presumed-abort: a
  /// lock request queued longer than this (virtual seconds) is removed
  /// from the wait queue and its transaction aborts.
  double lock_timeout_s = 2.0;

  /// An aborted transaction retries at most this many times after its
  /// first attempt before giving up (its work stays rolled back).
  int max_retries = 6;

  /// Exponential-backoff delay before retry k is
  /// min(backoff_base_s * 2^k, backoff_cap_s), jittered by a splitmix64
  /// stream keyed on the per-transaction seed — deterministic at any job
  /// count.
  double backoff_base_s = 0.05;
  double backoff_cap_s = 2.0;

  /// Guard the buffer-fix path with per-page exclusive FIFO latches: a
  /// page's fix (and any miss I/O inside it) is serialised, so two
  /// transactions never race the same frame. Latches are held across at
  /// most one fix and never across a lock wait, so they cannot deadlock.
  bool page_latches = true;

  friend bool operator==(const CcConfig&, const CcConfig&) = default;

  Status Validate() const {
    if (!enabled) return Status::Ok();
    if (!(lock_timeout_s > 0.0))
      return Status::InvalidArgument("cc: lock_timeout_s must be positive");
    if (max_retries < 0)
      return Status::InvalidArgument(
          "cc: max_retries must be >= 0 (0 aborts permanently on the "
          "first deadlock timeout)");
    if (!(backoff_base_s > 0.0))
      return Status::InvalidArgument("cc: backoff_base_s must be positive");
    if (backoff_cap_s < backoff_base_s)
      return Status::InvalidArgument(
          "cc: backoff_cap_s must be >= backoff_base_s");
    return Status::Ok();
  }
};

}  // namespace oodb::cc

#endif  // SEMCLUST_CC_CC_CONFIG_H_
