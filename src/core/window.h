// Copyright 2026 The DataCell Authors.
//
// Pure window-boundary arithmetic shared by factories and tests.
//
// Conventions (DESIGN.md §4.6):
//  * ROWS windows: emission k covers row sequences
//    [k*slide, k*slide + size); it is complete when the basket's high
//    sequence reaches k*slide + size.
//  * RANGE windows: emission boundaries are event times T = m*slide
//    (m integer); the window ending at T covers event ts in [T-size, T).
//    It is complete when the stream watermark reaches T (timestamps are
//    non-decreasing, so everything below T has arrived).
//  * Basic windows (incremental mode): basic window j covers
//    [j*slide, (j+1)*slide) in the same coordinate space. A window is a
//    whole number of basic windows iff slide divides size; incremental
//    mode requires that (factories fall back to FULL otherwise).

#ifndef DATACELL_CORE_WINDOW_H_
#define DATACELL_CORE_WINDOW_H_

#include <cstdint>
#include <utility>

#include "plan/bound.h"

namespace dc {

/// Window-extent math for one WindowSpec.
class WindowMath {
 public:
  explicit WindowMath(plan::WindowSpec spec) : spec_(spec) {}

  const plan::WindowSpec& spec() const { return spec_; }

  /// True when incremental per-basic-window processing applies.
  bool Divisible() const { return spec_.size % spec_.slide == 0; }

  /// Basic windows per full window (Divisible() required).
  int64_t NumBasicWindows() const { return spec_.size / spec_.slide; }

  // --- ROWS windows (coordinates are row sequence numbers) ----------------

  /// End sequence of emission k.
  int64_t RowsWindowEnd(int64_t k) const {
    return k * spec_.slide + spec_.size;
  }
  /// Start sequence of emission k.
  int64_t RowsWindowStart(int64_t k) const { return k * spec_.slide; }
  /// Is emission k complete given the basket high sequence?
  bool RowsReady(int64_t k, uint64_t high_seq) const {
    return static_cast<int64_t>(high_seq) >= RowsWindowEnd(k);
  }

  // --- RANGE windows (coordinates are event timestamps, µs) ---------------

  /// Boundary (window end) of emission index m: T = m*slide.
  int64_t RangeBoundary(int64_t m) const { return m * spec_.slide; }
  /// First emission index whose window contains an event at `first_ts`:
  /// the smallest m with m*slide > first_ts.
  int64_t FirstRangeEmission(int64_t first_ts) const {
    return FloorDiv(first_ts, spec_.slide) + 1;
  }
  /// Is the window ending at boundary m complete given the watermark?
  bool RangeReady(int64_t m, int64_t watermark) const {
    return watermark >= RangeBoundary(m);
  }
  /// Event-ts extent [start, end) of the window ending at boundary m.
  std::pair<int64_t, int64_t> RangeExtent(int64_t m) const {
    return {RangeBoundary(m) - spec_.size, RangeBoundary(m)};
  }

  /// Extent [start, end) of emission k in window coordinates: row
  /// offsets (ROWS) or event time (RANGE).
  std::pair<int64_t, int64_t> Extent(int64_t k) const {
    return spec_.rows ? std::make_pair(RowsWindowStart(k), RowsWindowEnd(k))
                      : RangeExtent(k);
  }

  // --- Basic windows --------------------------------------------------------

  /// Basic-window id covering coordinate x.
  int64_t BasicWindowOf(int64_t x) const { return FloorDiv(x, spec_.slide); }
  /// Extent [start, end) of basic window j.
  std::pair<int64_t, int64_t> BasicWindowExtent(int64_t j) const {
    return {j * spec_.slide, (j + 1) * spec_.slide};
  }
  /// Basic windows [first, last) composing the ROWS emission k / RANGE
  /// emission m (Divisible() required).
  std::pair<int64_t, int64_t> BasicWindowsForRows(int64_t k) const {
    return {k, k + NumBasicWindows()};
  }
  std::pair<int64_t, int64_t> BasicWindowsForRange(int64_t m) const {
    return {m - NumBasicWindows(), m};
  }

 private:
  static int64_t FloorDiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  }

  plan::WindowSpec spec_;
};

}  // namespace dc

#endif  // DATACELL_CORE_WINDOW_H_
