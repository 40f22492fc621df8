// Text serialization of nets and optimization results.
//
// The `.msn` format is a line-oriented, whitespace-separated description
// of an RcTree plus optional repeater/driver/wire-width assignments, made
// for hand-editing, diffing, and driving the CLI tool:
//
//   msn-net 1
//   wire <res_per_um> <cap_per_um>
//   node <id> terminal|steiner|insertion <x_um> <y_um>
//   terminal <node_id> <arrival_ps> <downstream_ps> <is_source 0|1>
//            <is_sink 0|1> <pin_cap> <driver_res> <driver_intrinsic_ps>
//            <arrival_extra_ps> <downstream_extra_ps> <driver_cost>
//   edge <a> <b> <length_um>
//   end
//
// Node ids must be dense and ascending from 0 (matching NodeId); the
// `terminal` records must appear in terminal-ordinal order.  Comments
// start with '#'.
//
// Assignments append after `end`:
//   repeater <node_id> <library_index> <a_side_neighbor>
//   driver <terminal> <cost> <arrival_extra> <driver_res>
//          <driver_intrinsic> <pin_cap> <downstream_extra> <name>
//   width <edge_index> <factor>
#ifndef MSN_IO_NETFILE_H
#define MSN_IO_NETFILE_H

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "common/check.h"
#include "core/msri.h"
#include "rctree/rctree.h"
#include "tech/tech.h"

namespace msn {

/// Thrown by ReadNet/ReadSolution on malformed input.  Derives from
/// CheckError (so generic handlers keep working) but carries the offending
/// line number, letting callers produce a precise one-line diagnostic.
/// Line() is 0 for whole-file problems (e.g. a missing `end` record).
class ParseError : public CheckError {
 public:
  ParseError(std::size_t line, const std::string& message);
  std::size_t Line() const { return line_; }

 private:
  std::size_t line_ = 0;
};

/// Writes the net (structure + terminal electricals) in .msn format.
void WriteNet(std::ostream& os, const RcTree& tree);

/// Parses .msn text up to its `end` record.  Throws msn::ParseError with
/// the offending line number on malformed input; the returned tree is
/// validated (structural violations surface as CheckError from
/// RcTree::Validate).
RcTree ReadNet(std::string_view text);

/// ReadNet on the rest of `is`.
RcTree ReadNet(std::istream& is);

/// Writes `point`'s assignments (after a WriteNet header) so a solution
/// can be persisted alongside its net.
void WriteSolution(std::ostream& os, const RcTree& tree,
                   const TradeoffPoint& point);

/// Parsed assignment section of a solution file.
struct SolutionFile {
  RepeaterAssignment repeaters;
  DriverAssignment drivers;
  std::vector<double> wire_widths;  ///< Empty when widths were not given.

  explicit SolutionFile(const RcTree& tree)
      : repeaters(tree.NumNodes()), drivers(tree.NumTerminals()) {}
};

/// Reads assignment lines (repeater/driver/width) for `tree` until EOF.
SolutionFile ReadSolution(std::istream& is, const RcTree& tree);

/// Round-trip convenience used by tests: serialize + parse.
RcTree RoundTripNet(const RcTree& tree);

}  // namespace msn

#endif  // MSN_IO_NETFILE_H
