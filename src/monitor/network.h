// Copyright 2026 The DataCell Authors.
//
// Query-network introspection — the textual equivalent of the demo's
// Fig. 1/Fig. 3 panes: which query waits for which stream, which baskets
// it binds, how queries relate through shared inputs, and where tuples
// currently live (baskets, cached intermediates).

#ifndef DATACELL_MONITOR_NETWORK_H_
#define DATACELL_MONITOR_NETWORK_H_

#include <string>

#include "core/engine.h"

namespace dc::monitor {

/// Graphviz DOT rendering of the live query network:
/// stream baskets -> factories -> emitters, with
/// persistent tables as side inputs. Paste into `dot -Tsvg` to get the
/// demo's network diagram.
std::string ExportDot(Engine& engine);

/// Aligned-text network summary (one line per query: inputs, window, mode,
/// emissions, cached intermediate footprint).
std::string RenderNetworkTable(Engine& engine);

/// "Detailed status inspection": where tuples live right now — resident
/// rows per basket, consumption horizons, cached partials per factory.
std::string RenderTupleLocations(Engine& engine);

}  // namespace dc::monitor

#endif  // DATACELL_MONITOR_NETWORK_H_
