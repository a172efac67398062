/**
 * @file
 * The style-builder registry: the ONE place that knows how each
 * implementation style turns into a TransferProgram. The planner,
 * the backends, the runtime, ctplan and the benches all consume
 * programs built here; adding a style means registering one builder
 * and touching nothing else.
 */

#ifndef CT_CORE_STYLE_REGISTRY_H
#define CT_CORE_STYLE_REGISTRY_H

#include <functional>
#include <optional>

#include "core/transfer_program.h"

namespace ct::core {

/**
 * Builds the program implementing xQy with one style on a machine,
 * or nullopt when the machine lacks the required hardware.
 */
using StyleBuilder = std::function<std::optional<TransferProgram>(
    MachineId, AccessPattern, AccessPattern)>;

/** One registered style. */
struct StyleInfo
{
    /** Enum tag; Style::Custom for externally registered styles. */
    Style style = Style::Custom;
    /** Unique key and display/layer name, e.g. "chained". */
    std::string key;
    /** Fixed software costs charged by the latency model. */
    SoftwareCosts costs;
    StyleBuilder build;
};

/**
 * Register a style (or replace the entry with the same key). The
 * registration order is the planner's enumeration order.
 * Thread-safe against other registerStyle() calls; registration must
 * still happen-before any concurrent reader (readers hand out
 * references into the registry), so register styles before launching
 * a sweep::Farm (DESIGN.md §14).
 */
void registerStyle(StyleInfo info);

/** All registered styles, in registration order. Built-ins
 *  (dma-direct, chained, buffer-packing, pvm) are registered on
 *  first use. Safe to read concurrently from sweep workers once
 *  registration is complete. */
const std::vector<StyleInfo> &styleRegistry();

/** Find a style by enum tag (first match) or key; nullptr if absent. */
const StyleInfo *findStyle(Style style);
const StyleInfo *findStyle(const std::string &key);

/** Build the program for xQy with @p style on machine @p id. */
std::optional<TransferProgram> buildProgram(MachineId id, Style style,
                                            AccessPattern x,
                                            AccessPattern y);

/** Same, addressing the style by registry key. */
std::optional<TransferProgram> buildProgram(MachineId id,
                                            const std::string &key,
                                            AccessPattern x,
                                            AccessPattern y);

/** Same, for a registry entry the caller already holds. */
std::optional<TransferProgram> buildProgram(const StyleInfo &info,
                                            MachineId id,
                                            AccessPattern x,
                                            AccessPattern y);

} // namespace ct::core

#endif // CT_CORE_STYLE_REGISTRY_H
