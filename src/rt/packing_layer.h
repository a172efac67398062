/**
 * @file
 * Buffer-packing transfers (paper §3.4 / §5.1.1 / §5.1.3): gather
 * into a contiguous buffer, move the buffer as a block across the
 * network, scatter on the far side:
 *
 *     xQy = xC1 o (1S0|1F0 || Nd || 0D1) o 1Cy
 *
 * The PVM variant adds one more copy through a system buffer on each
 * side and a constant per-message software overhead (§5.1.1, §6.2).
 */

#ifndef CT_RT_PACKING_LAYER_H
#define CT_RT_PACKING_LAYER_H

#include "rt/layer.h"

namespace ct::rt {

/** Tunables distinguishing bare packing from PVM-style packing. */
struct PackingOptions
{
    /** Copy through an extra system buffer on both sides (PVM). */
    bool systemBufferCopies = false;
    /** Software cost charged to the sender per flow (message);
     *  the default models the libsma/NX block-send call. */
    Cycles senderMessageOverhead = 1000;
    /** Software cost charged to the receiver per flow. */
    Cycles receiverMessageOverhead = 500;
    /** End-of-step barrier cost, charged once per run. */
    Cycles stepSyncCycles = 3000;
    /** Layer name shown in reports. */
    std::string layerName = "buffer-packing";
};

/** Gather / block transfer / scatter implementation. */
class PackingLayer : public MessageLayer
{
  public:
    PackingLayer() = default;
    explicit PackingLayer(PackingOptions options)
        : opts(std::move(options))
    {}

    std::string name() const override { return opts.layerName; }

    RunResult run(sim::Machine &machine, const CommOp &op) override;

    /** Partition-tagged like chained; keeps the base lookahead of 1
     *  (credit returns ride on unpack completions with no fixed
     *  delay floor), so only same-timestamp events parallelize. */
    bool parallelSafe() const override { return true; }

  private:
    PackingOptions opts;
};

} // namespace ct::rt

#endif // CT_RT_PACKING_LAYER_H
