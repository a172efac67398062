/**
 * @file
 * Chained transfers (paper §5.1.2 / §5.1.4): the sender reads source
 * elements with their native pattern and streams them straight into
 * the network; the receiver's deposit engine (T3D annex) or
 * communication co-processor (Paragon) stores them in the background.
 * No packing buffers exist:
 *
 *     1Q'1 = 1S0 || Nd   || 0D1 (or 0R1)
 *     xQ'y = xS0 || Nadp || 0Dy (or 0Ry)
 */

#ifndef CT_RT_CHAINED_LAYER_H
#define CT_RT_CHAINED_LAYER_H

#include "rt/layer.h"

namespace ct::rt {

/** Tunables of the chained implementation. */
struct ChainedOptions
{
    /**
     * Software cost the sender pays once per flow: switching the
     * annex to a new communication partner and setting up the
     * remote-store sequence must be done at assembler level (§5.1.2)
     * and is not free. Dominates for small messages (the paper's SOR
     * rows), which is why measured chained throughput falls far below
     * the model there (§6.2).
     */
    Cycles flowSetupOverhead = 1500;
    /**
     * Cost of ending the communication step: barrier plus the cache
     * invalidation the T3D requires after background deposits
     * ("the on-chip cache ... can be invalidated entirely when the
     * program reaches a synchronization point", §3.5.1). Charged
     * once per run. Dominates tiny steps like the paper's 256 x 256
     * SOR exchange, pulling measured chained throughput far below
     * the model's 68 MB/s prediction (§6.2).
     */
    Cycles stepSyncCycles = 8000;
    /**
     * Feed the network from the DMA fetch engine instead of processor
     * loads: the dma-direct style (1F0 || Nd || 0D1). Only legal for
     * fully contiguous flows on a machine with a fetch engine and a
     * contiguous deposit path; data-only chunks then bypass the
     * receive co-processor and land through the deposit engine.
     */
    bool dmaFeed = false;
};

/** Direct user-space to user-space transfers via remote stores. */
class ChainedLayer : public MessageLayer
{
  public:
    ChainedLayer() = default;
    explicit ChainedLayer(ChainedOptions options) : opts(options) {}

    std::string name() const override { return "chained"; }

    RunResult run(sim::Machine &machine, const CommOp &op) override;

    /** Every event is partition-tagged; credit returns are scoped
     *  cross-partition events and packet sends defer to commit. */
    bool parallelSafe() const override { return true; }

    sim::Cycles parallelLookahead(const sim::Machine &machine,
                                  const CommOp &op) const override;

  private:
    ChainedOptions opts;
};

} // namespace ct::rt

#endif // CT_RT_CHAINED_LAYER_H
